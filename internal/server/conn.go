package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"bandslim"
	"bandslim/internal/resp"
)

// verb is the detailed command identity; opcode (the stats/latency bucket)
// is derived from it. Handshake commands stock clients send (COMMAND, QUIT,
// SELECT, ECHO) share the opOther bucket.
type verb int

const (
	vPing verb = iota
	vSet
	vGet
	vDel
	vMSet
	vMGet
	vScan
	vInfo
	vShutdown
	vEcho
	vQuit
	vCommand
	vSelect
	vUnknown
)

// opcodeOf buckets a verb for stats and latency digests.
func opcodeOf(v verb) opcode {
	switch v {
	case vPing:
		return opPing
	case vSet:
		return opSet
	case vGet:
		return opGet
	case vDel:
		return opDel
	case vMSet:
		return opMSet
	case vMGet:
		return opMGet
	case vScan:
		return opScan
	case vInfo:
		return opInfo
	case vShutdown:
		return opShutdown
	default:
		return opOther
	}
}

// classify resolves a command name case-insensitively without allocating
// (the scratch array stays on the stack and `switch string(...)` does not
// escape).
func classify(name []byte) verb {
	var up [8]byte // longest recognized name: SHUTDOWN
	if len(name) > len(up) {
		return vUnknown
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		up[i] = ch
	}
	switch string(up[:len(name)]) {
	case "PING":
		return vPing
	case "SET":
		return vSet
	case "GET":
		return vGet
	case "DEL":
		return vDel
	case "MSET":
		return vMSet
	case "MGET":
		return vMGet
	case "SCAN":
		return vScan
	case "INFO":
		return vInfo
	case "SHUTDOWN":
		return vShutdown
	case "ECHO":
		return vEcho
	case "QUIT":
		return vQuit
	case "COMMAND":
		return vCommand
	case "SELECT":
		return vSelect
	default:
		return vUnknown
	}
}

// cmd is one slot of a connection's in-flight ring: a parsed command with
// slot-owned argument copies (the resp.Reader's views die at the next
// ReadCommand, so the reader copies into lanes the slot reuses forever).
type cmd struct {
	verb verb
	op   opcode
	n    int      // argument count, including the command name
	args [][]byte // lanes; args[i][:] reuses capacity across commands
	t0   time.Time
	fail error // protocol error carried to the writer, which reports and closes
}

// capture copies parsed argument views into the slot's lanes.
func (cm *cmd) capture(args [][]byte) {
	for len(cm.args) < len(args) {
		cm.args = append(cm.args, nil)
	}
	for i, a := range args {
		cm.args[i] = append(cm.args[i][:0], a...)
	}
	cm.n = len(args)
	cm.fail = nil
	if cm.n > 0 {
		cm.verb = classify(args[0])
		cm.op = opcodeOf(cm.verb)
	}
}

// conn is one client connection: a reader goroutine parsing into the slot
// ring and a writer goroutine draining, coalescing, and replying.
type conn struct {
	s  *Server
	db *bandslim.DB
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer

	// The slot ring. Readers take from free, push parsed slots to pending;
	// the writer drains pending and returns slots to free. Both channels
	// hold every slot, so slot sends never block.
	free    chan *cmd
	pending chan *cmd

	// Writer-side scratch, reused across bursts.
	burst []*cmd
	keys  [][]byte // key references into slot lanes
	vals  [][]byte // value references (SET/MSET)
	get   [][]byte // GetBatchSparse destination lanes (owned, reused)
	miss  []bool
	info  []byte // INFO reply scratch
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		s:       s,
		db:      s.cfg.DB,
		nc:      nc,
		r:       resp.NewReader(nc),
		w:       resp.NewWriter(nc),
		free:    make(chan *cmd, s.window),
		pending: make(chan *cmd, s.window),
		burst:   make([]*cmd, 0, s.window),
	}
	for i := 0; i < s.window; i++ {
		c.free <- &cmd{}
	}
	return c
}

// serve runs the connection to completion. writeLoop only returns once
// readLoop has closed and drained pending, so by the time serve finishes
// both goroutines are done.
func (c *conn) serve() {
	go c.readLoop()
	c.writeLoop()
	c.nc.Close()
	c.s.finish(c)
}

// readLoop parses commands into slots. It acquires a slot before reading:
// with every slot in flight it blocks here instead of reading more bytes,
// which is the backpressure path (the kernel buffer fills, TCP flow control
// pushes back on the client).
func (c *conn) readLoop() {
	defer close(c.pending)
	var lastIn int64
	for {
		var slot *cmd
		select {
		case slot = <-c.free:
		default:
			c.s.stalls.Add(1)
			slot = <-c.free
		}
		args, err := c.r.ReadCommand()
		if in := c.r.BytesRead(); in != lastIn {
			c.s.bytesIn.Add(in - lastIn)
			lastIn = in
		}
		if err != nil {
			if resp.IsProtocol(err) {
				// Ship the error through the ring so the writer can
				// report it in stream order before closing.
				slot.n = 0
				slot.fail = err
				slot.t0 = time.Now()
				c.pending <- slot
			}
			return
		}
		slot.capture(args)
		slot.t0 = time.Now()
		c.pending <- slot
	}
}

// writeLoop drains the ring: each wakeup collects every already-parsed slot
// into one burst, executes it with batch coalescing, and flushes the socket
// once. Pipelined clients therefore ride the DB batch path without asking.
func (c *conn) writeLoop() {
	var lastOut int64
	for {
		first, ok := <-c.pending
		if !ok {
			c.w.Flush()
			return
		}
		c.burst = append(c.burst[:0], first)
	collect:
		for len(c.burst) < c.s.window {
			select {
			case cm, ok := <-c.pending:
				if !ok {
					break collect
				}
				c.burst = append(c.burst, cm)
			default:
				break collect
			}
		}
		closeAfter := c.execute(c.burst)
		err := c.w.Flush()
		if out := c.w.BytesWritten(); out != lastOut {
			c.s.bytesOut.Add(out - lastOut)
			lastOut = out
		}
		now := time.Now()
		for _, cm := range c.burst {
			if cm.n > 0 && cm.fail == nil {
				c.s.observeLatency(cm.op, now.Sub(cm.t0))
			}
			c.free <- cm
		}
		if err != nil || closeAfter {
			// Unblock the reader (it exits on the closed socket), then
			// drain pending so its final sends cannot strand slots.
			c.nc.Close()
			for cm := range c.pending {
				c.free <- cm
			}
			return
		}
	}
}

// execute serves one burst in order, coalescing runs of simple SETs into a
// PutBatch and runs of GETs into a GetBatchSparse so the shard fan-out and
// the NVMe batch path carry pipelined load. Reports whether the connection
// should close after the flush (QUIT, SHUTDOWN, protocol error).
func (c *conn) execute(burst []*cmd) (closeAfter bool) {
	for i := 0; i < len(burst); {
		cm := burst[i]
		if cm.fail != nil {
			c.s.errs.Add(1)
			c.w.Error("ERR " + cm.fail.Error())
			return true
		}
		if cm.n == 0 { // empty inline line: ignored, like redis
			i++
			continue
		}
		switch {
		case cm.verb == vSet && cm.n == 3:
			j := i + 1
			for j < len(burst) && burst[j].fail == nil && burst[j].verb == vSet && burst[j].n == 3 {
				j++
			}
			c.runSet(burst[i:j])
			i = j
		case cm.verb == vGet && cm.n == 2:
			j := i + 1
			for j < len(burst) && burst[j].fail == nil && burst[j].verb == vGet && burst[j].n == 2 {
				j++
			}
			c.runGet(burst[i:j])
			i = j
		default:
			if c.executeOne(cm) {
				closeAfter = true
			}
			i++
		}
	}
	return closeAfter
}

// runSet serves a coalesced run of SET key value commands as one PutBatch.
func (c *conn) runSet(run []*cmd) {
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
	for _, cm := range run {
		c.keys = append(c.keys, cm.args[1])
		c.vals = append(c.vals, cm.args[2])
	}
	c.s.cmds[opSet].Add(int64(len(run)))
	if err := c.db.PutBatch(c.keys, c.vals); err != nil {
		for range run {
			c.writeDBErr(err)
		}
		return
	}
	for range run {
		c.w.Simple("OK")
	}
}

// runGet serves a coalesced run of GET key commands as one GetBatchSparse;
// misses become null bulks, exactly as single GETs would reply.
func (c *conn) runGet(run []*cmd) {
	c.keys = c.keys[:0]
	for _, cm := range run {
		c.keys = append(c.keys, cm.args[1])
	}
	n := len(run)
	c.get = growLanes(c.get, n)
	c.miss = growBools(c.miss, n)
	c.s.cmds[opGet].Add(int64(n))
	if _, err := c.db.GetBatchSparse(c.keys, c.get, c.miss); err != nil {
		for range run {
			c.writeDBErr(err)
		}
		return
	}
	for i := 0; i < n; i++ {
		if c.miss[i] {
			c.w.Null()
		} else {
			c.w.Bulk(c.get[i])
		}
	}
}

// executeOne serves every non-coalesced command. Reports whether the
// connection should close after this burst's flush.
func (c *conn) executeOne(cm *cmd) (closeAfter bool) {
	c.s.cmds[cm.op].Add(1)
	args := cm.args[:cm.n]
	switch cm.verb {
	case vPing:
		switch cm.n {
		case 1:
			c.w.Simple("PONG")
		case 2:
			c.w.Bulk(args[1])
		default:
			c.wrongArity("ping")
		}
	case vEcho:
		if cm.n != 2 {
			c.wrongArity("echo")
			break
		}
		c.w.Bulk(args[1])
	case vSet:
		c.wrongArity("set")
	case vGet:
		c.wrongArity("get")
	case vDel:
		if cm.n < 2 {
			c.wrongArity("del")
			break
		}
		// Deletes are upserted tombstones below, so redis's "number of keys
		// removed" needs an existence probe first. One sparse batch probes
		// every key at once — it rides the shard fan-out and the windowed
		// read path, instead of a full serial read per key. A missing key
		// costs one read command, which the device's table filters answer
		// without a NAND page read.
		c.keys = c.keys[:0]
		c.keys = append(c.keys, args[1:]...)
		n := len(c.keys)
		c.get = growLanes(c.get, n)
		c.miss = growBools(c.miss, n)
		if _, err := c.db.GetBatchSparse(c.keys, c.get, c.miss); err != nil {
			c.writeDBErr(err)
			return false
		}
		removed := 0
		for i, key := range c.keys {
			if c.miss[i] {
				continue
			}
			if err := c.db.Delete(key); err != nil {
				c.writeDBErr(err)
				return false
			}
			removed++
		}
		c.w.Int(int64(removed))
	case vMSet:
		if cm.n < 3 || cm.n%2 == 0 {
			c.wrongArity("mset")
			break
		}
		c.keys = c.keys[:0]
		c.vals = c.vals[:0]
		for i := 1; i < cm.n; i += 2 {
			c.keys = append(c.keys, args[i])
			c.vals = append(c.vals, args[i+1])
		}
		if err := c.db.PutBatch(c.keys, c.vals); err != nil {
			c.writeDBErr(err)
			break
		}
		c.w.Simple("OK")
	case vMGet:
		if cm.n < 2 {
			c.wrongArity("mget")
			break
		}
		c.keys = c.keys[:0]
		c.keys = append(c.keys, args[1:]...)
		n := len(c.keys)
		c.get = growLanes(c.get, n)
		c.miss = growBools(c.miss, n)
		if _, err := c.db.GetBatchSparse(c.keys, c.get, c.miss); err != nil {
			c.writeDBErr(err)
			break
		}
		c.w.Array(n)
		for i := 0; i < n; i++ {
			if c.miss[i] {
				c.w.Null()
			} else {
				c.w.Bulk(c.get[i])
			}
		}
	case vScan:
		c.scan(cm)
	case vInfo:
		c.infoReply()
	case vShutdown:
		c.w.Simple("OK")
		c.s.beginShutdown()
		closeAfter = true
	case vQuit:
		c.w.Simple("OK")
		closeAfter = true
	case vCommand:
		c.w.Array(0) // enough for redis-cli's handshake probe
	case vSelect:
		c.w.Simple("OK") // single keyspace; accept and ignore
	default:
		c.s.errs.Add(1)
		c.w.Error(fmt.Sprintf("ERR unknown command '%s'", args[0]))
	}
	return closeAfter
}

// scan serves SCAN cursor [COUNT n]: a cursor of "0" starts at the first
// key; otherwise the cursor is the key to resume at (the previous reply's
// first element). The reply is redis-shaped: [next-cursor, [keys...]], with
// next-cursor "0" when the keyspace is exhausted.
func (c *conn) scan(cm *cmd) {
	args := cm.args[:cm.n]
	if cm.n != 2 && cm.n != 4 {
		c.wrongArity("scan")
		return
	}
	count := 10
	if cm.n == 4 {
		if classifyOption(args[2]) != "count" {
			c.s.errs.Add(1)
			c.w.Error("ERR syntax error")
			return
		}
		v, err := strconv.Atoi(string(args[3]))
		if err != nil || v < 1 {
			c.s.errs.Add(1)
			c.w.Error("ERR value is not an integer or out of range")
			return
		}
		count = v
	}
	var start []byte
	if !(len(args[1]) == 1 && args[1][0] == '0') {
		start = args[1]
	}
	it, err := c.db.NewIterator(start)
	if err != nil {
		c.writeDBErr(err)
		return
	}
	keys := make([][]byte, 0, count)
	var next []byte
	for it.Valid() {
		if len(keys) == count {
			// One key beyond the page: it becomes the resume cursor.
			next = append([]byte(nil), it.Key()...)
			break
		}
		keys = append(keys, append([]byte(nil), it.Key()...))
		it.Next()
	}
	if err := it.Err(); err != nil {
		c.writeDBErr(err)
		return
	}
	c.w.Array(2)
	if next == nil {
		c.w.BulkString("0")
	} else {
		c.w.Bulk(next)
	}
	c.w.Array(len(keys))
	for _, k := range keys {
		c.w.Bulk(k)
	}
}

// infoReply writes the INFO bulk: redis-style sections carrying both
// timebases — wall clock at the network edge, virtual clock in the device —
// plus the serving counters and the simulation's headline figures.
func (c *conn) infoReply() {
	st := c.db.Stats()
	sv := c.s.Stats()
	b := c.info[:0]
	b = append(b, "# Server\r\n"...)
	b = fmt.Appendf(b, "uptime_wall_seconds:%.3f\r\n", time.Since(c.s.startWall).Seconds())
	b = fmt.Appendf(b, "connections_accepted:%d\r\n", sv.Accepted)
	b = fmt.Appendf(b, "connections_active:%d\r\n", sv.Active)
	b = fmt.Appendf(b, "backpressure_stalls:%d\r\n", sv.Stalls)
	b = fmt.Appendf(b, "bytes_in:%d\r\nbytes_out:%d\r\n", sv.BytesIn, sv.BytesOut)
	b = fmt.Appendf(b, "window:%d\r\n", c.s.window)
	sub := c.db.Submission()
	b = fmt.Appendf(b, "submission_queue_depth:%d\r\n", sub.QueueDepth)
	b = fmt.Appendf(b, "submission_doorbell_batch:%d\r\n", sub.DoorbellBatch)
	b = fmt.Appendf(b, "submission_coalesce_ns:%d\r\n", int64(sub.CoalesceInterval))
	b = append(b, "# Commands\r\n"...)
	b = fmt.Appendf(b, "ping:%d\r\nset:%d\r\nget:%d\r\ndel:%d\r\nmset:%d\r\nmget:%d\r\nscan:%d\r\ninfo:%d\r\nerrors:%d\r\n",
		sv.Ping, sv.Set, sv.Get, sv.Del, sv.MSet, sv.MGet, sv.Scan, sv.Info, sv.Errors)
	b = append(b, "# Simulation\r\n"...)
	b = fmt.Appendf(b, "sim_time_ns:%d\r\n", int64(c.db.Now()))
	b = fmt.Appendf(b, "puts:%d\r\ngets:%d\r\ndeletes:%d\r\n", st.Host.Puts, st.Host.Gets, st.Host.Deletes)
	b = fmt.Appendf(b, "pcie_bytes:%d\r\n", st.PCIe.Bytes)
	b = fmt.Appendf(b, "nand_page_writes:%d\r\n", st.Device.NANDPageWrites)
	b = fmt.Appendf(b, "write_resp_p99_ns:%d\r\n", int64(st.Host.WriteResp.P99))
	b = fmt.Appendf(b, "read_resp_p99_ns:%d\r\n", int64(st.Host.ReadResp.P99))
	if st.Trace.Buffered > 0 || st.Trace.Dropped > 0 {
		// Tracing is on (ShardedConfig.TraceCapacity): surface ring health
		// and the live latency-attribution headline.
		b = append(b, "# Trace\r\n"...)
		b = fmt.Appendf(b, "trace_buffered:%d\r\ntrace_dropped:%d\r\n", st.Trace.Buffered, st.Trace.Dropped)
		if rep := c.db.Blame(); rep != nil {
			b = fmt.Appendf(b, "blame_ops:%d\r\nblame_unclaimed:%d\r\nblame_incomplete:%d\r\n",
				len(rep.Ops), rep.Unclaimed, rep.Incomplete)
			b = fmt.Appendf(b, "blame_truncated_events:%d\r\n", rep.TruncatedEvents)
			for _, cp := range bandslim.BlameCriticalPaths(rep) {
				b = fmt.Appendf(b, "blame_%s_p99_ns:%d\r\nblame_%s_tail_stage:%s\r\n",
					cp.Op, int64(cp.P99), cp.Op, cp.Stage)
			}
		}
	}
	c.info = b
	c.w.Bulk(b)
}

// wrongArity writes the redis-style arity error.
func (c *conn) wrongArity(name string) {
	c.s.errs.Add(1)
	c.w.Error("ERR wrong number of arguments for '" + name + "' command")
}

// writeDBErr maps a store error to a RESP error reply. A closed DB (racing
// with shutdown) gets a clean, stable message instead of an internal one.
func (c *conn) writeDBErr(err error) {
	c.s.errs.Add(1)
	if errors.Is(err, bandslim.ErrClosed) {
		c.w.Error("ERR server shutting down")
		return
	}
	c.w.Error("ERR " + err.Error())
}

// classifyOption lowercases a short option token on the stack.
func classifyOption(b []byte) string {
	var low [8]byte
	if len(b) > len(low) {
		return ""
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		low[i] = ch
	}
	switch string(low[:len(b)]) {
	case "count":
		return "count"
	case "match":
		return "match"
	}
	return ""
}

// growLanes resizes a slice-of-lanes to n entries, keeping existing lane
// buffers so their capacity keeps being reused.
func growLanes(s [][]byte, n int) [][]byte {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]byte, n)
	copy(out, s)
	return out
}

// growBools resizes a bool scratch to n entries.
func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
