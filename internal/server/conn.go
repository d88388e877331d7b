package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"time"

	"bandslim"
	"bandslim/internal/driver"
	"bandslim/internal/resp"
)

// classify resolves a command name case-insensitively without allocating.
func classify(name []byte) opcode {
	for op, n := range opNames {
		if opcode(op) != opOther && bytes.EqualFold(name, []byte(n)) {
			return opcode(op)
		}
	}
	return opUnknown
}

// cmd is one slot of a connection's in-flight ring: a parsed command with
// slot-owned argument copies (the resp.Reader's views die at the next
// ReadCommand, so the reader copies into lanes the slot reuses forever).
type cmd struct {
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
		cm.op = classify(args[0])
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

// batch is the DB batch a command joins: a write is SET key value or an MSET
// of whole pairs, a read GET key or an MGET with keys. Anything else, a
// wrong-arity form included, runs alone.
type batch int

const (
	alone batch = iota
	writes
	reads
)

func (cm *cmd) batch() batch {
	switch {
	case cm.fail != nil:
		return alone
	case cm.op == opSet && cm.n == 3, cm.op == opMSet && cm.n >= 3 && cm.n%2 == 1:
		return writes
	case cm.op == opGet && cm.n == 2, cm.op == opMGet && cm.n >= 2:
		return reads
	}
	return alone
}

// joins reports whether a batch command may share its batch: the batch path
// accepts each of its keys, and for a write each record. One it would refuse
// runs as a batch of its own, so the error reaches that command alone.
func (cm *cmd) joins() bool {
	step := 1
	if cm.op == opSet || cm.op == opMSet {
		step = 2
	}
	for i := 1; i < cm.n; i += step {
		var value []byte
		if step == 2 {
			value = cm.args[i+1]
		}
		if !driver.Batchable(cm.args[i], value) {
			return false
		}
	}
	return true
}

// execute serves one burst in order. Each run of writes becomes one
// PutBatch and each run of reads one GetBatchSparse, so the shard fan-out
// and the NVMe batch path carry pipelined load; every other command runs
// alone. Reports whether the connection should close after the flush (QUIT,
// SHUTDOWN, protocol error).
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
		b := cm.batch()
		if b == alone {
			if c.executeOne(cm) {
				closeAfter = true
			}
			i++
			continue
		}
		j := i + 1
		for cm.joins() && j < len(burst) && burst[j].batch() == b && burst[j].joins() {
			j++
		}
		if b == writes {
			c.runWrites(burst[i:j])
		} else {
			c.runReads(burst[i:j])
		}
		i = j
	}
	return closeAfter
}

// runWrites serves a run of writes as one PutBatch, +OK per command.
func (c *conn) runWrites(run []*cmd) {
	c.keys, c.vals = c.keys[:0], c.vals[:0]
	for _, cm := range run {
		c.s.cmds[cm.op].Add(1)
		for i := 1; i < cm.n; i += 2 {
			c.keys = append(c.keys, cm.args[i])
			c.vals = append(c.vals, cm.args[i+1])
		}
	}
	if c.failed(run, c.db.PutBatch(c.keys, c.vals)) {
		return
	}
	for range run {
		c.w.Simple("OK")
	}
}

// runReads serves a run of reads as one GetBatchSparse: a bulk or null per
// GET, an array of them per MGET.
func (c *conn) runReads(run []*cmd) {
	c.keys = c.keys[:0]
	for _, cm := range run {
		c.s.cmds[cm.op].Add(1)
		c.keys = append(c.keys, cm.args[1:cm.n]...)
	}
	if c.failed(run, c.probe(c.keys)) {
		return
	}
	at := 0
	for _, cm := range run {
		if cm.op == opMGet {
			c.w.Array(cm.n - 1)
		}
		for end := at + cm.n - 1; at < end; at++ {
			if c.miss[at] {
				c.w.Null()
			} else {
				c.w.Bulk(c.get[at])
			}
		}
	}
}

// failed answers every command in a run with the batch's error, if any.
func (c *conn) failed(run []*cmd, err error) bool {
	if err != nil {
		for range run {
			c.writeDBErr(err)
		}
	}
	return err != nil
}

// probe reads keys in one GetBatchSparse into the connection's get and miss
// lanes. Growing get keeps the lanes it has, whose capacity is reused.
func (c *conn) probe(keys [][]byte) error {
	c.get = slices.Grow(c.get[:0], len(keys))[:len(keys)]
	c.miss = slices.Grow(c.miss[:0], len(keys))[:len(keys)]
	_, err := c.db.GetBatchSparse(keys, c.get, c.miss)
	return err
}

// executeOne serves a command that joins no batch. Reports whether the
// connection should close after this burst's flush.
func (c *conn) executeOne(cm *cmd) (closeAfter bool) {
	c.s.cmds[cm.op.counted()].Add(1)
	args := cm.args[:cm.n]
	switch cm.op {
	case opPing:
		switch cm.n {
		case 1:
			c.w.Simple("PONG")
		case 2:
			c.w.Bulk(args[1])
		default:
			c.wrongArity("ping")
		}
	case opEcho:
		if cm.n != 2 {
			c.wrongArity("echo")
			break
		}
		c.w.Bulk(args[1])
	case opSet:
		c.wrongArity("set")
	case opGet:
		c.wrongArity("get")
	case opMSet:
		c.wrongArity("mset")
	case opMGet:
		c.wrongArity("mget")
	case opDel:
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
		if err := c.probe(args[1:]); err != nil {
			c.writeDBErr(err)
			return false
		}
		removed := 0
		for i, key := range args[1:] {
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
	case opScan:
		c.scan(cm)
	case opInfo:
		c.infoReply()
	case opShutdown:
		c.w.Simple("OK")
		c.s.beginShutdown()
		closeAfter = true
	case opQuit:
		c.w.Simple("OK")
		closeAfter = true
	case opCommand:
		c.w.Array(0) // enough for redis-cli's handshake probe
	case opSelect:
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
		if !bytes.EqualFold(args[2], []byte("count")) {
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
