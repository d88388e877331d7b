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

// cmd is one command of a burst. Its arguments are views into the
// connection's read buffer, which holds still until the burst is answered.
type cmd struct {
	op   opcode
	args [][]byte // including the command name; empty for an empty inline line
	fail error    // protocol error: reported in stream order, then the connection closes
}

// parsed is the burst entry for one parse result.
func parsed(args [][]byte, err error) cmd {
	cm := cmd{args: args, fail: err}
	if len(args) > 0 {
		cm.op = classify(args[0])
	}
	return cm
}

// conn is one client connection, served by one goroutine: read a burst,
// execute it, answer it with one write.
type conn struct {
	s  *Server
	db *bandslim.DB
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer

	// Scratch reused across bursts.
	burst []cmd
	keys  [][]byte // key references into the burst's arguments
	vals  [][]byte // value references (SET/MSET)
	get   [][]byte // GetBatchSparse destination lanes (owned, reused)
	miss  []bool
	info  []byte // INFO reply scratch

	in, out int64 // bytes read and written as last added to the server's counters
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{s: s, db: s.cfg.DB, nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
}

// serve runs the connection to completion.
func (c *conn) serve() {
	for c.serveBurst() {
	}
	c.s.bytesIn.Add(c.r.BytesRead() - c.in) // a command cut short by the close
	c.nc.Close()
	c.s.finish(c)
}

// serveBurst reads one burst — the next command, blocking, then every
// command already wholly buffered behind it, up to the window — executes it
// with batch coalescing and flushes the replies once, so pipelined clients
// ride the DB batch path without asking. The socket is not read while the
// burst executes: that is the backpressure path (the kernel buffer fills and
// TCP flow control pushes back on the client). Reports whether the
// connection stays open.
func (c *conn) serveBurst() bool {
	args, err := c.r.ReadCommand()
	t0 := time.Now()
	if err != nil && !resp.IsProtocol(err) {
		return false // EOF, a closed socket or Shutdown's read deadline
	}
	c.burst = append(c.burst[:0], parsed(args, err))
	for err == nil && len(c.burst) < c.s.window {
		var ok bool
		if args, ok, err = c.r.ReadBufferedCommand(); !ok && err == nil {
			break
		}
		c.burst = append(c.burst, parsed(args, err))
	}
	if len(c.burst) == c.s.window && c.r.Buffered() > 0 {
		c.s.stalls.Add(1)
	}
	if in := c.r.BytesRead(); in != c.in {
		c.s.bytesIn.Add(in - c.in)
		c.in = in
	}
	served, closeAfter := c.execute(c.burst)
	err = c.w.Flush()
	if out := c.w.BytesWritten(); out != c.out {
		c.s.bytesOut.Add(out - c.out)
		c.out = out
	}
	c.s.observeBurst(c.burst[:served], time.Since(t0))
	return err == nil && !closeAfter
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
	n := len(cm.args)
	switch {
	case cm.fail != nil:
		return alone
	case cm.op == opSet && n == 3, cm.op == opMSet && n >= 3 && n%2 == 1:
		return writes
	case cm.op == opGet && n == 2, cm.op == opMGet && n >= 2:
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
	for i := 1; i < len(cm.args); i += step {
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
// alone. It stops at the first command that closes the connection (QUIT,
// SHUTDOWN, protocol error), leaving the rest of the burst unserved, and
// reports how many commands it served and whether to close after the flush.
func (c *conn) execute(burst []cmd) (served int, closeAfter bool) {
	for i := 0; i < len(burst); {
		cm := &burst[i]
		if cm.fail != nil {
			c.s.errs.Add(1)
			c.w.Error("ERR " + cm.fail.Error())
			return i, true
		}
		if len(cm.args) == 0 { // empty inline line: ignored, like redis
			i++
			continue
		}
		b := cm.batch()
		if b == alone {
			i++
			if c.executeOne(cm) {
				return i, true
			}
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
	return len(burst), false
}

// runWrites serves a run of writes as one PutBatch, +OK per command.
func (c *conn) runWrites(run []cmd) {
	c.keys, c.vals = c.keys[:0], c.vals[:0]
	for i := range run {
		cm := &run[i]
		c.s.cmds[cm.op].Add(1)
		for a := 1; a < len(cm.args); a += 2 {
			c.keys = append(c.keys, cm.args[a])
			c.vals = append(c.vals, cm.args[a+1])
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
func (c *conn) runReads(run []cmd) {
	c.keys = c.keys[:0]
	for i := range run {
		c.s.cmds[run[i].op].Add(1)
		c.keys = append(c.keys, run[i].args[1:]...)
	}
	if c.failed(run, c.probe(c.keys)) {
		return
	}
	at := 0
	for i := range run {
		cm := &run[i]
		if cm.op == opMGet {
			c.w.Array(len(cm.args) - 1)
		}
		for end := at + len(cm.args) - 1; at < end; at++ {
			if c.miss[at] {
				c.w.Null()
			} else {
				c.w.Bulk(c.get[at])
			}
		}
	}
}

// failed answers every command in a run with the batch's error, if any.
func (c *conn) failed(run []cmd, err error) bool {
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

// executeOne serves a command that joins no batch. Reports whether it
// closes the connection.
func (c *conn) executeOne(cm *cmd) (closeAfter bool) {
	c.s.cmds[cm.op.counted()].Add(1)
	args := cm.args
	switch cm.op {
	case opPing:
		switch len(args) {
		case 1:
			c.w.Simple("PONG")
		case 2:
			c.w.Bulk(args[1])
		default:
			c.wrongArity("ping")
		}
	case opEcho:
		if len(args) != 2 {
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
		if len(args) < 2 {
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
	args := cm.args
	if len(args) != 2 && len(args) != 4 {
		c.wrongArity("scan")
		return
	}
	count := 10
	if len(args) == 4 {
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
	// The count is the client's: cap the preallocation, append grows past it.
	keys := make([][]byte, 0, min(count, 1024))
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
