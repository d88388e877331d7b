package main

// One pass = one caller per stream issuing its ops closed-loop against an
// opened, loaded stack. The timed pass runs with no tracer and measures the
// host clock; the traced pass runs the same streams with the sink attached,
// in rounds, draining and analyzing the simulated-clock events between rounds.

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bandslim"
	"bandslim/internal/resp"
)

// caller is one closed-loop client: a goroutine on the library workloads, a
// TCP connection on the served one.
type caller struct {
	idx       int
	valueSize int
	key       [8]byte
	val, dst  []byte
	chk       []byte
	failed    int64
	userBytes int64   // value bytes moved either way by successful ops
	wallLat   []int64 // ns: sampled ops (library) or every command (served)
	simLat    []int64 // ns: every op's DB.Now() delta (single DB, traced pass)
	opSpans   []opSpan
}

func newCaller(idx, valueSize int) *caller { return &caller{idx: idx, valueSize: valueSize} }

// libStream issues ops through the library API. sl != nil records one span per
// op; wantSim stamps DB.Now() around every op.
func (c *caller) libStream(st *stack, ops []op, wantSim bool, sl *spanLog) {
	kv, db := st.kv, st.db
	for i := range ops {
		o := &ops[i]
		key := putKey(c.key[:], o.key)
		timed := o.sampled || sl != nil
		var t0 time.Time
		var s0 bandslim.SimTime
		if timed {
			t0 = time.Now()
		}
		if wantSim {
			s0 = db.Now()
		}
		var v []byte
		var err error
		if o.kind == opPut {
			c.val = fillValue(c.val, o.key, o.ver, int(o.size))
			err = kv.Put(key, c.val)
		} else {
			v, err = kv.GetInto(key, c.dst)
		}
		if wantSim {
			c.simLat = append(c.simLat, int64(db.Now()-s0))
		}
		if timed {
			d := time.Since(t0)
			if o.sampled {
				c.wallLat = append(c.wallLat, int64(d))
			}
			if sl != nil {
				s := int64(t0.Sub(sl.base))
				c.opSpans = append(c.opSpans, opSpan{start: s, end: s + int64(d), kind: o.kind})
			}
		}
		ok := false
		switch o.kind {
		case opPut:
			ok = err == nil
			c.userBytes += int64(o.size)
		case opGet:
			if err == nil {
				c.dst = v
				c.userBytes += int64(len(v))
				ok = checkValue(o.key, v, c.valueSize, &c.chk)
			}
		case opGetAbsent:
			ok = bandslim.IsNotFound(err)
		}
		if !ok {
			c.failed++
		}
	}
}

var respSet, respGet = []byte("SET"), []byte("GET")

// serveStream issues ops over one connection in bursts of pipelineDepth:
// encode the burst, flush once, read every reply. Each command's latency runs
// from the burst flush to its own reply.
func (c *caller) serveStream(rc *respConn, ops []op, sl *spanLog) error {
	for len(ops) > 0 {
		n := len(ops)
		if n > pipelineDepth {
			n = pipelineDepth
		}
		for i := range ops[:n] {
			o := &ops[i]
			key := putKey(c.key[:], o.key)
			if o.kind == opPut {
				c.val = fillValue(c.val, o.key, o.ver, int(o.size))
				rc.w.Command(respSet, key, c.val)
			} else {
				rc.w.Command(respGet, key)
			}
		}
		t0 := time.Now()
		if err := rc.w.Flush(); err != nil {
			return err
		}
		for i := range ops[:n] {
			o := &ops[i]
			rep, err := rc.r.ReadReply()
			if err != nil {
				return err
			}
			c.wallLat = append(c.wallLat, int64(time.Since(t0)))
			ok := false
			switch o.kind {
			case opPut:
				ok = rep.Kind == resp.KindSimple
				c.userBytes += int64(o.size)
			case opGet:
				if rep.Kind == resp.KindBulk && !rep.Null {
					c.userBytes += int64(len(rep.Str))
					ok = checkValue(o.key, rep.Str, c.valueSize, &c.chk)
				}
			case opGetAbsent:
				ok = rep.Kind == resp.KindBulk && rep.Null
			}
			if !ok {
				c.failed++
			}
		}
		if sl != nil {
			s := int64(t0.Sub(sl.base))
			c.opSpans = append(c.opSpans, opSpan{start: s, end: sl.now(), kind: opBurst})
		}
		ops = ops[n:]
	}
	return nil
}

// passResult is everything one pass measured.
type passResult struct {
	ops, failed int64
	userBytes   int64
	wall        time.Duration // whole phase (timed) or sum of rounds (traced)
	cpu         time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	liveHeap    uint64
	wallLat     []int64 // sorted
	simLat      []int64 // sorted; traced pass only
	simElapsed  bandslim.SimDuration
	before      bandslim.Stats // at phase start (after load)
	after       bandslim.Stats
	srvBefore   bandslim.ServerStats
	srvAfter    bandslim.ServerStats
	gauges      map[string]float64 // exposition gauges at phase end
	promDigest  uint64
	blame       *blame
}

func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundOps is how many ops each caller issues between two drains of the sink.
const roundOps = 8192

// runPass drives the instance's measured streams against st. A nil sk makes it
// the timed pass: one uninterrupted round, host counters read immediately
// around it. With a sink it is the traced pass.
func runPass(w *workload, in *instance, st *stack, sk *sink, sl *spanLog, parent int64) (*passResult, error) {
	res := &passResult{ops: int64(in.ops())}
	cs := make([]*caller, len(in.callers))
	for i, ops := range in.callers {
		c := newCaller(i, w.valueSize)
		c.wallLat = make([]int64, 0, len(ops)/sampleEvery*2+64)
		if w.stack == stackServed {
			c.wallLat = make([]int64, 0, len(ops)) // every command is stamped
		}
		if sk != nil {
			c.opSpans = make([]opSpan, 0, len(ops))
			if st.db != nil {
				c.simLat = make([]int64, 0, len(ops))
			}
		}
		cs[i] = c
	}
	round := func(from, to int) error {
		errs := make([]error, len(cs))
		run := func(i int) {
			ops := in.callers[i]
			lo, hi := from, to
			if lo > len(ops) {
				lo = len(ops)
			}
			if hi > len(ops) {
				hi = len(ops)
			}
			var spanTo *spanLog
			if sk != nil {
				spanTo = sl
			}
			if w.stack == stackServed {
				errs[i] = cs[i].serveStream(st.conns[i], ops[lo:hi], spanTo)
			} else {
				cs[i].libStream(st, ops[lo:hi], sk != nil && st.db != nil, spanTo)
			}
		}
		if len(cs) == 1 {
			run(0)
		} else {
			var wg sync.WaitGroup
			for i := range cs {
				wg.Add(1)
				go func(i int) { defer wg.Done(); run(i) }(i)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	longest := 0
	for _, ops := range in.callers {
		if len(ops) > longest {
			longest = len(ops)
		}
	}

	res.before, res.srvBefore = st.kv.Stats(), st.serverStats()
	sim0 := st.kv.Now()
	if sk == nil {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0, t0 := rusage(), time.Now()
		err := round(0, longest)
		res.wall, res.cpu = time.Since(t0), rusage()-cpu0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		res.gcCycles, res.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		res.liveHeap = m1.HeapAlloc
	} else {
		res.blame = newBlame()
		var events []bandslim.TraceEvent
		sk.drain(nil) // set-up's events are not part of the phase
		for from := 0; from < longest; from += roundOps {
			t0 := time.Now()
			if err := round(from, from+roundOps); err != nil {
				return nil, err
			}
			res.wall += time.Since(t0)
			events = sk.drain(events)
			res.blame.add(events)
		}
	}
	res.simElapsed = st.kv.Now().Sub(sim0)
	res.after, res.srvAfter = st.kv.Stats(), st.serverStats()

	for _, c := range cs {
		res.failed += c.failed
		res.userBytes += c.userBytes
		res.wallLat = append(res.wallLat, c.wallLat...)
		res.simLat = append(res.simLat, c.simLat...)
		if sk != nil {
			sl.addOps(parent, c.idx, c.opSpans)
		}
	}
	if sk != nil && st.db == nil {
		res.simLat = res.blame.all()
	}
	sortInt64(res.wallLat)
	sortInt64(res.simLat)

	expo, err := st.exposition()
	if err != nil {
		return nil, err
	}
	res.gauges = parseGauges(expo)
	h := fnv.New64a()
	io.WriteString(h, expo)
	res.promDigest = h.Sum64()
	return res, nil
}

func (st *stack) exposition() (string, error) {
	var expo strings.Builder
	if err := st.kv.WritePrometheus(&expo); err != nil {
		return "", fmt.Errorf("exposition: %w", err)
	}
	return expo.String(), nil
}

// gauges reads the stack's current exposition gauges; empty on error.
func (st *stack) gauges() map[string]float64 {
	expo, _ := st.exposition()
	return parseGauges(expo)
}

// parseGauges extracts the unlabeled samples of a Prometheus text exposition,
// keyed by name without the bandslim_ prefix.
func parseGauges(expo string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(expo, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "bandslim_")] = f
		}
	}
	return out
}
