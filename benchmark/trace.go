package main

// Tracing owned by the benchmark: a lossless sink for the stack's simulated-
// clock events (Config.Tracer), the stage-blame aggregation over them, and the
// benchmark's own wall-clock spans around every call it makes. Tracing inside
// the program on the host clock is a later change; this file only observes at
// the boundaries the program already offers.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"bandslim"
	"bandslim/internal/spans"
)

// sink is a bandslim.Tracer that keeps every event. A ring recorder would
// evict under a million-op pass; the sink instead is drained at op boundaries
// (no command in flight), and each drained chunk is numbered from 1 per
// shard, so the analyzer sees every chunk as a complete stream and its
// truncation counter only fires on a real loss.
type sink struct {
	shard [shards]struct {
		mu  sync.Mutex
		seq uint64
		evs []bandslim.TraceEvent
	}
}

func (s *sink) Emit(ev bandslim.TraceEvent) {
	sh := &s.shard[ev.Shard]
	sh.mu.Lock()
	sh.seq++
	ev.Seq = sh.seq
	sh.evs = append(sh.evs, ev)
	sh.mu.Unlock()
}

// drain returns everything emitted since the last drain and restarts the
// numbering. Call only while the stack is quiescent.
func (s *sink) drain(into []bandslim.TraceEvent) []bandslim.TraceEvent {
	into = into[:0]
	for i := range s.shard {
		sh := &s.shard[i]
		sh.mu.Lock()
		into = append(into, sh.evs...)
		sh.evs, sh.seq = sh.evs[:0], 0
		sh.mu.Unlock()
	}
	return into
}

// blame accumulates the analyzer's per-op reconstruction over all chunks of a
// traced pass.
type blame struct {
	stage      [spans.NumStages]int64 // summed simulated ns per stage
	e2e        int64                  // summed simulated op latency
	lat        map[string][]int64     // per op name: every op's simulated latency
	unclaimed  int64
	incomplete int64
	truncated  int64
	residual   int64
}

func newBlame() *blame { return &blame{lat: map[string][]int64{}} }

func (b *blame) add(events []bandslim.TraceEvent) {
	if len(events) == 0 {
		return
	}
	rep := bandslim.AnalyzeTrace(events)
	for i := range rep.Ops {
		o := &rep.Ops[i]
		for s, d := range o.Stages {
			b.stage[s] += int64(d)
		}
		b.e2e += int64(o.E2E())
		b.residual += int64(o.Residual())
		b.lat[o.Name] = append(b.lat[o.Name], int64(o.E2E()))
	}
	b.unclaimed += int64(rep.Unclaimed)
	b.incomplete += int64(rep.Incomplete)
	b.truncated += rep.TruncatedEvents
}

// all returns every reconstructed op's simulated latency, unsorted.
func (b *blame) all() []int64 {
	var out []int64
	for _, l := range b.lat {
		out = append(out, l...)
	}
	return out
}

// span is one wall-clock interval the benchmark recorded around its own calls.
type span struct {
	id, parent int64
	name       string
	start, end int64 // ns since the log's base
	calls      int64 // calls the span covers (rungs), 0 when it is one call
	est        bool  // duration derived from child counts x unit costs, not measured
}

// opSpan is the compact per-op form; expanded to a span when written.
type opSpan struct {
	start, end int64
	kind       uint8
}

type opBatch struct {
	parent int64
	caller int
	ops    []opSpan
}

// spanLog keeps every span in memory and writes them out once, at exit.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	next  int64
	spans []span
	ops   []opBatch
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// begin opens a span covering calls calls (0: not a rung) and returns its id;
// end closes it.
func (l *spanLog) begin(name string, parent, calls int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{id: l.next, parent: parent, name: name, start: l.now(), end: -1, calls: calls})
	return l.next
}

func (l *spanLog) end(id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].id == id {
			l.spans[i].end = l.now()
			return
		}
	}
}

// child records an already-measured interval of dur ns covering calls calls,
// anchored at its parent's start (seam decorators accumulate time, they do
// not keep one interval per call).
func (l *spanLog) child(name string, parent int64, dur time.Duration, calls int64, est bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var start int64
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].id == parent {
			start = l.spans[i].start
			break
		}
	}
	l.next++
	l.spans = append(l.spans, span{id: l.next, parent: parent, name: name, start: start, end: start + int64(dur), calls: calls, est: est})
}

func (l *spanLog) addOps(parent int64, caller int, ops []opSpan) {
	l.mu.Lock()
	l.ops = append(l.ops, opBatch{parent: parent, caller: caller, ops: ops})
	l.mu.Unlock()
}

var opSpanNames = [...]string{opPut: "op.put", opGet: "op.get", opGetAbsent: "op.get_absent", opBurst: "op.burst"}

// opBurst marks a span around one pipelined RESP burst (flush to last reply).
const opBurst = opGetAbsent + 1

// write emits one JSON object per span: the coarse spans in id order, then
// every op span with a fresh id under its pass.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].id < l.spans[j].id })
	for _, s := range l.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d`, s.id, s.parent, s.name, s.start, s.end)
		if s.calls > 0 {
			fmt.Fprintf(bw, `,"calls":%d`, s.calls)
		}
		if s.est {
			bw.WriteString(`,"_est":true`)
		}
		bw.WriteString("}\n")
	}
	id := l.next
	var line []byte
	for _, b := range l.ops {
		for i, o := range b.ops {
			id++
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, id, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, b.parent, 10)
			line = append(line, `,"name":"`...)
			line = append(line, opSpanNames[o.kind]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, o.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, o.end, 10)
			line = append(line, `,"caller":`...)
			line = strconv.AppendInt(line, int64(b.caller), 10)
			line = append(line, `,"op":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, "}\n"...)
			bw.Write(line)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
