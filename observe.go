// Observability surface: the command-level trace subsystem behind
// Config.Tracer, and the simulated-time metrics sampler behind
// Config.MetricsInterval with its Prometheus and CSV exporters.
//
// The simulator's components — driver, PCIe link, NVMe rings, DMA engine,
// NAND page buffer, flash array — each emit typed events stamped with
// simulated time when a Tracer is configured. With Config.Tracer nil (the
// default) every emission site is a single pointer nil check, so tracing has
// no measurable cost when disabled.
//
// Quick start:
//
//	rec := bandslim.NewRecorder(1 << 20)
//	cfg := bandslim.DefaultConfig()
//	cfg.Tracer = rec
//	db, _ := bandslim.Open(cfg)
//	// ... workload ...
//	f, _ := os.Create("trace.json")
//	bandslim.WriteChromeTrace(f, rec.TraceEvents())
//
// The resulting file loads in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: each shard renders as a process, each subsystem as a
// thread, and one over-threshold PUT reads top-to-bottom as command fetch →
// DMA → memcpy → NAND program.
package bandslim

import (
	"io"

	"bandslim/internal/spans"
	"bandslim/internal/timeseries"
	"bandslim/internal/trace"
)

// Tracer receives command-level events on whichever goroutine is running the
// operation that emits them. A Tracer shared across a DB's shards (each
// wrapped to stamp its shard id) must be safe for concurrent use.
type Tracer = trace.Tracer

// TraceEvent is one traced occurrence: a span (End > Start) such as a DMA
// transfer or NAND program, or an instant (End == Start) such as a doorbell
// write. Times are simulated nanoseconds.
type TraceEvent = trace.Event

// Recorder is a mutex-protected ring buffer Tracer: when full it evicts the
// oldest events and counts them as dropped.
type Recorder struct {
	rec *trace.Recorder
}

// NewRecorder returns a ring-buffered Tracer keeping the most recent
// capacity events (at least 1).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{rec: trace.NewRecorder(capacity)}
}

// Emit records one event; it implements Tracer.
func (r *Recorder) Emit(ev TraceEvent) { r.rec.Emit(ev) }

// TraceEvents returns the buffered events in emission order.
func (r *Recorder) TraceEvents() []TraceEvent { return r.rec.Events() }

// Len reports how many events are buffered.
func (r *Recorder) Len() int { return r.rec.Len() }

// Dropped reports how many events the ring evicted.
func (r *Recorder) Dropped() int64 { return r.rec.Dropped() }

// Reset clears the buffer and the dropped count.
func (r *Recorder) Reset() { r.rec.Reset() }

// MergeTraces combines per-shard event streams into one, ordered by
// simulated start time with (shard, seq) breaking ties; the result is
// independent of stream order.
func MergeTraces(streams ...[]TraceEvent) []TraceEvent {
	return trace.Merge(streams...)
}

// WriteTraceJSONL writes one JSON object per event, one per line, with a
// fixed key order and integer nanosecond timestamps. A deterministic run
// produces byte-identical output.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return trace.WriteJSONL(w, events)
}

// WriteChromeTrace writes the events as Chrome trace_event JSON, loadable in
// Perfetto and chrome://tracing. Shards become processes; subsystems become
// threads ordered host→device.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// ReadTraceJSONL parses a stream written by WriteTraceJSONL back into
// events, in file order — the input side of offline analysis
// (bandslim-cli analyze).
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) {
	return trace.ReadJSONL(r)
}

// BlameReport is the result of latency attribution over a trace: per-op
// stage breakdowns (each op's stages are non-negative and sum exactly to its
// end-to-end latency), plus the stream-health tallies analysis must not hide
// (unclaimed commands, in-flight commands, proven event loss).
type BlameReport = spans.Report

// BlameCriticalPath digests one op kind's p99 tail: the stage that absorbs
// the largest share of the slowest ops' latency.
type BlameCriticalPath = spans.CriticalPath

// AnalyzeTrace reconstructs per-operation latency attribution from an event
// stream (a recorder's buffer, a DB's merged shard streams, or a re-read JSONL
// file). Pure and deterministic: the same events yield the same report.
func AnalyzeTrace(events []TraceEvent) *BlameReport {
	return spans.Analyze(events)
}

// BlameCriticalPaths digests each op kind's p99 tail.
func BlameCriticalPaths(r *BlameReport) []BlameCriticalPath {
	return spans.CriticalPaths(r)
}

// WriteBlameCSV writes the per-op-kind × per-stage breakdown as a CSV table.
// Byte-deterministic for identical runs (TestDeterminism diffs it).
func WriteBlameCSV(w io.Writer, r *BlameReport) error { return spans.WriteCSV(w, r) }

// WriteBlameBreakdown writes the human-readable attribution report: stage
// tables per op kind, the critical-path digest, and the topK slowest ops.
func WriteBlameBreakdown(w io.Writer, r *BlameReport, topK int) error {
	return spans.WriteBreakdown(w, r, topK)
}

// rings is the set of distinct ring recorders behind a DB: none, the
// one *Recorder Config.Tracer names, or one per shard (TraceCapacity). Health
// and attribution go through it so a recorder shared by every shard is
// counted once.
type rings []*Recorder

// ringsOf returns the ring behind t, if t is a *Recorder.
func ringsOf(t Tracer) rings {
	if rec, ok := t.(*Recorder); ok && rec != nil {
		return rings{rec}
	}
	return nil
}

// health sums the rings' buffered and dropped event counts.
func (r rings) health() TraceStats {
	var h TraceStats
	for _, rec := range r {
		h.Buffered += int64(rec.Len())
		h.Dropped += rec.Dropped()
	}
	return h
}

// events returns the buffered events — one ring's in emission order, several
// rings' merged by simulated start time — or nil when there is no ring.
func (r rings) events() []TraceEvent {
	switch len(r) {
	case 0:
		return nil
	case 1:
		return r[0].TraceEvents()
	}
	streams := make([][]TraceEvent, len(r))
	for i, rec := range r {
		streams[i] = rec.TraceEvents()
	}
	return MergeTraces(streams...)
}

// blame analyzes the buffered events, or returns nil when there is no ring.
func (r rings) blame() *BlameReport {
	if len(r) == 0 {
		return nil
	}
	return spans.Analyze(r.events())
}

// Blame analyzes the buffered trace events and returns the latency
// attribution report, or nil when no ring recorder is attached (neither
// TraceCapacity nor a *Recorder Config.Tracer). Per-shard streams are
// reconstructed independently, so the result does not depend on shard
// interleaving. The report covers whatever the rings currently hold; check
// Lossy() before trusting per-op numbers near the buffer's start.
func (db *DB) Blame() *BlameReport { return db.rings.blame() }

// MetricSeries is a sampled sequence of metric snapshots on a fixed
// simulated-time grid: sample i sits at t = i × Config.MetricsInterval,
// starting from a zero-state sample at t = 0. Counters are cumulative;
// WriteSeriesCSV derives their per-second rates.
type MetricSeries = timeseries.Series

// Series returns the simulated-time metric series recorded so far, the
// shards' series merged onto one time axis: counters and sum-gauges add,
// max-gauges take the max, mean-gauges average, and latency histograms merge
// bucket-exactly. It is empty (Len() == 0) unless Config.MetricsInterval was
// set at open. The series remains readable after Close and includes the final
// flush. Its samples may share slices with the sampler's history: treat them
// as read-only.
func (db *DB) Series() MetricSeries {
	if db.shards[0].sampler == nil {
		return MetricSeries{}
	}
	parts := make([]timeseries.Series, len(db.shards))
	db.peek(func(i int, sh *dbShard) { parts[i] = sh.sampler.Series() })
	if len(parts) == 1 {
		// The merge of one series is the identity: every fold, the weighted
		// mean included, passes a lone reading through.
		return parts[0]
	}
	return timeseries.MergeSeries(parts...)
}

// WritePrometheus writes the current metric state across the shards — every
// counter, gauge, and full-bucket latency histogram; counters sum, gauges
// aggregate per their mode, histograms merge bucket-exactly — in the
// Prometheus text exposition format. It works with or without the sampler, is
// safe to call while the DB is serving (the live /metrics scrape path),
// remains usable after Close, and is deterministic: same-seed runs produce
// byte-identical output.
func (db *DB) WritePrometheus(w io.Writer) error {
	snaps := make([]timeseries.Snapshot, len(db.shards))
	db.peek(func(i int, sh *dbShard) { snaps[i] = snapshot(sh.st, db.rows) })
	return writeExposition(w, db.descs, timeseries.MergeSnapshots(db.descs, snaps), db.rings)
}

// writeExposition renders one metric snapshot, then — only when a ring
// recorder is attached, so untraced runs keep byte-identical exposition (the
// golden-smoke guarantee) — the trace-ring health and stage-blame families as
// a separate section.
func writeExposition(w io.Writer, descs []timeseries.Desc, snap timeseries.Snapshot, r rings) error {
	if err := timeseries.WritePrometheus(w, "bandslim", descs, snap, histHelp); err != nil {
		return err
	}
	rep := r.blame()
	if rep == nil {
		return nil
	}
	descs, snap = blameSection(r.health(), rep)
	return timeseries.WritePrometheus(w, "bandslim", descs, snap, blameHistHelp)
}

// WriteServerPrometheus writes a network front-end's counters in the
// Prometheus text exposition format. The server_* families are disjoint from
// the simulation families, so a serving process can concatenate this after
// DB.WritePrometheus to form one valid exposition; embedded runs that never
// call it keep byte-identical exporter output.
func WriteServerPrometheus(w io.Writer, s ServerStats) error {
	st := Stats{Server: s}
	values := make([]float64, len(serverRows))
	for i, r := range serverRows {
		values[i] = float64(*r.field(&st))
	}
	return timeseries.WritePrometheus(w, "bandslim", serverDescs, timeseries.Snapshot{Values: values}, nil)
}

// WriteSeriesCSV writes a metric series as one CSV table: a t_us time axis,
// every scalar column, per-counter _per_sec rate columns, and
// count/mean/p50/p99 columns per latency distribution — the same shape the
// results/*.csv figure pipeline consumes. Deterministic for same-seed runs.
func WriteSeriesCSV(w io.Writer, s MetricSeries) error {
	return timeseries.WriteCSV(w, s)
}
