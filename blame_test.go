package bandslim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bandslim/internal/spans"
)

// blameWorkload drives a mixed workload through a sharded DB: puts across the
// transfer-method spectrum, batch reads (dense and sparse with misses),
// deletes, and a flush, so the trace holds every command shape the analyzer
// must reconstruct.
func blameWorkload(t *testing.T, s *DB) {
	t.Helper()
	sizes := []int{16, 512, 2048, 4096 + 32, 8192}
	nkeys := 48
	keys := make([][]byte, nkeys)
	for i := 0; i < nkeys; i++ {
		keys[i] = []byte(fmt.Sprintf("blame%03d", i))
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.GetBatch(keys, nil); err != nil {
		t.Fatal(err)
	}
	// Sparse batch with guaranteed misses: every third key never written.
	sparse := make([][]byte, 12)
	for i := range sparse {
		if i%3 == 2 {
			sparse[i] = []byte(fmt.Sprintf("miss%03d", i))
		} else {
			sparse[i] = keys[i]
		}
	}
	miss := make([]bool, len(sparse))
	if _, err := s.GetBatchSparse(sparse, nil, miss); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func openBlameSharded(t *testing.T, depth int) *DB {
	t.Helper()
	cfg := smallConfig()
	if depth > 1 {
		cfg.Submission = SubmissionConfig{
			QueueDepth:       depth,
			DoorbellBatch:    8,
			CoalesceInterval: SimMicrosecond,
		}
	}
	s, err := OpenSharded(ShardedConfig{
		Shards:        2,
		PerShard:      cfg,
		TraceCapacity: 1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// The acceptance invariant: at queue depths 1 (synchronous), 8, and 32,
// every reconstructed op has non-negative stages summing exactly to its
// end-to-end latency — residual zero, deterministically.
func TestBlameResidualZeroAcrossDepths(t *testing.T) {
	for _, depth := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			s := openBlameSharded(t, depth)
			blameWorkload(t, s)
			if d := s.Stats().Trace.Dropped; d != 0 {
				t.Fatalf("ring dropped %d events; grow TraceCapacity", d)
			}
			rep := s.Blame()
			if rep == nil {
				t.Fatal("Blame() = nil with TraceCapacity set")
			}
			if rep.Lossy() || rep.DuplicateEvents != 0 {
				t.Fatalf("clean capture reported lossy: truncated=%d dup=%d",
					rep.TruncatedEvents, rep.DuplicateEvents)
			}
			if len(rep.Ops) == 0 {
				t.Fatal("no ops reconstructed")
			}
			names := map[string]int{}
			for i := range rep.Ops {
				op := &rep.Ops[i]
				names[op.Name]++
				if op.Residual() != 0 {
					t.Fatalf("op %s shard=%d seq=%d: residual %v (e2e %v, stages %v)",
						op.Name, op.Shard, op.Seq, op.Residual(), op.E2E(), op.Stages)
				}
				for st, d := range op.Stages {
					if d < 0 {
						t.Fatalf("op %s shard=%d seq=%d: stage %v negative: %v",
							op.Name, op.Shard, op.Seq, spans.Stage(st), d)
					}
				}
				if op.E2E() < 0 {
					t.Fatalf("op %s: negative e2e %v", op.Name, op.E2E())
				}
			}
			for _, want := range []string{"put", "get", "delete"} {
				if names[want] == 0 {
					t.Errorf("no %s ops reconstructed (got %v)", want, names)
				}
			}
			if depth > 1 {
				// A deep queue must show submission-window residency and
				// coalescing somewhere, or the boundary events are broken.
				var window, coalesce SimDuration
				for i := range rep.Ops {
					window += rep.Ops[i].Stages[1]   // window_wait
					coalesce += rep.Ops[i].Stages[6] // coalesce
				}
				// At depth 32 the whole per-shard batch fits the window, so
				// pushes and the flush share one host timestamp and window
				// residency is legitimately zero; only the saturated depth-8
				// queue must show it.
				if depth == 8 && window == 0 {
					t.Error("saturated-queue run attributed zero window_wait time")
				}
				if coalesce == 0 {
					t.Error("depth>1 coalescing run attributed zero coalesce time")
				}
			}
		})
	}
}

// Two identical runs must render byte-identical CSV and breakdown output —
// the property `make determinism` checks on the CLI's analyze output.
func TestBlameOutputsDeterministic(t *testing.T) {
	capture := func() ([]byte, []byte) {
		s := openBlameSharded(t, 8)
		blameWorkload(t, s)
		rep := s.Blame()
		var csv, brk bytes.Buffer
		if err := WriteBlameCSV(&csv, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteBlameBreakdown(&brk, rep, 5); err != nil {
			t.Fatal(err)
		}
		return csv.Bytes(), brk.Bytes()
	}
	csv1, brk1 := capture()
	csv2, brk2 := capture()
	if !bytes.Equal(csv1, csv2) {
		t.Error("identical runs produced different blame CSV")
	}
	if !bytes.Equal(brk1, brk2) {
		t.Error("identical runs produced different blame breakdown")
	}
	if !strings.HasPrefix(string(csv1), "op,stage,count,total_ns,share,mean_ns,p50_ns,p99_ns,max_ns\n") {
		t.Errorf("CSV header mismatch: %q", strings.SplitN(string(csv1), "\n", 2)[0])
	}
}

// A trace written to JSONL and read back must analyze to the identical
// report — the offline bandslim-cli analyze path.
func TestBlameJSONLRoundTrip(t *testing.T) {
	s := openBlameSharded(t, 8)
	blameWorkload(t, s)
	events := s.TraceEvents()
	direct := AnalyzeTrace(events)

	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip: %d events in, %d out", len(events), len(back))
	}
	viaFile := AnalyzeTrace(back)
	if !reflect.DeepEqual(direct, viaFile) {
		t.Fatal("JSONL round trip changed the attribution report")
	}
}

// A ring too small for the workload evicts events; the analyzer must flag
// the loss loudly and still uphold the residual-zero invariant on whatever
// it can reconstruct.
func TestBlameLossyRingDegradesGracefully(t *testing.T) {
	rec := NewRecorder(256)
	db := openSmall(t, func(c *Config) { c.Tracer = rec })
	defer db.Close()
	for i := 0; i < 128; i++ {
		key := []byte(fmt.Sprintf("lossy%03d", i))
		if err := db.Put(key, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Dropped() == 0 {
		t.Fatal("workload did not overflow the 256-event ring")
	}
	rep := db.Blame()
	if rep == nil {
		t.Fatal("Blame() = nil with recorder attached")
	}
	if !rep.Lossy() {
		t.Fatal("overflowed ring not reported lossy")
	}
	if len(rep.Ops) == 0 {
		t.Fatal("lossy stream reconstructed no ops at all")
	}
	for i := range rep.Ops {
		op := &rep.Ops[i]
		if op.Residual() != 0 {
			t.Fatalf("lossy op %s seq=%d: residual %v", op.Name, op.Seq, op.Residual())
		}
		for st, d := range op.Stages {
			if d < 0 {
				t.Fatalf("lossy op %s seq=%d: stage %v negative", op.Name, op.Seq, spans.Stage(st))
			}
		}
	}
}

// A Recorder shared by several shards numbers each shard's events on their
// own, so a ring that dropped nothing yields a lossless blame — the same
// report per-shard rings (TraceCapacity) give.
func TestSharedRecorderBlameIsLossless(t *testing.T) {
	var reports []*BlameReport
	for _, shared := range []bool{true, false} {
		cfg := ShardedConfig{Shards: 2, PerShard: smallConfig()}
		if shared {
			cfg.PerShard.Tracer = NewRecorder(1 << 18)
		} else {
			cfg.TraceCapacity = 1 << 18
		}
		db, err := OpenSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("sr%03d", i)), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		rep := db.Blame()
		if dropped := db.Stats().Trace.Dropped; dropped != 0 || rep.TruncatedEvents != 0 || rep.Lossy() {
			t.Fatalf("shared=%v: dropped %d, blame truncated %d lossy %v; want no loss", shared, dropped, rep.TruncatedEvents, rep.Lossy())
		}
		reports = append(reports, rep)
		db.Close()
	}
	if len(reports[0].Ops) != 200 || len(reports[1].Ops) != 200 {
		t.Fatalf("shared ring blamed %d ops, per-shard rings %d; want 200 each", len(reports[0].Ops), len(reports[1].Ops))
	}
}

// Transient transfer faults force synchronous retries; the attribution must
// count them and keep the invariant across multi-attempt ops.
func TestBlameCountsRetries(t *testing.T) {
	rec := NewRecorder(1 << 16)
	db := openSmall(t, func(c *Config) {
		c.Tracer = rec
		plan, err := ParseFaultPlan("seed 7\ndma.in every=5 transient")
		if err != nil {
			t.Fatal(err)
		}
		c.Faults = plan
	})
	defer db.Close()
	for i := 0; i < 48; i++ {
		if err := db.Put([]byte(fmt.Sprintf("rty%03d", i)), bytes.Repeat([]byte{1}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	rep := db.Blame()
	retries, multi := 0, 0
	for i := range rep.Ops {
		op := &rep.Ops[i]
		retries += op.Retries
		if op.Commands > 1 {
			multi++
		}
		if op.Residual() != 0 {
			t.Fatalf("faulted op %s seq=%d: residual %v", op.Name, op.Seq, op.Residual())
		}
	}
	if retries == 0 {
		t.Error("every-5th transient fault produced zero attributed retries")
	}
	if multi == 0 {
		t.Error("no op claimed more than one command despite retried attempts")
	}
}

// Merging a stream with itself duplicates every (Shard, Seq); the analyzer
// must skip the copies and report them, not double-count ops.
func TestMergeTracesDuplicateShardSeq(t *testing.T) {
	s := openBlameSharded(t, 1)
	blameWorkload(t, s)
	events := s.TraceEvents()
	clean := AnalyzeTrace(events)

	doubled := MergeTraces(events, events)
	if len(doubled) != 2*len(events) {
		t.Fatalf("merge of stream with itself: %d events, want %d", len(doubled), 2*len(events))
	}
	rep := AnalyzeTrace(doubled)
	if rep.DuplicateEvents != int64(len(events)) {
		t.Errorf("DuplicateEvents = %d, want %d", rep.DuplicateEvents, len(events))
	}
	if len(rep.Ops) != len(clean.Ops) {
		t.Errorf("duplicated stream reconstructed %d ops, clean stream %d", len(rep.Ops), len(clean.Ops))
	}
	for i := range rep.Ops {
		if rep.Ops[i].Residual() != 0 {
			t.Fatalf("op %d residual nonzero after dedup", i)
		}
	}
}

// Trace-ring health must surface through Stats, and the blame
// families must appear in the exposition only when a recorder is attached.
func TestTraceStatsAndPrometheusSurface(t *testing.T) {
	s := openBlameSharded(t, 8)
	blameWorkload(t, s)
	st := s.Stats()
	if st.Trace.Buffered == 0 {
		t.Error("Stats().Trace.Buffered = 0 on a traced run")
	}
	if st.Trace.Dropped != 0 {
		t.Errorf("Stats().Trace.Dropped = %d, want 0", st.Trace.Dropped)
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bandslim_trace_dropped_total",
		"bandslim_blame_ops_total",
		"bandslim_blame_e2e_ns",
		`bandslim_blame_nand_ns_bucket{op="put",`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("traced exposition missing %s", want)
		}
	}

	// Untraced DB: no blame families at all (the golden-smoke guarantee).
	db := openSmall(t, nil)
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "blame_") || strings.Contains(buf.String(), "trace_dropped") {
		t.Error("untraced exposition leaked blame/trace families")
	}
	if db.Blame() != nil {
		t.Error("Blame() non-nil without a recorder")
	}
	if st := db.Stats(); st.Trace != (TraceStats{}) {
		t.Errorf("untraced Stats reports trace health %+v", st.Trace)
	}
}

// Satellite: WriteServerPrometheus must be byte-deterministic for equal
// inputs — two identical runs of a serving process diff clean.
func TestWriteServerPrometheusDeterministic(t *testing.T) {
	stats := ServerStats{
		Accepted: 12, Active: 3, Ping: 7, Set: 100, Get: 250, Del: 4,
		MSet: 9, MGet: 31, Scan: 2, Info: 1, Other: 5,
		Errors: 6, Stalls: 2, BytesIn: 123456, BytesOut: 654321,
	}
	var a, b bytes.Buffer
	if err := WriteServerPrometheus(&a, stats); err != nil {
		t.Fatal(err)
	}
	if err := WriteServerPrometheus(&b, stats); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty server exposition")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical ServerStats produced different exposition")
	}
}

// TopK and the critical-path digest must agree with the raw report.
func TestBlameCriticalPathsAndTopK(t *testing.T) {
	s := openBlameSharded(t, 8)
	blameWorkload(t, s)
	rep := s.Blame()
	top := spans.TopK(rep, 5)
	if len(top) != 5 {
		t.Fatalf("TopK(5) returned %d ops", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].E2E() > top[i-1].E2E() {
			t.Fatal("TopK not sorted by e2e descending")
		}
	}
	cps := BlameCriticalPaths(rep)
	if len(cps) == 0 {
		t.Fatal("no critical paths from a populated report")
	}
	for _, cp := range cps {
		if cp.TailCount == 0 {
			t.Errorf("%s: empty p99 tail", cp.Op)
		}
		if cp.Share < 0 || cp.Share > 1 {
			t.Errorf("%s: share %f out of range", cp.Op, cp.Share)
		}
	}
}
