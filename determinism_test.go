package bandslim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// determinismRow is one producer of published bytes: files by name.
type determinismRow struct {
	name    string
	produce func(t *testing.T) map[string][]byte
}

// TestDeterminism is the determinism gate: every producer of a simulated
// artifact, run twice on fresh stacks, publishes byte-identical, non-empty
// files, so nothing host-side (scheduling, map order, wall clock) leaks into
// a simulated result. A new producer is one more row. The registry's
// experiments are gated in internal/bench (TestEveryExperimentRunsAndRepeats),
// and cmd/bandslim-cli has its own TestDeterminism for what only the command
// produces.
func TestDeterminism(t *testing.T) {
	for _, r := range []determinismRow{
		{"exports", bandslim.DeterminismExports},
		{"telemetry", telemetryOutputs},
		{"trace-jsonl", bandslim.DeterminismTraceJSONL},
		{"blame", bandslim.DeterminismBlame},
		{"server-exposition", serverExposition},
		{"batch-path", batchPathOutputs},
		{"drive-scenario", driveScenarioOutputs},
	} {
		t.Run(r.name, func(t *testing.T) { sameOutputs(t, r.produce(t), r.produce(t)) })
	}
}

// TestReplayEquivalence is the gate's one pair of different producers: a
// live run and the replay of its trace must leave the same Stats,
// exposition and full dump, at one shard and at several.
func TestReplayEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			live, replay := replayPair(shards)
			sameOutputs(t, live(t), replay(t))
		})
	}
}

// sameOutputs fails unless a and b publish the same non-empty files.
func sameOutputs(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("published %d files, then %d", len(a), len(b))
	}
	for name, x := range a {
		if len(x) == 0 {
			t.Errorf("%s is empty", name)
		}
		if y := b[name]; !bytes.Equal(x, y) {
			t.Errorf("%s differs between the two runs: %s", name, firstDiff(string(x), string(y)))
		}
	}
}

// firstDiff quotes the line at which b first departs from a.
func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := strings.LastIndexByte(a[:i], '\n') + 1
	lineOf := func(s string) string { s, _, _ = strings.Cut(s[start:], "\n"); return s }
	return fmt.Sprintf("line %d: %q, then %q", strings.Count(a[:i], "\n")+1, lineOf(a), lineOf(b))
}

// exports renders a DB's exposition and sampled series CSV.
func exports(t *testing.T, db *bandslim.DB) map[string][]byte {
	t.Helper()
	var prom, csv bytes.Buffer
	if err := db.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := bandslim.WriteSeriesCSV(&csv, db.Series()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"exposition": prom.Bytes(), "series.csv": csv.Bytes()}
}

// telemetryOutputs is the instrumented run behind bandslim-bench
// -metrics-out, whose Progress must account for every op.
func telemetryOutputs(t *testing.T) map[string][]byte {
	tr, err := bench.StartTelemetry(bench.Options{Scale: 300, Seed: 7}, 2, 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.DB.Close()
	if err := tr.Wait(); err != nil {
		t.Fatal(err)
	}
	if prog := tr.Progress(); prog.OpsDone != prog.OpsTotal || prog.OpsDone == 0 ||
		prog.SimElapsedUs <= 0 || prog.PCIeBytes <= 0 {
		t.Fatalf("progress after Wait: %+v", prog)
	}
	return exports(t, tr.DB)
}

func serverExposition(t *testing.T) map[string][]byte {
	var buf bytes.Buffer
	err := bandslim.WriteServerPrometheus(&buf, bandslim.ServerStats{
		Accepted: 12, Active: 3, Ping: 7, Set: 100, Get: 250, Del: 4,
		MSet: 9, MGet: 31, Scan: 2, Info: 1, Other: 5,
		Errors: 6, Stalls: 2, BytesIn: 123456, BytesOut: 654321,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"server.prom": buf.Bytes()}
}

// batchPathOutputs drives the batch fast path over four shards.
func batchPathOutputs(t *testing.T) map[string][]byte {
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 4, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys, values := batchKV(300)
	for round := 0; round < 3; round++ {
		if err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
		getAll(t, s, keys, nil)
	}
	return exports(t, s)
}

// drive runs s on a fresh stack of the bandslim-cli trace configuration and
// renders the result (name aside, every latency sample included), Stats, the
// exposition after Close, and the final key/value contents.
func drive(t *testing.T, shards int, s workload.Scenario, valueSeed uint64, rec *workload.Trace) map[string][]byte {
	per := bandslim.DefaultConfig()
	per.MetricsInterval = 100 * sim.Microsecond
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: per})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.DriveScenario(db, s, valueSeed, rec)
	if err != nil {
		t.Fatal(err)
	}
	res.Name = ""
	var dump, prom bytes.Buffer
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for ; it.Valid(); it.Next() {
		fmt.Fprintf(&dump, "%q=%x\n", it.Key(), it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"result": fmt.Appendf(nil, "%+v", res), "stats": fmt.Appendf(nil, "%+v", db.Stats()),
		"exposition": prom.Bytes(), "dump": dump.Bytes()}
}

// driveScenarioOutputs records a mixed scenario: drive's files and the trace.
func driveScenarioOutputs(t *testing.T) map[string][]byte {
	s, err := workload.NewScenario("mixed", workload.ScenarioConfig{Records: 150, Ops: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var tr workload.Trace
	out := drive(t, 1, s, 4, &tr)
	out["trace"] = []byte(workload.FormatTrace(&tr))
	return out
}

// replayPair records a mixed scenario with a hot-set shift live, and replays
// its trace, round tripped through the text format, on a fresh stack: the
// two must leave the same files.
func replayPair(shards int) (live, replay func(t *testing.T) map[string][]byte) {
	var recorded string
	live = func(t *testing.T) map[string][]byte {
		s, err := workload.NewScenario("mixed", workload.ScenarioConfig{
			Records: 300, Ops: 900, Seed: 1234, Shifts: workload.HotShifts{{Op: 450, Rotate: 97}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var tr workload.Trace
		out := drive(t, shards, s, 1234, &tr)
		recorded = workload.FormatTrace(&tr)
		return out
	}
	replay = func(t *testing.T) map[string][]byte {
		tr, err := workload.ParseTrace(strings.NewReader(recorded))
		if err != nil {
			t.Fatal(err)
		}
		return drive(t, shards, workload.NewReplay(tr), tr.Seed, nil)
	}
	return live, replay
}
