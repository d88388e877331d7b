package bench

import (
	"reflect"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/workload"
)

// mixedScenario builds the all-kinds scenario the drive tests use.
func mixedScenario(t *testing.T, seed uint64) workload.Scenario {
	t.Helper()
	s, err := workload.NewScenario("mixed", workload.ScenarioConfig{Records: 150, Ops: 400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openDrive(t *testing.T, shards int) *bandslim.DB {
	t.Helper()
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func closeDrive(t *testing.T, db *bandslim.DB) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDriveScenarioRecordReplay is the engine-level replay identity: a
// recorded live run and a replay of its trace produce equal results — op
// counts, byte counts, and every virtual-clock latency sample — on both
// stack flavors.
func TestDriveScenarioRecordReplay(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db := openDrive(t, shards)
		var tr workload.Trace
		live, err := DriveScenario(db, mixedScenario(t, 9), 9, &tr)
		closeDrive(t, db)
		if err != nil {
			t.Fatalf("shards=%d: live run: %v", shards, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("shards=%d: recorded trace invalid: %v", shards, err)
		}
		if int64(len(tr.Ops)) != live.Ops {
			t.Fatalf("shards=%d: recorded %d ops, executed %d", shards, len(tr.Ops), live.Ops)
		}
		db = openDrive(t, shards)
		replay, err := DriveScenario(db, workload.NewReplay(&tr), tr.Seed, nil)
		closeDrive(t, db)
		if err != nil {
			t.Fatalf("shards=%d: replay run: %v", shards, err)
		}
		replay.Name = live.Name
		if !reflect.DeepEqual(live, replay) {
			t.Fatalf("shards=%d: replay diverged from live run:\nlive   %+v\nreplay %+v",
				shards, live, replay)
		}
	}
}

// TestDriveScenarioDeterminism re-runs the same scenario on fresh stacks and
// expects bit-identical results and recorded traces.
func TestDriveScenarioDeterminism(t *testing.T) {
	run := func() (ScenarioResult, string) {
		db := openDrive(t, 1)
		defer closeDrive(t, db)
		var tr workload.Trace
		res, err := DriveScenario(db, mixedScenario(t, 4), 4, &tr)
		if err != nil {
			t.Fatal(err)
		}
		return res, workload.FormatTrace(&tr)
	}
	resA, trA := run()
	resB, trB := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("results diverged:\n%+v\n%+v", resA, resB)
	}
	if trA != trB {
		t.Fatal("recorded traces diverged across identical runs")
	}
}

func TestRunYCSBSmall(t *testing.T) {
	opts := Options{Scale: 1200, Seed: 42}
	table, points, err := RunYCSB(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d scenario rows, want 6", len(points))
	}
	for i, name := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"} {
		p := points[i]
		if p.Scenario != name {
			t.Fatalf("row %d is %q, want %q", i, p.Scenario, name)
		}
		if p.Ops != int64(p.Records+opts.Scale) {
			t.Fatalf("%s: %d ops, want %d", name, p.Ops, p.Records+opts.Scale)
		}
		if p.SimElapsedMs <= 0 || p.SimKops <= 0 {
			t.Fatalf("%s: missing simulated timing: %+v", name, p)
		}
		if p.BytesWritten <= 0 {
			t.Fatalf("%s: no bytes written", name)
		}
	}
	if points[2].Misses != 0 {
		t.Fatalf("read-only workload C missed %d reads on a loaded keyspace", points[2].Misses)
	}
	if points[4].ScanEntries == 0 {
		t.Fatal("scan workload E stepped no entries")
	}
	text := table.Format()
	for _, want := range []string{"ycsb-a", "sim_kops", "read_p99_us"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, text)
		}
	}
}
