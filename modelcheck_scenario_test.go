package bandslim_test

// Scenario-driven model checking: the YCSB scenario generators (and the
// all-kinds "mixed" stream) drive the same differential harness as the
// random sequences in modelcheck_test.go — every op the generator emits is
// mirrored into the reference model, under rotating submission depths, cache
// configurations, and seed-derived fault plans, on both stack flavors. This
// proves the scenario suite composes with the whole fault/recovery surface,
// and conversely that the generators only emit executable streams.
//
// TestChaosUnderLoad is the crash-sweep chaos mode: a scenario workload runs
// while power is cut at chosen command/DMA/NAND-program occurrences; the
// harness recovers, verifies every acknowledged write, and proves the whole
// crash+recovery path deterministic by running each point twice.

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"bandslim"
	"bandslim/internal/workload"
)

// scenarioModelConfig shapes the small scenarios the differential mode runs:
// a 12-key load keeps the keyspace verifiable, and the mid-run shift
// exercises op-keyed key choice.
func scenarioModelConfig(seed uint64) workload.ScenarioConfig {
	return workload.ScenarioConfig{
		Records: 12,
		Ops:     48,
		Seed:    seed,
		Shifts:  workload.HotShifts{{Op: 10, Rotate: 5}},
	}
}

// scenarioKeyNum decodes a scenario key ("y%08d"); ok is false for foreign
// keys a scan may pass over.
func scenarioKeyNum(key []byte) (int, bool) {
	if len(key) != 9 || key[0] != 'y' {
		return 0, false
	}
	n, err := strconv.Atoi(string(key[1:]))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// mcScanScenario checks a scenario-driven scan against the model, the
// y-keyspace analog of mcScan.
func mcScanScenario(t *testing.T, db *bandslim.DB, model *mcModel, start []byte, limit int, faulty bool) {
	t.Helper()
	it, err := db.NewIterator(start)
	if err != nil {
		if bandslim.IsPowerLoss(err) {
			mcRecover(t, db)
			return
		}
		if faulty {
			return
		}
		t.Fatalf("scan open: %v", err)
	}
	for n := 0; it.Valid() && n < limit; n++ {
		if _, ok := scenarioKeyNum(it.Key()); ok {
			key := string(it.Key())
			if !matchesAny(it.Value(), model.possible(key)) {
				t.Fatalf("scan: key %q holds impossible value (%d bytes)", key, len(it.Value()))
			}
		}
		it.Next()
	}
	if err := it.Err(); err != nil {
		if bandslim.IsPowerLoss(err) {
			mcRecover(t, db)
		} else if !faulty {
			t.Fatalf("scan: %v", err)
		}
	}
}

// runScenarioModelSequence drives one scenario stream through db and the
// reference model, then verifies the whole keyspace.
func runScenarioModelSequence(t *testing.T, db *bandslim.DB, name string, seed uint64, faulty bool) {
	t.Helper()
	s, err := workload.NewScenario(name, scenarioModelConfig(seed))
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	model := newMCModel()
	filler := workload.NewValueFiller(seed)
	var scratch []byte
	maxKey := 0

	mutate := func(key string, attempted []byte, err error) {
		if err == nil {
			model.acked(key, attempted)
			return
		}
		model.failed(key, attempted)
		if bandslim.IsPowerLoss(err) {
			mcRecover(t, db)
		} else if !faulty {
			t.Fatalf("%s seed %d: fault-free sequence errored: %v", name, seed, err)
		}
	}

	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		if n, ok := scenarioKeyNum(op.Key); ok && n > maxKey {
			maxKey = n
		}
		key := string(op.Key)
		switch op.Kind {
		case workload.OpPut:
			value := filler.Fill(nil, op.N)
			mutate(key, value, db.Put(op.Key, value))
		case workload.OpGet:
			var got []byte
			got, scratch = mcGet(t, db, key, scratch)
			if !matchesAny(got, model.possible(key)) {
				t.Fatalf("%s seed %d: get %q returned impossible value (%d bytes)",
					name, seed, key, len(got))
			}
		case workload.OpDelete:
			mutate(key, nil, db.Delete(op.Key))
		case workload.OpScan:
			mcScanScenario(t, db, model, op.Key, op.N, faulty)
		case workload.OpRMW:
			var got []byte
			got, scratch = mcGet(t, db, key, scratch)
			if !matchesAny(got, model.possible(key)) {
				t.Fatalf("%s seed %d: rmw read %q returned impossible value (%d bytes)",
					name, seed, key, len(got))
			}
			value := filler.Fill(nil, op.N)
			mutate(key, value, db.Put(op.Key, value))
		default:
			t.Fatalf("%s: unexpected op kind %v", name, op.Kind)
		}
	}

	for n := 0; n <= maxKey; n++ {
		key := fmt.Sprintf("y%08d", n)
		var got []byte
		got, scratch = mcGet(t, db, key, scratch)
		if want, ok := model.sure[key]; ok {
			if got == nil && want != nil {
				t.Fatalf("%s seed %d: acked write %q lost", name, seed, key)
			}
			if !matchesAny(got, [][]byte{want}) {
				t.Fatalf("%s seed %d: key %q holds wrong value (%d bytes, want %d)",
					name, seed, key, len(got), len(want))
			}
		} else if !matchesAny(got, model.possible(key)) {
			t.Fatalf("%s seed %d: uncertain key %q holds impossible value (%d bytes)",
				name, seed, key, len(got))
		}
	}
}

// scenarioSeeds is how many seeds each (scenario, flavor) pair runs; odd
// seeds get a seed-derived fault plan, and the mcSubmission/mcCache rotations
// walk the queue-depth and cache configurations across the seed range.
func scenarioSeeds() uint64 {
	if testing.Short() {
		return 2
	}
	return 9
}

// TestModelCheckScenariosDB differentially checks every scenario against
// single-device stacks.
func TestModelCheckScenariosDB(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		for seed := uint64(1); seed <= scenarioSeeds(); seed++ {
			faulty := seed%2 == 1
			var plan *bandslim.FaultPlan
			if faulty {
				plan = mcPlan(t, seed^0x5CE7A1)
			}
			cfg := tinyFaultConfig(plan)
			cfg.Submission = mcSubmission(seed)
			cfg.Cache = mcCache(seed)
			db, err := bandslim.Open(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: open: %v", name, seed, err)
			}
			runScenarioModelSequence(t, db, name, seed, faulty)
			if err := db.Close(); err != nil && !bandslim.IsPowerLoss(err) {
				t.Fatalf("%s seed %d: close: %v", name, seed, err)
			}
		}
	}
}

// TestModelCheckScenariosSharded runs the same matrix against 2-shard stacks.
func TestModelCheckScenariosSharded(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		for seed := uint64(1); seed <= scenarioSeeds(); seed++ {
			faulty := seed%2 == 1
			var plan *bandslim.FaultPlan
			if faulty {
				plan = mcPlan(t, seed^0xB1A5E)
			}
			per := tinyFaultConfig(plan)
			per.Submission = mcSubmission(seed)
			per.Cache = mcCache(seed)
			db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: per})
			if err != nil {
				t.Fatalf("%s seed %d: open: %v", name, seed, err)
			}
			runScenarioModelSequence(t, db, name, seed, faulty)
			if err := db.Close(); err != nil && !bandslim.IsPowerLoss(err) {
				t.Fatalf("%s seed %d: close: %v", name, seed, err)
			}
		}
	}
}

// chaosWorkload drives a scenario stream until it is exhausted or power is
// cut, recording acknowledged state (nil value = acked delete). pending holds
// the value of the mutation the cut interrupted, if any — after recovery that
// key may legally hold either its acked value or the attempted one.
func chaosWorkload(t *testing.T, db *bandslim.DB, s workload.Scenario, filler *workload.ValueFiller,
) (acked map[string][]byte, pending map[string][]byte, maxKey int, cut bool) {
	t.Helper()
	acked = map[string][]byte{}
	pending = map[string][]byte{}
	mutate := func(key string, value []byte, err error) bool {
		if err == nil {
			acked[key] = value
			return false
		}
		if bandslim.IsPowerLoss(err) {
			pending[key] = value
			return true
		}
		t.Fatalf("chaos workload: unexpected error: %v", err)
		return true
	}
	for {
		op, ok := s.Next()
		if !ok {
			return acked, pending, maxKey, false
		}
		if n, ok := scenarioKeyNum(op.Key); ok && n > maxKey {
			maxKey = n
		}
		key := string(op.Key)
		switch op.Kind {
		case workload.OpPut:
			value := filler.Fill(nil, op.N)
			if mutate(key, value, db.Put(op.Key, value)) {
				return acked, pending, maxKey, true
			}
		case workload.OpDelete:
			if mutate(key, nil, db.Delete(op.Key)) {
				return acked, pending, maxKey, true
			}
		case workload.OpGet:
			// Before the cut no mutation has failed, so the store must match
			// the acked map exactly.
			got, err := db.GetInto(op.Key, nil)
			switch {
			case err == nil:
				if want := acked[key]; want == nil || !bytes.Equal(got, want) {
					t.Fatalf("chaos get %q: got %d bytes, want %d", key, len(got), len(want))
				}
			case bandslim.IsNotFound(err):
				if acked[key] != nil {
					t.Fatalf("chaos get %q: acked value missing before any cut", key)
				}
			case bandslim.IsPowerLoss(err):
				return acked, pending, maxKey, true
			default:
				t.Fatalf("chaos get %q: %v", key, err)
			}
		case workload.OpScan:
			it, err := db.NewIterator(op.Key)
			if err != nil {
				if bandslim.IsPowerLoss(err) {
					return acked, pending, maxKey, true
				}
				t.Fatalf("chaos scan open: %v", err)
			}
			for n := 0; it.Valid() && n < op.N; n++ {
				it.Next()
			}
			if err := it.Err(); err != nil {
				if bandslim.IsPowerLoss(err) {
					return acked, pending, maxKey, true
				}
				t.Fatalf("chaos scan: %v", err)
			}
		case workload.OpRMW:
			if _, err := db.GetInto(op.Key, nil); err != nil &&
				!bandslim.IsNotFound(err) {
				if bandslim.IsPowerLoss(err) {
					return acked, pending, maxKey, true
				}
				t.Fatalf("chaos rmw read %q: %v", key, err)
			}
			value := filler.Fill(nil, op.N)
			if mutate(key, value, db.Put(op.Key, value)) {
				return acked, pending, maxKey, true
			}
		}
	}
}

// chaosVerify recovers (if cut), checks every acknowledged write survived
// with its exact bytes, and returns a deterministic state dump for the
// two-run comparison.
func chaosVerify(t *testing.T, db *bandslim.DB, acked, pending map[string][]byte, maxKey int, cut bool) []byte {
	t.Helper()
	if cut {
		if err := db.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
	}
	var dump bytes.Buffer
	for n := 0; n <= maxKey; n++ {
		key := fmt.Sprintf("y%08d", n)
		var got []byte
		for attempt := 0; ; attempt++ {
			var err error
			got, err = db.GetInto([]byte(key), nil)
			if err == nil {
				break
			}
			if bandslim.IsNotFound(err) {
				got = nil
				break
			}
			if bandslim.IsPowerLoss(err) && attempt < 4 {
				if err := db.Recover(); err != nil {
					t.Fatalf("verify %s: recover: %v", key, err)
				}
				continue
			}
			t.Fatalf("verify %s: %v", key, err)
		}
		want, known := acked[key]
		attempted, interrupted := pending[key]
		switch {
		case interrupted:
			// The cut op's key: either the acked state or the attempted
			// mutation (complete) is legal — never anything else.
			legal := [][]byte{attempted}
			if known {
				legal = append(legal, want)
			} else {
				legal = append(legal, nil)
			}
			if !matchesAny(got, legal) {
				t.Fatalf("key %s: %d bytes is neither the acked nor the attempted value",
					key, len(got))
			}
		case known && want != nil:
			if got == nil {
				t.Fatalf("acked write %s lost after recovery", key)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key %s: got %d bytes, want %d", key, len(got), len(want))
			}
		}
		fmt.Fprintf(&dump, "%s=%d\n", key, len(got))
	}
	st := db.Stats()
	fmt.Fprintf(&dump, "cuts=%d mounts=%d replayed=%d programs=%d\n",
		st.Faults.PowerCuts, st.Faults.Mounts, st.Faults.ReplayedRecords,
		st.Device.NANDPageWrites)
	return dump.Bytes()
}

// runChaosPoint runs the mixed scenario with one power cut at the given
// site/occurrence and returns the verified state dump.
func runChaosPoint(t *testing.T, site string, nth int) []byte {
	t.Helper()
	cfg := tinyFaultConfig(faultPlan(t, 2, fmt.Sprintf("%s nth=%d powercut", site, nth)))
	cfg.Submission = mcSubmission(uint64(nth))
	cfg.Cache = mcCache(uint64(nth))
	db, err := bandslim.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	s, err := workload.NewScenario("mixed", scenarioModelConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	acked, pending, maxKey, cut := chaosWorkload(t, db, s, workload.NewValueFiller(3))
	return chaosVerify(t, db, acked, pending, maxKey, cut)
}

// TestChaosUnderLoad is the crash sweep's chaos-under-load mode: power cuts
// land inside a live scenario stream — at command boundaries and interior
// DMA/NAND-program points — and each point must recover losslessly and
// reproduce its exact final state on a second run.
func TestChaosUnderLoad(t *testing.T) {
	type point struct {
		site string
		nth  int
	}
	points := []point{
		{"exec", 3}, {"exec", 9}, {"exec", 17},
		{"exec", 30}, {"exec", 48}, {"exec", 70},
		{"dma.in", 2}, {"dma.in", 7},
		{"nand.program", 2}, {"nand.program", 7},
		{"exec", 100000}, // uncut baseline
	}
	if !testing.Short() {
		for k := 1; k <= 24; k++ {
			points = append(points, point{"exec", 3*k + 1})
		}
	}
	for _, p := range points {
		name := fmt.Sprintf("%s/nth=%d", p.site, p.nth)
		first := runChaosPoint(t, p.site, p.nth)
		second := runChaosPoint(t, p.site, p.nth)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: non-deterministic recovery:\nrun1:\n%srun2:\n%s", name, first, second)
		}
	}
}
