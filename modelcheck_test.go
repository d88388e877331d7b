package bandslim_test

// Model-based differential test harness for the fault-injection and
// crash-recovery subsystem. Each sequence drives a DB (one shard or several) and an
// in-memory reference model through the same seeded random operation stream —
// with and without a generated fault plan — and checks the two agree:
//
//   - An acknowledged write is never lost: once Put/PutBatch returns nil, the
//     exact value must be readable, across any number of power cuts and
//     recoveries.
//   - An unacknowledged write is atomic: after an errored mutation the key
//     holds either its complete old value or its complete new value (or is
//     absent, for deletes) — never a partial or corrupt one.
//   - Reads never invent data: every successful Get must return a value the
//     model considers possible.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/sim"
)

// mcOps is the operation count per model-check sequence.
const mcOps = 40

// mcModel is the reference state machine. sure maps keys to the exact value
// an acknowledged operation left behind (nil = acknowledged absent, i.e. an
// acked delete or never written). candidates holds keys whose last mutation
// errored: any complete value in the set (nil = absent) is legal.
type mcModel struct {
	sure       map[string][]byte
	candidates map[string][][]byte
}

func newMCModel() *mcModel {
	return &mcModel{sure: map[string][]byte{}, candidates: map[string][][]byte{}}
}

// possible reports the values the model currently allows for key.
func (m *mcModel) possible(key string) [][]byte {
	if c, ok := m.candidates[key]; ok {
		return c
	}
	return [][]byte{m.sure[key]}
}

// acked records a successful mutation: the key's state is again certain.
func (m *mcModel) acked(key string, value []byte) {
	m.sure[key] = value
	delete(m.candidates, key)
}

// failed records an errored mutation: every previously possible value plus
// the attempted one is now legal.
func (m *mcModel) failed(key string, attempted []byte) {
	c := append([][]byte(nil), m.possible(key)...)
	m.candidates[key] = append(c, attempted)
	delete(m.sure, key)
}

// matchesAny reports whether got (nil = absent) is one of the allowed values.
func matchesAny(got []byte, allowed [][]byte) bool {
	for _, v := range allowed {
		if got == nil && v == nil {
			return true
		}
		if got != nil && v != nil && bytes.Equal(got, v) {
			return true
		}
	}
	return false
}

// mcValue builds a deterministic value for (seed, op) — a repeating pattern
// whose every byte depends on both, so partial or mixed values cannot pass
// the equality checks.
func mcValue(rng *sim.RNG) []byte {
	n := 1 + rng.Intn(700)
	if rng.Intn(10) == 0 {
		n = 4096 + rng.Intn(8192) // over-page: exercises DMA and hybrid paths
	}
	v := make([]byte, n)
	x := rng.Uint64()
	for i := range v {
		v[i] = byte(x >> (8 * (uint(i) % 8)))
		if i%8 == 7 {
			x = x*0x9E3779B97F4A7C15 + 1
		}
	}
	return v
}

func mcKey(rng *sim.RNG) string { return fmt.Sprintf("k%02d", rng.Intn(24)) }

// tinyFaultConfig builds a small, fast device so a thousand sequences stay
// cheap: 16 MiB of flash and a 48-entry MemTable so flushes and compactions
// all happen inside a 40-op sequence.
func tinyFaultConfig(plan *bandslim.FaultPlan) bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Device.Geometry.Channels = 2
	cfg.Device.Geometry.WaysPerChannel = 2
	cfg.Device.Geometry.BlocksPerWay = 16
	cfg.Device.Geometry.PagesPerBlock = 16
	cfg.Device.Buffer.MaxEntries = 8
	cfg.Device.LSM.MemTableEntries = 48
	cfg.Device.LSM.L0CompactionTrigger = 2
	cfg.Faults = plan
	return cfg
}

// mcSubmission derives the NVMe submission policy for a sequence: seeds
// rotate through queue depths {1, 4, 8}, so a third of the sequences run the
// paper's synchronous testbed (zero value) and the rest push reads through
// the async submission window, with doorbell batching and completion
// coalescing at the deepest setting.
func mcSubmission(seed uint64) bandslim.SubmissionConfig {
	switch seed % 3 {
	case 1:
		return bandslim.SubmissionConfig{QueueDepth: 4, DoorbellBatch: 2}
	case 2:
		return bandslim.SubmissionConfig{
			QueueDepth:       8,
			DoorbellBatch:    4,
			CoalesceInterval: bandslim.SimMicrosecond,
		}
	default:
		return bandslim.SubmissionConfig{}
	}
}

// mcCache derives the read-cache configuration for a sequence: seeds rotate
// through {off, LRU value+page tiers, 2Q value tier}, decorrelated from the
// mcSubmission rotation (seed/3 vs seed), so every (depth, cache) pair
// appears. The model must not be able to tell any of them apart from the
// cache-free stack.
func mcCache(seed uint64) bandslim.CacheConfig {
	switch (seed / 3) % 3 {
	case 1:
		return bandslim.CacheConfig{
			ValueBytes: 64 << 10,
			Pages:      8,
			Policy:     bandslim.CacheLRU,
		}
	case 2:
		return bandslim.CacheConfig{
			ValueBytes: 16 << 10,
			Policy:     bandslim.Cache2Q,
		}
	default:
		return bandslim.CacheConfig{}
	}
}

// faultPlan parses the plan of the given seed and rule lines, failing the
// test on a malformed rule.
func faultPlan(t testing.TB, seed uint64, rules ...string) *bandslim.FaultPlan {
	t.Helper()
	p, err := bandslim.ParseFaultPlan(fmt.Sprintf("seed %d\n%s", seed, strings.Join(rules, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mcPlan derives a fault plan from the sequence seed: transient transfer
// errors (ride-out-able by the retry policy), media program failures (block
// retirement), and one or two power cuts.
func mcPlan(t testing.TB, seed uint64) *bandslim.FaultPlan {
	rng := sim.NewRNG(seed ^ 0xFA017)
	var rules []string
	if rng.Intn(2) == 0 {
		rules = append(rules, fmt.Sprintf("dma.in every=%d transient", 7+rng.Intn(20)))
	}
	if rng.Intn(2) == 0 {
		rules = append(rules, fmt.Sprintf("nand.program nth=%d media", 1+rng.Intn(30)))
	}
	switch rng.Intn(3) {
	case 0:
		rules = append(rules, fmt.Sprintf("exec nth=%d powercut", 5+rng.Intn(50)))
	case 1:
		rules = append(rules, fmt.Sprintf("exec every=%d powercut", 30+rng.Intn(40)))
	}
	if len(rules) == 0 {
		rules = append(rules, "dma.in nth=3 transient")
	}
	return faultPlan(t, seed, rules...)
}

// mcScan opens an iterator and checks every scanned pair within the model's
// keyspace: a returned value must be one the model allows, and a key the
// model holds certainly-absent must not appear. Iteration errors under an
// active fault plan abandon the scan (the snapshot died with the fault).
func mcScan(t *testing.T, db *bandslim.DB, model *mcModel, start string, faulty bool) {
	t.Helper()
	it, err := db.NewIterator([]byte(start))
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
	for n := 0; it.Valid() && n < 8; n++ {
		key := string(it.Key())
		if len(key) == 3 && key[0] == 'k' { // one of ours
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

// mcRecover brings the stack back after a power-loss completion. A plan can
// cut power again during replay, so recovery itself may need a few attempts.
func mcRecover(t *testing.T, db *bandslim.DB) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := db.Recover()
		if err == nil {
			return
		}
		if !bandslim.IsPowerLoss(err) || attempt > 8 {
			t.Fatalf("recover: %v", err)
		}
	}
}

// mcGet reads a key, recovering across power cuts and tolerating one-shot
// injected media read faults. Returns nil for an absent key.
func mcGet(t *testing.T, db *bandslim.DB, key string, scratch []byte) ([]byte, []byte) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		v, err := db.GetInto([]byte(key), scratch[:0])
		switch {
		case err == nil:
			return v, v
		case bandslim.IsNotFound(err):
			return nil, scratch
		case bandslim.IsPowerLoss(err):
			mcRecover(t, db)
		case (bandslim.IsMedia(err) || bandslim.IsTransient(err)) && attempt < 4:
			// Nth-armed read faults fire once; the next attempt passes.
		default:
			t.Fatalf("get %q: %v", key, err)
		}
		if attempt > 8 {
			t.Fatalf("get %q: no progress after %d attempts", key, attempt)
		}
	}
}

// runModelSequence drives one seeded sequence against db and the model, then
// verifies every key.
func runModelSequence(t *testing.T, db *bandslim.DB, seed uint64, faulty bool) {
	t.Helper()
	model := newMCModel()
	rng := sim.NewRNG(seed)
	var scratch []byte

	mutate := func(key string, attempted []byte, err error) {
		if err == nil {
			model.acked(key, attempted)
			return
		}
		model.failed(key, attempted)
		if bandslim.IsPowerLoss(err) {
			mcRecover(t, db)
		} else if !faulty {
			t.Fatalf("fault-free sequence errored: %v", err)
		}
	}

	for op := 0; op < mcOps; op++ {
		switch r := rng.Intn(100); {
		case r < 45: // put
			key := mcKey(rng)
			value := mcValue(rng)
			mutate(key, value, db.Put([]byte(key), value))
		case r < 60: // batch put
			n := 2 + rng.Intn(4)
			keys := make([][]byte, n)
			vals := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(mcKey(rng))
				vals[i] = mcValue(rng)
			}
			err := db.PutBatch(keys, vals)
			for i := range keys {
				mutate(string(keys[i]), vals[i], err)
			}
		case r < 68: // get, checked against the model mid-sequence
			key := mcKey(rng)
			var got []byte
			got, scratch = mcGet(t, db, key, scratch)
			if !matchesAny(got, model.possible(key)) {
				t.Fatalf("seed %d op %d: get %q returned impossible value (%d bytes)", seed, op, key, len(got))
			}
		case r < 75: // batch get: reads pumped through the submission window
			n := 2 + rng.Intn(4)
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(mcKey(rng))
			}
			miss := make([]bool, n)
			vals, err := db.GetBatchSparse(keys, make([][]byte, n), miss)
			if err != nil {
				if bandslim.IsPowerLoss(err) {
					mcRecover(t, db)
				} else if !faulty {
					t.Fatalf("seed %d op %d: batch get: %v", seed, op, err)
				}
				break
			}
			for i := range keys {
				got := vals[i]
				if miss[i] {
					got = nil
				}
				if !matchesAny(got, model.possible(string(keys[i]))) {
					t.Fatalf("seed %d op %d: batch get %q returned impossible value (%d bytes)", seed, op, keys[i], len(got))
				}
			}
		case r < 80: // scan from a random start
			mcScan(t, db, model, mcKey(rng), faulty)
		case r < 90: // delete
			key := mcKey(rng)
			mutate(key, nil, db.Delete([]byte(key)))
		default: // flush
			if err := db.Flush(); err != nil {
				if bandslim.IsPowerLoss(err) {
					mcRecover(t, db)
				} else if !faulty {
					t.Fatalf("flush: %v", err)
				}
			}
		}
	}

	// Final verification: acked writes are never lost; errored mutations
	// left a complete old or new value.
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k%02d", i)
		var got []byte
		got, scratch = mcGet(t, db, key, scratch)
		if want, ok := model.sure[key]; ok {
			if got == nil && want != nil {
				t.Fatalf("seed %d: acked write %q lost", seed, key)
			}
			if !matchesAny(got, [][]byte{want}) {
				t.Fatalf("seed %d: key %q holds wrong value (%d bytes, want %d)", seed, key, len(got), len(want))
			}
		} else if !matchesAny(got, model.possible(key)) {
			t.Fatalf("seed %d: uncertain key %q holds impossible value (%d bytes)", seed, key, len(got))
		}
	}
}

// TestModelCheckDB runs 700 differential sequences against single-device
// DBs: even seeds fault-free, odd seeds under a seed-derived fault plan.
func TestModelCheckDB(t *testing.T) {
	sequences := 700
	if testing.Short() {
		sequences = 60
	}
	for seed := uint64(1); seed <= uint64(sequences); seed++ {
		faulty := seed%2 == 1
		var plan *bandslim.FaultPlan
		if faulty {
			plan = mcPlan(t, seed)
		}
		cfg := tinyFaultConfig(plan)
		cfg.Submission = mcSubmission(seed)
		cfg.Cache = mcCache(seed)
		db, err := bandslim.Open(cfg)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		runModelSequence(t, db, seed, faulty)
		if err := db.Close(); err != nil && !bandslim.IsPowerLoss(err) {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}

// TestModelCheckSharded runs 350 differential sequences against 2-shard
// DBs. Shards derive independent fault streams from the same plan
// (salted by shard id), so cuts and recoveries interleave across devices.
func TestModelCheckSharded(t *testing.T) {
	sequences := 350
	if testing.Short() {
		sequences = 30
	}
	for seed := uint64(1); seed <= uint64(sequences); seed++ {
		faulty := seed%2 == 1
		var plan *bandslim.FaultPlan
		if faulty {
			plan = mcPlan(t, seed^0x51A4DED)
		}
		per := tinyFaultConfig(plan)
		per.Submission = mcSubmission(seed)
		per.Cache = mcCache(seed)
		cfg := bandslim.ShardedConfig{Shards: 2, PerShard: per}
		db, err := bandslim.OpenSharded(cfg)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		runModelSequence(t, db, seed, faulty)
		if err := db.Close(); err != nil && !bandslim.IsPowerLoss(err) {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}
