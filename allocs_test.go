package bandslim_test

// Allocation regression tests: the per-op simulation path must be
// allocation-free in steady state. Steady state means the structural
// allocations are behind us — pools warmed, scratch buffers grown to their
// working size, and (for writes) keys already present so the MemTable
// overwrites in place instead of inserting. New-key inserts, SSTable
// flushes, and compactions legitimately allocate, but only what they keep:
// TestFillAllocBudget holds a stream of new keys, flushes and compactions
// included, to a per-op budget, and TestColdGetAllocs holds reads that go all
// the way to flash to zero.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"bandslim"
)

// allocConfig builds the small deterministic stack the assertions run on.
// NAND stays off for write paths (NAND programs allocate FTL bookkeeping);
// read paths keep it on.
func allocConfig(method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool, tr bandslim.Tracer) bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	cfg.DisableNAND = !nandOn
	cfg.Tracer = tr
	return cfg
}

// assertZeroAllocs runs fn under testing.AllocsPerRun and fails on any
// per-run allocation.
func assertZeroAllocs(t *testing.T, what string, runs int, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, fn); avg != 0 {
		t.Errorf("%s allocates %.2f objects per op in steady state, want 0", what, avg)
	}
}

// tracers returns the tracer variants every assertion runs under: the
// zero-cost disabled path and a ring-buffered recorder (Emit writes into a
// preallocated ring, so tracing must stay allocation-free too).
func tracers() map[string]bandslim.Tracer {
	return map[string]bandslim.Tracer{
		"tracer_off": nil,
		"tracer_on":  bandslim.NewRecorder(4096),
	}
}

func TestPutAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name   string
		method bandslim.TransferMethod
		policy bandslim.PackingPolicy
		size   int
	}{
		{"inline_32B", bandslim.Piggyback, bandslim.BackfillPacking, 32},
		{"prp_4K", bandslim.Baseline, bandslim.Block, 4096},
		{"adaptive_512B", bandslim.Adaptive, bandslim.BackfillPacking, 512},
	}
	for _, tc := range cases {
		for trName, tr := range tracers() {
			t.Run(tc.name+"/"+trName, func(t *testing.T) {
				db, err := bandslim.Open(allocConfig(tc.method, tc.policy, false, tr))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				const nkeys = 16
				keys := make([][]byte, nkeys)
				value := make([]byte, tc.size)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("ak%02d", i))
					if err := db.Put(keys[i], value); err != nil {
						t.Fatal(err)
					}
				}
				// Warm the pools and scratch past their growth phase.
				for r := 0; r < 4; r++ {
					for _, k := range keys {
						if err := db.Put(k, value); err != nil {
							t.Fatal(err)
						}
					}
				}
				i := 0
				assertZeroAllocs(t, "Put "+tc.name, 400, func() {
					if err := db.Put(keys[i%nkeys], value); err != nil {
						t.Fatal(err)
					}
					i++
				})
			})
		}
	}
}

func TestGetAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const nkeys = 64
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("gk%02d", i))
				if err := db.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			assertZeroAllocs(t, "Get", 400, func() {
				v, err := db.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			dst := make([]byte, 0, 128)
			i = 0
			assertZeroAllocs(t, "GetInto", 400, func() {
				v, err := db.GetInto(keys[i%nkeys], dst)
				if err != nil || len(v) != 128 {
					t.Fatalf("GetInto: %d bytes, %v", len(v), err)
				}
				dst = v
				i++
			})
		})
	}
}

// storeKinds names the front-ends the whole-path guards run on.
var storeKinds = []string{"db", "sharded"}

// openStore opens one of storeKinds with NAND on and reports how many
// devices are behind it.
func openStore(t *testing.T, kind string, tr bandslim.Tracer) (*bandslim.DB, int) {
	t.Helper()
	cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
	if kind == "db" {
		db, err := bandslim.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db, 1
	}
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return s, 2
}

// fillKey is the i-th key of a scattered 8-byte key space, so consecutive
// Puts land all over every SSTable's range as hashed keys do.
func fillKey(dst []byte, i int) []byte {
	return binary.BigEndian.AppendUint64(dst[:0], uint64(i)*0x9E3779B97F4A7C15)
}

// TestFillAllocBudget is the write path's guard beyond steady-state
// overwrites: a stream of new keys long enough that every device flushes its
// MemTable ~20 times, compacts L0 into L1 four times and overflows L1 into L2
// at least once. What one Put may cost, all of that included: its MemTable
// node, its share of the kept bytes of the NAND pages that stay live, and
// next to nothing else — no per-entry garbage from merging, no page copies.
func TestFillAllocBudget(t *testing.T) {
	const (
		perDevice   = 80_000 // 19 flushes of 4096, L0 compactions at 4, 8, 12, 16
		allocBudget = 1.2
		byteBudget  = 285
	)
	for trName, tr := range tracers() {
		for _, kind := range storeKinds {
			t.Run(kind+"/"+trName, func(t *testing.T) {
				s, devices := openStore(t, kind, tr)
				defer s.Close()
				puts := perDevice * devices
				value := make([]byte, 48)
				var key []byte
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < puts; i++ {
					key = fillKey(key, i)
					if err := s.Put(key, value); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&m1)
				// Only level compactions can push the count past one per four
				// flushes.
				if c, l0 := s.Stats().Device.Compactions, int64(puts/(4*4096)); c <= l0 {
					t.Fatalf("%d compactions over %d Puts: the stream never overflowed L1", c, puts)
				}
				allocs := float64(m1.Mallocs-m0.Mallocs) / float64(puts)
				bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(puts)
				if allocs > allocBudget || bytes > byteBudget {
					t.Errorf("a Put costs %.2f allocations and %.0f B with flushes and compactions included; budget %.1f and %d B",
						allocs, bytes, allocBudget, byteBudget)
				}
			})
		}
	}
}

// TestColdGetAllocs: a Get that finds nothing in DRAM — MemTable empty, no
// cache — walks SSTable pages on flash level by level and then reads the
// value's vLog page. Every one of those pages is borrowed from the flash
// model and searched in place, so the read allocates nothing.
func TestColdGetAllocs(t *testing.T) {
	for trName, tr := range tracers() {
		for _, kind := range storeKinds {
			t.Run(kind+"/"+trName, func(t *testing.T) {
				s, devices := openStore(t, kind, tr)
				defer s.Close()
				nkeys := 20_000 * devices // L0 and L1 populated on every device
				var key []byte
				for i := 0; i < nkeys; i++ {
					key = fillKey(key, i)
					if err := s.Put(key, make([]byte, 128)); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				dst := make([]byte, 0, 128)
				i := 0
				get := func() {
					key = fillKey(key, i*7919%nkeys)
					v, err := s.GetInto(key, dst)
					if err != nil || len(v) != 128 {
						t.Fatalf("GetInto: %d bytes, %v", len(v), err)
					}
					dst = v
					i++
				}
				for r := 0; r < 64; r++ { // grow the read scratch on every device
					get()
				}
				reads := s.Stats().Device.NANDPageReads
				assertZeroAllocs(t, "cold GetInto", 400, get)
				if got := s.Stats().Device.NANDPageReads - reads; got < 400 {
					t.Errorf("%d NAND page reads over 401 Gets: the reads were not cold", got)
				}
			})
		}
	}
}

// TestColdGetGrowthAllocs: a cold Get of a value bigger than any read before
// pays for the scratch buffers it outgrows — the device's read buffer and the
// host's transfer buffer, one new size class each — and for nothing else: no
// throwaway slice of the value's size on the way.
func TestColdGetGrowthAllocs(t *testing.T) {
	db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const nkeys, big = 20_000, 3000
	var key []byte
	for i := 0; i < nkeys; i++ {
		key = fillKey(key, i)
		if err := db.Put(key, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	bigKey := []byte("big")
	if err := db.Put(bigKey, make([]byte, big)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, big)
	for i := 0; i < 64; i++ { // every scratch grown to the small values
		key = fillKey(key, i*7919%nkeys)
		if _, err := db.GetInto(key, dst); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := db.GetInto(bigKey, dst)
	runtime.ReadMemStats(&after)
	if err != nil || len(v) != big {
		t.Fatalf("GetInto: %d bytes, %v", len(v), err)
	}
	// 3072 is the size class a 3000-byte buffer lands in.
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 2 || b > 2*3072 {
		t.Errorf("the first %d-byte cold Get costs %d allocations and %d B; two scratch buffers of one size class each are the budget", big, n, b)
	}
}

func TestDeleteAllocsSteadyState(t *testing.T) {
	db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("del-key")
	if err := db.Put(key, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// The first Delete inserts the tombstone (one structural allocation);
	// repeat deletes overwrite it in place.
	if err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "Delete", 400, func() {
		if err := db.Delete(key); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNextAllocsSteadyState(t *testing.T) {
	db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Enough keys that the measured window never exhausts the iterator, few
	// enough to stay resident in the MemTable (no SSTable page decodes).
	const nkeys = 2000
	for i := 0; i < nkeys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("nk%06d", i)), make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the iterator's reused key/value buffers.
	for i := 0; i < 8 && it.Valid(); i++ {
		it.Next()
	}
	assertZeroAllocs(t, "Iterator.Next", 400, func() {
		if !it.Valid() {
			t.Fatal("iterator exhausted inside the measured window")
		}
		it.Next()
	})
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

// TestWindowedGetBatchAllocsSteadyState proves the submission window
// recycles everything per batch at both a saturated depth (8) and a depth
// that swallows the whole batch (32): wait frames and PRP staging come from
// internal/pool-reused slices on the driver, the FIFO scratch lives on the
// DB, and completion sweeps reuse the device's sort buffer — so a
// steady-state GetBatch through the async window allocates nothing. The
// tracer-off runs also pin down the latency-attribution boundary events
// (completion readiness stamping, CQ-post timing): attribution support must
// cost zero allocations when tracing is disabled.
func TestWindowedGetBatchAllocsSteadyState(t *testing.T) {
	for _, depth := range []int{8, 32} {
		for trName, tr := range tracers() {
			t.Run(fmt.Sprintf("depth=%d/%s", depth, trName), func(t *testing.T) {
				cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
				cfg.Submission = bandslim.SubmissionConfig{
					QueueDepth:       depth,
					DoorbellBatch:    4,
					CoalesceInterval: bandslim.SimMicrosecond,
				}
				db, err := bandslim.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				const nkeys = 16
				keys := make([][]byte, nkeys)
				vals := make([][]byte, nkeys)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("wk%02d", i))
					if err := db.Put(keys[i], make([]byte, 128)); err != nil {
						t.Fatal(err)
					}
					vals[i] = make([]byte, 0, 128)
				}
				// Warm the window: frames, per-slot PRP staging, FIFO
				// scratch, and the device's completion sweep all grow on
				// first use.
				for r := 0; r < 4; r++ {
					if _, err := db.GetBatch(keys, vals); err != nil {
						t.Fatal(err)
					}
				}
				assertZeroAllocs(t, fmt.Sprintf("GetBatch depth=%d", depth), 400, func() {
					out, err := db.GetBatch(keys, vals)
					if err != nil || len(out[nkeys-1]) != 128 {
						t.Fatalf("GetBatch: %v", err)
					}
				})
			})
		}
	}
}

func TestShardedAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			const nkeys = 16
			keys := make([][]byte, nkeys)
			value := make([]byte, 256)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("sk%02d", i))
			}

			// Write assertions on a NAND-off stack (NAND programs allocate
			// FTL bookkeeping, and the write path never reads values back).
			s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
				Shards:   2,
				PerShard: allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, false, tr),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for r := 0; r < 5; r++ {
				for _, k := range keys {
					if err := s.Put(k, value); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			assertZeroAllocs(t, "sharded DB.Put", 400, func() {
				if err := s.Put(keys[i%nkeys], value); err != nil {
					t.Fatal(err)
				}
				i++
			})

			// Read assertions need NAND on: value reads are served from the
			// simulated vLog, which DisableNAND stubs out.
			g, err := bandslim.OpenSharded(bandslim.ShardedConfig{
				Shards:   2,
				PerShard: allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, k := range keys {
				if err := g.Put(k, value); err != nil {
					t.Fatal(err)
				}
			}
			i = 0
			assertZeroAllocs(t, "sharded DB.Get", 400, func() {
				v, err := g.Get(keys[i%nkeys])
				if err != nil || len(v) != 256 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			dst := make([]byte, 0, 256)
			i = 0
			assertZeroAllocs(t, "sharded DB.GetInto", 400, func() {
				v, err := g.GetInto(keys[i%nkeys], dst)
				if err != nil || len(v) != 256 {
					t.Fatalf("GetInto: %d bytes, %v", len(v), err)
				}
				dst = v
				i++
			})
		})
	}
}

// TestCacheHitAllocsSteadyState proves the tiered read path stays
// allocation-free once warm: a device value-cache hit (map lookup, DRAM
// latency charge, DMA out) and a host-side negative-cache hit (ring lookup,
// preallocated not-found error) must both cost zero allocations, with and
// without a tracer attached. The fills themselves may allocate — they are
// the miss path — so the working set is read once before measuring.
func TestCacheHitAllocsSteadyState(t *testing.T) {
	cacheCfg := bandslim.CacheConfig{
		ValueBytes:      1 << 20,
		Pages:           32,
		Policy:          bandslim.Cache2Q,
		NegativeEntries: 128,
	}
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
			cfg.Cache = cacheCfg
			db, err := bandslim.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const nkeys = 32
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("ck%02d", i))
				if err := db.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			// Two warm rounds: the first read of each key misses and fills
			// the cache (a structural allocation), the second promotes it in
			// 2Q; every measured read is then a pure hit.
			for r := 0; r < 2; r++ {
				for _, k := range keys {
					if _, err := db.Get(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			base := db.Stats().Cache.Hits
			i := 0
			assertZeroAllocs(t, "Get cache hit", 400, func() {
				v, err := db.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			if hits := db.Stats().Cache.Hits - base; hits == 0 {
				t.Error("measured reads never hit the value cache")
			}

			// Negative-cache hits: two misses arm and admit the key, every
			// later Get resolves host-side from the recent-miss ring.
			ghost := []byte("ck-ghost")
			for r := 0; r < 3; r++ {
				if _, err := db.Get(ghost); !bandslim.IsNotFound(err) {
					t.Fatalf("Get(ghost): %v, want not-found", err)
				}
			}
			nbase := db.Stats().Cache.NegHits
			assertZeroAllocs(t, "Get negative hit", 400, func() {
				if _, err := db.Get(ghost); !bandslim.IsNotFound(err) {
					t.Fatalf("Get(ghost): %v, want not-found", err)
				}
			})
			if hits := db.Stats().Cache.NegHits - nbase; hits == 0 {
				t.Error("measured misses never hit the negative cache")
			}
		})
	}
}

// TestShardedCacheHitAllocsSteadyState repeats the cache-hit assertion
// through the sharded front-end: key routing and the per-shard caches must
// add nothing to the hit path.
func TestShardedCacheHitAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
			cfg.Cache = bandslim.CacheConfig{
				ValueBytes:      1 << 20,
				Policy:          bandslim.CacheLRU,
				NegativeEntries: 128,
			}
			s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const nkeys = 32
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("sc%02d", i))
				if err := s.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				if _, err := s.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			base := s.Stats().Cache.Hits
			i := 0
			assertZeroAllocs(t, "sharded DB.Get cache hit", 400, func() {
				v, err := s.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			if hits := s.Stats().Cache.Hits - base; hits == 0 {
				t.Error("measured reads never hit the value cache")
			}
		})
	}
}

// TestShardedBatchAllocsTwoCallers extends the guards to the sharded batch
// fan-out under concurrency: two callers run batches against the same shards
// at once — each batch takes its own lane set from the DB's free list
// and visits its shards one lock at a time — and the steady state must still
// allocate nothing, with and without a tracer. AllocsPerRun counts every
// goroutine's mallocs, so the background caller's batches are measured too.
func TestShardedBatchAllocsTwoCallers(t *testing.T) {
	const nkeys = 16
	newBatch := func(prefix string) (keys, vals [][]byte) {
		keys, vals = make([][]byte, nkeys), make([][]byte, nkeys)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("%s%02d", prefix, i))
			vals[i] = make([]byte, 96)
		}
		return keys, vals
	}
	// measure runs batch("b") on a background goroutine for as long as the
	// foreground measures batch("a").
	measure := func(t *testing.T, what string, batch func(prefix string) func()) {
		t.Helper()
		fg, bg := batch("a"), batch("b")
		for r := 0; r < 8; r++ { // warm pools, scratch, and both lane sets
			fg()
			bg()
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					bg()
				}
			}
		}()
		assertZeroAllocs(t, what, 400, fg)
		close(stop)
		<-done
	}
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			// Writes on a NAND-off stack, reads on a NAND-on one, as in
			// TestShardedAllocsSteadyState.
			w, err := bandslim.OpenSharded(bandslim.ShardedConfig{
				Shards:   2,
				PerShard: allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, false, tr),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			measure(t, "sharded DB.PutBatch x2 callers", func(prefix string) func() {
				keys, vals := newBatch(prefix)
				return func() {
					if err := w.PutBatch(keys, vals); err != nil {
						t.Error(err)
					}
				}
			})

			cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
			cfg.Submission = bandslim.SubmissionConfig{QueueDepth: 8}
			g, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, prefix := range []string{"a", "b"} {
				keys, vals := newBatch(prefix)
				if err := g.PutBatch(keys, vals); err != nil {
					t.Fatal(err)
				}
			}
			measure(t, "sharded DB.GetBatchSparse x2 callers", func(prefix string) func() {
				keys, lanes := newBatch(prefix)
				miss := make([]bool, nkeys)
				return func() {
					if _, err := g.GetBatchSparse(keys, lanes, miss); err != nil || miss[0] {
						t.Errorf("GetBatchSparse: miss=%v err=%v", miss[0], err)
					}
				}
			})
		})
	}
}
