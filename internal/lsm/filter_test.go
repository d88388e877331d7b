package lsm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"bandslim/internal/vlog"
)

// refEntry is what the reference model expects a Get of one key to return.
type refEntry struct {
	addr vlog.Addr
	tomb bool
}

// filterKeys draws n distinct keys of 1 to MaxKeySize bytes, none in skip.
func filterKeys(rng *rand.Rand, n int, skip map[string]bool) [][]byte {
	seen := map[string]bool{}
	maps.Copy(seen, skip)
	var out [][]byte
	for len(out) < n {
		k := make([]byte, 1+rng.Intn(MaxKeySize))
		rng.Read(k)
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	return out
}

// Property: the filters never hide a key. Random Puts, Deletes, Flushes
// (some failed part-way by the store), the cascading compactions they
// trigger and Restores, over keys of every length; at every check each key
// ever written reads as the reference map says — a deleted key as a
// tombstone or not at all, never as the value the tombstone shadows — and
// every key never written misses and reads a page only when a filter passed
// it falsely.
func TestFiltersHaveNoFalseNegatives(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := newHostileStore(1 << 14)
			store.pageSize = 512 // ~20 entries a page: many tables, many filters
			cfg := smallTreeConfig()
			cfg.TablePages = 1
			tr, err := NewTree(cfg, store)
			if err != nil {
				t.Fatal(err)
			}
			keys := filterKeys(rng, 600, nil)
			written := map[string]bool{}
			for _, k := range keys {
				written[string(k)] = true
			}
			absent := filterKeys(rng, 600, written)
			ref := map[string]refEntry{}

			check := func(step int, what string) {
				t.Helper()
				for k, want := range ref {
					e, ok, _, err := tr.Get(0, []byte(k))
					if err != nil {
						t.Fatalf("step %d (%s): Get(%x): %v", step, what, k, err)
					}
					if want.tomb && ok && !e.Tombstone || !want.tomb && (!ok || e.Tombstone || e.Addr != want.addr) {
						t.Fatalf("step %d (%s): Get(%x) = %+v found=%v, want %+v", step, what, k, e, ok, want)
					}
				}
				reads, fp := store.reads, tr.stats.FilterFalsePositives.Value()
				for _, k := range absent {
					if _, ok, _, err := tr.Get(0, k); err != nil || ok {
						t.Fatalf("step %d (%s): absent key %x: found=%v err=%v", step, what, k, ok, err)
					}
				}
				if got, want := store.reads-reads, int(tr.stats.FilterFalsePositives.Value()-fp); got != want {
					t.Fatalf("step %d (%s): %d absent Gets read %d pages, with %d false positives", step, what, len(absent), got, want)
				}
			}

			failed, restores := 0, 0
			for step := 0; step < 6000; step++ {
				switch r := rng.Intn(1000); {
				case r < 10:
					store.failAt = 1 + rng.Intn(60)
					if _, err := tr.Flush(0); err != nil {
						if !errors.Is(err, errHostileWrite) {
							t.Fatal(err)
						}
						failed++
					}
					store.failAt = 0
					check(step, "failed flush")
				case r < 14:
					tr.Restore()
					restores++
					check(step, "restore")
				case r < 26:
					if _, err := tr.Flush(0); err != nil {
						t.Fatal(err)
					}
				case r < 150:
					k := keys[rng.Intn(len(keys))]
					if _, err := tr.Delete(0, k); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = refEntry{tomb: true}
				default:
					k := keys[rng.Intn(len(keys))]
					if _, err := tr.Put(0, k, vlog.Addr(step), 8); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = refEntry{addr: vlog.Addr(step)}
				}
				if step%500 == 0 {
					check(step, "periodic")
				}
			}
			check(6000, "end")
			if tables := levelTables(tr); tables[2] == 0 || failed == 0 || restores == 0 || tr.stats.FilterSkips.Value() == 0 {
				t.Fatalf("levels %v, %d failed flushes, %d restores, %d filter skips: the run did not reach what it checks",
					tables, failed, restores, tr.stats.FilterSkips.Value())
			}
		})
	}
}

// filterStorage is the first word of every filter a tree holds — its live
// tables', those pending release and its free list — which identifies the
// filter's storage.
func filterStorage(tr *Tree) map[*uint64]bool {
	out := map[*uint64]bool{}
	for _, level := range tr.levels {
		for _, table := range level {
			out[&table.filter[0]] = true
		}
	}
	for _, table := range append(tr.pendingTables, tr.build.free...) {
		out[&table.filter[:1][0]] = true
	}
	return out
}

// Once a tree has cycled through its working set of table sizes, a Flush and
// the compactions it cascades into build every filter in the storage of
// filters that earlier compactions freed: no new words.
func TestFilterStorageRecycled(t *testing.T) {
	store := newMemStore(1 << 14)
	store.pageSize = 512
	cfg := smallTreeConfig()
	cfg.TablePages = 1
	tr, err := NewTree(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed working set overwritten in a fixed order: every table a cycle
	// builds has a size an earlier cycle built.
	const nkeys = 400
	round := func() {
		for i := 0; i < nkeys; i++ {
			if _, err := tr.Put(0, cascadeKey(i), vlog.Addr(i), 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < 20; r++ {
		round()
	}
	if tables := levelTables(tr); tables[2] == 0 {
		t.Fatalf("levels %v: the working set never reached L2", tables)
	}
	before, compactions := filterStorage(tr), tr.stats.Compactions.Value()
	for r := 0; r < 5; r++ {
		round()
	}
	if tr.stats.Compactions.Value() == compactions {
		t.Fatal("five rounds ran no compaction")
	}
	for p := range filterStorage(tr) {
		if !before[p] {
			t.Fatalf("a table built after warm-up got new filter storage (%d filters before, %d now)", len(before), len(filterStorage(tr)))
		}
	}
}
