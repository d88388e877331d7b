package lsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// ROADMAP item 3(ii): is the number of times the tree rewrites an entry the
// textbook cost of leveled compaction, or inflated? The expectation comes from
// the configuration alone (Config.ExpectedRewrites: MemTableEntries,
// L0CompactionTrigger, LevelTableBase, TablePages, the fan-out of 10 and how
// many levels the Puts populate); the measurement is index pages written
// times entries per page over Puts. The tree must sit inside the band, and
// the lowest-first push this package used to ship must sit outside it, or
// the band decides nothing.
func TestRewritesPerEntryMatchTheClosedForm(t *testing.T) {
	cfg := DefaultConfig()
	perPage := EntriesPerPage(benchPageSize, 8)
	tableEntries := cfg.TablePages * perPage

	// The closed form by hand for the default configuration at 400 k hashed
	// Puts of 8-byte keys: 19 B an entry, 862 a page, 6 896 a table, so L1 caps
	// at 55 168 entries and L2 at 551 680; an L0 batch is 16 384. Flush: 1.
	// Into L1 goes every entry, the level averaging 51 364 of its 55 168 over
	// the fill: 1 + 51 364/16 384 = 4.135. Into L2 go the 344 832 entries L1
	// could not keep, the level averaging half of them: 0.862 x (1 +
	// 172 416/55 168) = 3.556. 8.69 in all.
	if got := cfg.ExpectedRewrites(400_000, tableEntries, false); got < 8.68 || got > 8.70 {
		t.Fatalf("ExpectedRewrites(400 k hashed) = %.3f, by hand 8.69", got)
	}
	l1 := cfg.LevelTableBase * tableEntries

	for _, tc := range []struct {
		name       string
		puts       int
		key        func(int) []byte
		sequential bool
	}{
		{"hashed 400k", 400_000, hashedKey, false},
		{"hashed 700k", 700_000, hashedKey, false}, // past L1 + L2: reaches L3
		{"sequential 400k", 400_000, sequentialKey, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rewrites := func(push func(*Tree, sim.Time, int) (sim.Time, error)) float64 {
				tr, store := fill(t, tc.puts, tc.key, push)
				if populated := levelTables(tr); tc.puts > l1+levelFanout*l1 && populated[3] == 0 {
					t.Fatalf("levels %v: the fill never reached L3", populated)
				}
				return float64(store.writes) * float64(perPage) / float64(tc.puts)
			}
			lo, hi := cfg.RewriteBand(tc.puts, tableEntries, tc.sequential)
			got, was := rewrites(nil), rewrites(lowestFirst)
			t.Logf("%.2f rewrites per entry, band [%.2f, %.2f]; lowest-first %.2f", got, lo, hi, was)
			if got < lo || got > hi {
				t.Errorf("%.2f rewrites per entry, outside [%.2f, %.2f]", got, lo, hi)
			}
			if was <= hi {
				t.Errorf("lowest-first: %.2f rewrites per entry, inside the band's upper limit %.2f", was, hi)
			}
		})
	}
}

// A table's filter answers an absent key falsely at the closed-form rate of a
// bloom filter, (1-e^{-kn/m})^k for n keys, m bits and k probes, within 30 %
// over 100 k probes, whether the keys are sequential big-endian integers or
// Mix64 outputs (the benchmark's keys): the hash leaves no structure of
// either for the probes to collide on.
func TestFilterFalsePositivesMatchTheClosedForm(t *testing.T) {
	const n, probes = 20_000, 100_000
	for _, tc := range []struct {
		name string
		key  func(i int) []byte
	}{
		{"sequential", func(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }},
		{"mix64", func(i int) []byte { return binary.BigEndian.AppendUint64(nil, sim.Mix64(uint64(i))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := newTestTree(t)
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Key: tc.key(i), Addr: vlog.Addr(i), Size: 8}
			}
			slices.SortFunc(entries, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
			table := buildTables(t, tr, entries, 0)[0]
			for _, e := range entries {
				if !table.filter.Has(sim.KeyOf(e.Key).FilterHash()) {
					t.Fatalf("the filter rules out %x, one of its own keys", e.Key)
				}
			}
			fp := 0
			for i := n; i < n+probes; i++ {
				if table.filter.Has(sim.KeyOf(tc.key(i)).FilterHash()) {
					fp++
				}
			}
			m, k := float64(len(table.filter)*64), float64(sim.BloomProbes)
			want := math.Pow(1-math.Exp(-k*n/m), k)
			got := float64(fp) / probes
			t.Logf("%d keys in %.0f bits: false-positive rate %.4f, closed form %.4f", n, m, got, want)
			if got < 0.7*want || got > 1.3*want {
				t.Errorf("false-positive rate %.4f outside [%.4f, %.4f]", got, 0.7*want, 1.3*want)
			}
		})
	}
}
