package lsm

import (
	"testing"

	"bandslim/internal/sim"
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
