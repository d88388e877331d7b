package bench

import "testing"

// The compaction table's shape at the smallest scale that reaches a level
// push: the default cell's rewrites per entry sit inside the closed form's
// band under both key orders, ordered keys cost a flush plus one merge and
// re-link the rest, and doubling the L0 batch buys fewer index pages.
func TestCompactionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("three 200 k-Put fills")
	}
	o := Options{Scale: 200_000, Seed: 42}
	col := map[string]int{}
	for i, name := range compactionColumns {
		col[name] = i
	}
	run := func(c compactionCell) []float64 {
		t.Helper()
		cells, err := runCompactionCell(o, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %v", c.label(), cells)
		return cells
	}
	hashed, sequential := run(defaultCompactionCell(false)), run(defaultCompactionCell(true))
	for name, cells := range map[string][]float64{"hashed": hashed, "sequential": sequential} {
		if r, lo, hi := cells[col["rewrites_per_entry"]], cells[col["oracle_lo"]], cells[col["oracle_hi"]]; r < lo || r > hi {
			t.Errorf("default cell, %s keys: %.2f rewrites per entry, outside the oracle band [%.2f, %.2f]", name, r, lo, hi)
		}
	}
	if sequential[col["trivial_moves"]] == 0 || hashed[col["index_pages_per_kput"]] < 2*sequential[col["index_pages_per_kput"]] {
		t.Errorf("sequential keys: %v trivial moves, %.2f index pages per kPut against %.2f hashed",
			sequential[col["trivial_moves"]], sequential[col["index_pages_per_kput"]], hashed[col["index_pages_per_kput"]])
	}
	if hashed[col["waf"]] <= sequential[col["waf"]] || hashed[col["sim_p99_us"]] != sequential[col["sim_p99_us"]] {
		t.Errorf("waf %.2f hashed, %.2f sequential; sim_p99_us %.2f, %.2f: key order should move the first and not the second",
			hashed[col["waf"]], sequential[col["waf"]], hashed[col["sim_p99_us"]], sequential[col["sim_p99_us"]])
	}
	wide := defaultCompactionCell(false)
	wide.l0Trigger *= 2
	if got := run(wide); got[col["index_pages_per_kput"]] >= hashed[col["index_pages_per_kput"]] {
		t.Errorf("L0 trigger %d: %.2f index pages per kPut, no fewer than the default's %.2f",
			wide.l0Trigger, got[col["index_pages_per_kput"]], hashed[col["index_pages_per_kput"]])
	}
}
