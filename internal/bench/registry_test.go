package bench

import (
	"bytes"
	"testing"
)

// published renders what the CLI would write for one run: every table's CSV
// plus, when the experiment has points, BENCH_<id>.json.
func published(t *testing.T, id string, o Options) (Result, map[string][]byte) {
	t.Helper()
	res, err := Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, tb := range res.Tables {
		if tb.ID == "" || len(tb.Rows) == 0 {
			t.Fatalf("table %q (%q) is empty", tb.ID, tb.Title)
		}
		name := tb.ID + ".csv"
		if files[name] != nil {
			t.Fatalf("duplicate table id %s", tb.ID)
		}
		files[name] = []byte(tb.CSV())
	}
	if res.Points != nil {
		raw, err := res.PointsJSON()
		if err != nil {
			t.Fatal(err)
		}
		files["BENCH_"+id+".json"] = raw
	}
	return res, files
}

// TestEveryExperimentRunsAndRepeats is the determinism gate: every ID the
// registry lists runs through Run, produces the tables it should, and
// publishes byte-identical artifacts when run again with the same options —
// nothing host-side (scheduling, map order, wall clock) may leak into a
// simulated result.
func TestEveryExperimentRunsAndRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	// fig3/fig4 publish panels (a) and (b), fig10/fig12 (a)–(d), thresholds
	// the probe table and the derived pair; "all" is fig3a … fig12d and
	// "ablations" the ten studies. Everything else is one table.
	tables := map[string]int{"fig3": 2, "fig4": 2, "fig10": 4, "fig12": 4, "thresholds": 2, "all": 15, "ablations": 10}
	withPoints := map[string]bool{"qd": true, "blame": true, "cache": true, "ycsb": true}
	o := Options{Scale: 300, Seed: 42}
	seen := map[string]bool{}
	for _, id := range Experiments() {
		if seen[id] {
			t.Fatalf("experiment id %s listed twice", id)
		}
		seen[id] = true
		t.Run(id, func(t *testing.T) {
			res, first := published(t, id, o)
			want := tables[id]
			if want == 0 {
				want = 1
			}
			if len(res.Tables) != want {
				t.Fatalf("produced %d tables, want %d", len(res.Tables), want)
			}
			if (res.Points != nil) != withPoints[id] {
				t.Fatalf("points published = %v, want %v", res.Points != nil, withPoints[id])
			}
			_, second := published(t, id, o)
			if len(first) != len(second) {
				t.Fatalf("published %d files, then %d", len(first), len(second))
			}
			for name, a := range first {
				if !bytes.Equal(a, second[name]) {
					t.Errorf("%s differs between two identical runs:\n%s\n---\n%s", name, a, second[name])
				}
			}
		})
	}
}

// The submission window's point: throughput climbs and doorbell traffic
// falls with every step in depth, and a depth-8 window at least doubles the
// paper's synchronous testbed.
func TestQDSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, points, err := RunQDSweep(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(qdDepths) {
		t.Fatalf("got %d points, want %d", len(points), len(qdDepths))
	}
	kops, _ := tb.Column("sim_kops")
	mmio, _ := tb.Column("mmio_KiB")
	for i := 1; i < len(kops); i++ {
		if kops[i] <= kops[i-1] {
			t.Errorf("sim_kops does not rise at depth %d: %v", qdDepths[i], kops)
		}
		if mmio[i] >= mmio[i-1] {
			t.Errorf("mmio_KiB does not fall at depth %d: %v", qdDepths[i], mmio)
		}
	}
	if s, err := tb.Cell("8", "speedup_vs_sync"); err != nil || s < 2 {
		t.Errorf("depth-8 speedup_vs_sync = %.2f (%v), want >= 2", s, err)
	}
}
