package bench

import (
	"fmt"

	"bandslim"
	"bandslim/internal/lsm"
	"bandslim/internal/workload"
)

// compactionCell is one point of the index write path's design space: the
// order keys arrive in and the three lsm.Config sizes that decide how much of
// the level below a compaction rewrites.
type compactionCell struct {
	sequential                  bool
	l0Trigger, base, tablePages int
}

func (c compactionCell) label() string {
	order := "hashed"
	if c.sequential {
		order = "sequential"
	}
	return fmt.Sprintf("%s/L0=%d/L1=%d/T=%d", order, c.l0Trigger, c.base, c.tablePages)
}

// defaultCompactionCell is lsm.DefaultConfig under hashed keys: what every
// other experiment and the fill_mixgraph benchmark workload run.
func defaultCompactionCell(sequential bool) compactionCell {
	d := lsm.DefaultConfig()
	return compactionCell{sequential, d.L0CompactionTrigger, d.LevelTableBase, d.TablePages}
}

var compactionColumns = []string{
	"index_pages_per_kput", "rewrites_per_entry", "oracle_lo", "oracle_hi",
	"trivial_moves", "waf", "sim_p99_us", "sim_p9999_us",
}

// sequentialKeys re-keys a stream 0, 1, 2, …, keeping its value sizes, so
// the two key orders of a sweep differ in nothing else.
type sequentialKeys struct {
	workload.Scenario
	keys *workload.KeyGen
}

func (g sequentialKeys) Next() (workload.ScenarioOp, bool) {
	op, ok := g.Scenario.Next()
	if ok {
		op.Key = g.keys.Next()
	}
	return op, ok
}

// runCompactionCell fills the headline stack, its tree sized as the cell
// says, with o.Scale W(M) Puts and reports compactionColumns. Rewrites per
// entry is index pages written times entries per page over Puts; the oracle
// columns are the band lsm.Config.RewriteBand derives for the same sizes.
func runCompactionCell(o Options, c compactionCell) ([]float64, error) {
	cfg := headlineConfig()
	cfg.Device.LSM.L0CompactionTrigger = c.l0Trigger
	cfg.Device.LSM.LevelTableBase = c.base
	cfg.Device.LSM.TablePages = c.tablePages
	db, err := bandslim.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var gen workload.Scenario = workload.NewWorkloadM(o.Scale, o.Seed)
	if c.sequential {
		gen = sequentialKeys{gen, workload.NewSequentialKeys()}
	}
	res, err := DriveScenario(db, gen, 1, nil)
	if err != nil {
		return nil, err
	}
	s := db.Stats()
	pageSize := cfg.Device.Geometry.PageSize
	perPage := lsm.EntriesPerPage(pageSize, 4) // KeyGen keys are 4 bytes
	puts := float64(res.Updates)
	lo, hi := cfg.Device.LSM.RewriteBand(int(res.Updates), c.tablePages*perPage, c.sequential)
	return []float64{
		float64(s.Device.IndexPageWrites) * 1000 / puts,
		float64(s.Device.IndexPageWrites) * float64(perPage) / puts,
		lo, hi,
		float64(s.Device.TrivialMoves),
		s.WriteAmplification(res.BytesWritten, pageSize),
		pct(res.updateLat, 0.99), pct(res.updateLat, 0.9999),
	}, nil
}

// RunCompaction sweeps the index write path (ROADMAP item 1(b)): key order x
// L0CompactionTrigger x LevelTableBase x TablePages, one fill of o.Scale W(M)
// Puts per cell. It is a design-space table, not a figure of the paper, and
// only says something at a scale that reaches a level push (>= 200 k Puts).
func RunCompaction(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "compaction", Title: "Index Write Path: Key Order x L0 Trigger x L1 Tables x Table Pages",
		XLabel:  "cell",
		Columns: compactionColumns,
		Notes: []string{
			fmt.Sprintf("scale=%d W(M) Puts per cell, headline stack; counters read before any final flush", o.Scale),
			"rewrites_per_entry = index pages x entries per page / Puts; oracle_lo..hi is lsm.Config.RewriteBand for the cell",
			fmt.Sprintf("the default is %s", defaultCompactionCell(false).label()),
		},
	}
	for _, sequential := range []bool{true, false} {
		for _, l0 := range []int{2, 4, 8} {
			for _, base := range []int{4, 8, 16} {
				for _, pages := range []int{4, 8, 16} {
					c := compactionCell{sequential, l0, base, pages}
					cells, err := runCompactionCell(o, c)
					if err != nil {
						return nil, fmt.Errorf("bench: compaction %s: %w", c.label(), err)
					}
					t.AddRow(c.label(), cells...)
				}
			}
		}
	}
	return t, nil
}
