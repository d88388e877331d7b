package bench

import (
	"bandslim"
	"bandslim/internal/workload"
)

// point is one run: an op stream driven through a fresh stack built from
// cfg. scenario builds the stream anew for every run.
type point struct {
	scenario func() workload.Scenario
	cfg      bandslim.Config
}

// axis is one labelled edit to a point: an x row or a column setup.
type axis struct {
	label string
	edit  func(*point)
}

// column is one series of a grid table: the setup it reads (an index into
// the grid's setups) and the extractor that turns that run into a cell.
type column struct {
	name  string
	setup int
	cell  func(runResult) float64
}

// gridTable is one table a grid fills; its rows are the grid's rows.
type gridTable struct {
	id, title string
	notes     []string
	cols      []column
}

// grid is one experiment over declared axes.
type grid struct {
	xlabel string
	base   point
	rows   []axis
	setups []axis // nil: one setup, the base point as the row leaves it
	tables []gridTable
}

// run runs every (row, setup) point once, row-major, each on a fresh stack,
// and fills every table from those runs.
func (g grid) run() ([]*Table, error) {
	setups := g.setups
	if setups == nil {
		setups = []axis{{edit: func(*point) {}}}
	}
	tables := make([]*Table, len(g.tables))
	for i, gt := range g.tables {
		tables[i] = &Table{ID: gt.id, Title: gt.title, XLabel: g.xlabel, Notes: gt.notes}
		for _, c := range gt.cols {
			tables[i].Columns = append(tables[i].Columns, c.name)
		}
	}
	results := make([]runResult, len(setups))
	for _, row := range g.rows {
		for s, setup := range setups {
			p := g.base
			row.edit(&p)
			setup.edit(&p)
			res, err := runWith(p.scenario(), p.cfg)
			if err != nil {
				return nil, err
			}
			results[s] = res
		}
		for i, gt := range g.tables {
			cells := make([]float64, len(gt.cols))
			for j, c := range gt.cols {
				cells[j] = c.cell(results[c.setup])
			}
			tables[i].AddRow(row.label, cells...)
		}
	}
	return tables, nil
}

// grids is the registry row of an experiment made of grids: their tables,
// in order.
func grids(gs ...func(Options) grid) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		o = o.normalized()
		var res Result
		for _, g := range gs {
			tables, err := g(o).run()
			if err != nil {
				return Result{}, err
			}
			res.Tables = append(res.Tables, tables...)
		}
		return res, nil
	}
}

// axes is one axis per value, labelled by label and applied by set.
func axes[V any](vals []V, label func(V) string, set func(*point, V)) []axis {
	out := make([]axis, len(vals))
	for i, v := range vals {
		out[i] = axis{label(v), func(p *point) { set(p, v) }}
	}
	return out
}

// fills sweeps fillseq's value size, o.Scale Puts per point.
func fills(o Options, sizes ...int) []axis {
	return axes(sizes, sizeLabel, func(p *point, n int) { p.scenario = fillSeq(o, n) })
}

// fillSeq is o.Scale sequential Puts of n-byte values.
func fillSeq(o Options, n int) func() workload.Scenario {
	return func() workload.Scenario { return workload.NewFillSeq(o.Scale, n) }
}

// seeded is one of §4.1's workloads at o's scale and seed.
func seeded[S workload.Scenario](o Options, gen func(int, uint64) S) func() workload.Scenario {
	return func() workload.Scenario { return gen(o.Scale, o.Seed) }
}

// workloads are the column setups of Fig. 10/12: the four mixed workloads
// of §4.1.
func workloads(o Options) []axis {
	return []axis{
		{"W(B)", func(p *point) { p.scenario = seeded(o, workload.NewWorkloadB) }},
		{"W(C)", func(p *point) { p.scenario = seeded(o, workload.NewWorkloadC) }},
		{"W(D)", func(p *point) { p.scenario = seeded(o, workload.NewWorkloadD) }},
		{"W(M)", func(p *point) { p.scenario = seeded(o, workload.NewWorkloadM) }},
	}
}

// method is an axis that switches the transfer method.
func method(label string, m bandslim.TransferMethod) axis {
	return axis{label, func(p *point) { p.cfg.Method = m }}
}

// policies are axes that each switch to the packing policy they name.
func policies(names ...string) []axis {
	return axes(names, func(n string) string { return n }, func(p *point, n string) { p.cfg.Policy = policyFor[n] })
}

// series is one column per setup, each named "<setup>_<suffix>" (the bare
// setup label when suffix is empty) and read by cell.
func series(setups []axis, suffix string, cell func(runResult) float64) []column {
	cols := make([]column, len(setups))
	for i, s := range setups {
		name := s.label
		if suffix != "" {
			name += "_" + suffix
		}
		cols[i] = column{name, i, cell}
	}
	return cols
}

// The extractors several grids share.

func trafficGB(r runResult) float64 { return gb(r.Stats.PCIe.Bytes) }
func respUs(r runResult) float64    { return r.Stats.Host.WriteResp.Mean.Micros() }
func kops(r runResult) float64      { return r.Stats.Host.ThroughputKops }
func nandIO(r runResult) float64    { return float64(r.Stats.Device.NANDPageWrites) }
func memcpyUs(r runResult) float64  { return r.Stats.Device.MemcpyTime.Micros() / float64(r.Ops) }
