package bench

import (
	"encoding/json"
	"fmt"
)

// Result is what one experiment publishes: its tables and, for the sweeps
// whose artifact is machine-readable, the points behind BENCH_<id>.json.
type Result struct {
	Tables []*Table
	// Points is nil when the tables' CSVs are the whole artifact.
	Points any
}

// PointsJSON renders Points as the exact bytes of BENCH_<id>.json.
func (r Result) PointsJSON() ([]byte, error) {
	raw, err := json.MarshalIndent(r.Points, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// experiment is one registry row. A row with a nil run is a suite: it runs,
// in order, every row that names it.
type experiment struct {
	id    string
	suite string
	run   func(Options) (Result, error)
}

// registry is the one list of experiments: Experiments, Run, the suites and
// the CLI's -list all read it, in this order.
var registry = []experiment{
	{"fig3", "all", pair(RunFig3)},
	{"fig4", "all", pair(RunFig4)},
	{"fig8", "all", one(RunFig8)},
	{"fig9", "all", one(RunFig9)},
	{"fig10", "all", many(RunFig10)},
	{"fig11", "all", one(RunFig11)},
	{"fig12", "all", many(RunFig12)},
	{"ablation-sgl", "ablations", one(RunAblationSGL)},
	{"ablation-batch", "ablations", one(RunAblationBatch)},
	{"ablation-dlt", "ablations", one(RunAblationDLT)},
	{"ablation-buffer", "ablations", one(RunAblationBuffer)},
	{"ablation-alpha", "ablations", one(RunAblationAlpha)},
	{"ablation-nand", "ablations", one(RunAblationNAND)},
	{"ablation-pipeline", "ablations", one(RunAblationPipeline)},
	{"breakdown", "ablations", one(RunBreakdown)},
	{"read", "ablations", one(RunReadPath)},
	{"scan", "ablations", one(RunScanPath)},
	{"qd", "", sweep(RunQDSweep)},
	{"blame", "", sweep(RunBlameSweep)},
	{"cache", "", sweep(RunCacheSweep)},
	{"ycsb", "", sweep(RunYCSB)},
	{"thresholds", "", many(RunThresholds)},
	{"compaction", "", one(RunCompaction)},
	{id: "all"},
	{id: "ablations"},
}

// Experiments lists the runnable experiment IDs for CLIs.
func Experiments() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment or suite by ID.
func Run(id string, o Options) (Result, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		if e.run != nil {
			return e.run(o)
		}
		var res Result
		for _, m := range registry {
			if m.suite != id {
				continue
			}
			r, err := m.run(o)
			if err != nil {
				return Result{}, err
			}
			res.Tables = append(res.Tables, r.Tables...)
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
}

// The adapters below lift the runners' natural signatures into registry rows.

func one(f func(Options) (*Table, error)) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		t, err := f(o)
		return Result{Tables: []*Table{t}}, err
	}
}

func pair(f func(Options) (*Table, *Table, error)) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		a, b, err := f(o)
		return Result{Tables: []*Table{a, b}}, err
	}
}

func many(f func(Options) ([]*Table, error)) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		ts, err := f(o)
		return Result{Tables: ts}, err
	}
}

func sweep[P any](f func(Options) (*Table, []P, error)) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		t, points, err := f(o)
		return Result{Tables: []*Table{t}, Points: points}, err
	}
}
