package bench

// YCSB-style scenario suite + deterministic trace replay. DriveScenario is
// the one execution engine every op stream shares: the figure and ablation
// fills (run, readPoint, scanPoint, the compaction cells), the ycsb
// experiment below, the `bandslim-cli trace record|replay` subcommands, and
// the root replay-equivalence tests all push ops through it, so a recorded
// trace replayed against a fresh stack takes exactly the code path the live
// generator run took. Every figure is simulated; identical options produce
// byte-identical BENCH_ycsb.json (the TestEveryExperimentRunsAndRepeats gate).

import (
	"fmt"

	"bandslim"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// ScenarioResult aggregates one scenario run: per-class op counts and
// virtual-clock latency samples.
type ScenarioResult struct {
	Name    string
	Ops     int64 // total executed, load phase included
	Reads   int64
	Updates int64 // puts, load inserts included
	Deletes int64
	Scans   int64
	RMWs    int64
	// Misses counts reads (incl. RMW reads) of absent keys.
	Misses int64
	// ScanEntries is the total pairs stepped over by all scans.
	ScanEntries int64
	// BytesWritten sums put/rmw value payloads.
	BytesWritten int64
	// Elapsed is the simulated time the run spanned.
	Elapsed sim.Duration

	readLat, updateLat, scanLat, rmwLat []sim.Duration
}

// SimKops reports simulated throughput over the whole run.
func (r ScenarioResult) SimKops() float64 { return simKops(r.Ops, r.Elapsed) }

// DriveScenario executes a scenario against db, timing every op on the
// virtual clock. Value contents are regenerated deterministically from
// valueSeed in op order, so a replayed trace writes the recorded run's
// exact bytes. When rec is non-nil every op is appended to it (keys copied)
// before execution — recording a run and replaying the resulting trace is
// bit-identical to the live run by construction.
func DriveScenario(db *bandslim.DB, s workload.Scenario, valueSeed uint64, rec *workload.Trace) (ScenarioResult, error) {
	res := ScenarioResult{Name: s.Name()}
	if rec != nil {
		rec.Seed = valueSeed
	}
	filler := workload.NewValueFiller(valueSeed)
	var valBuf, readBuf []byte
	start := db.Now()
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		if rec != nil {
			rec.Append(op)
		}
		res.Ops++
		t0 := db.Now()
		switch op.Kind {
		case OpPut:
			valBuf = filler.Fill(valBuf, op.N)
			if err := db.Put(op.Key, valBuf); err != nil {
				return res, fmt.Errorf("bench: %s: put %q: %w", s.Name(), op.Key, err)
			}
			res.Updates++
			res.BytesWritten += int64(op.N)
			res.updateLat = append(res.updateLat, db.Now().Sub(t0))
		case OpGet:
			v, err := db.GetInto(op.Key, readBuf[:0])
			switch {
			case err == nil:
				readBuf = v
			case bandslim.IsNotFound(err):
				res.Misses++
			default:
				return res, fmt.Errorf("bench: %s: get %q: %w", s.Name(), op.Key, err)
			}
			res.Reads++
			res.readLat = append(res.readLat, db.Now().Sub(t0))
		case OpDelete:
			if err := db.Delete(op.Key); err != nil {
				return res, fmt.Errorf("bench: %s: del %q: %w", s.Name(), op.Key, err)
			}
			res.Deletes++
		case OpScan:
			it, err := db.NewIterator(op.Key)
			if err != nil {
				return res, fmt.Errorf("bench: %s: scan %q: %w", s.Name(), op.Key, err)
			}
			for n := 0; n < op.N && it.Valid(); n++ {
				res.ScanEntries++
				it.Next()
			}
			if err := it.Err(); err != nil {
				return res, fmt.Errorf("bench: %s: scan %q: %w", s.Name(), op.Key, err)
			}
			res.Scans++
			res.scanLat = append(res.scanLat, db.Now().Sub(t0))
		case OpRMW:
			v, err := db.GetInto(op.Key, readBuf[:0])
			switch {
			case err == nil:
				readBuf = v
			case bandslim.IsNotFound(err):
				res.Misses++
			default:
				return res, fmt.Errorf("bench: %s: rmw read %q: %w", s.Name(), op.Key, err)
			}
			valBuf = filler.Fill(valBuf, op.N)
			if err := db.Put(op.Key, valBuf); err != nil {
				return res, fmt.Errorf("bench: %s: rmw write %q: %w", s.Name(), op.Key, err)
			}
			res.RMWs++
			res.BytesWritten += int64(op.N)
			res.rmwLat = append(res.rmwLat, db.Now().Sub(t0))
		default:
			return res, fmt.Errorf("bench: %s: unknown op kind %v", s.Name(), op.Kind)
		}
	}
	res.Elapsed = db.Now().Sub(start)
	return res, nil
}

// Re-exported op kinds so DriveScenario's switch reads naturally.
const (
	OpPut    = workload.OpPut
	OpGet    = workload.OpGet
	OpDelete = workload.OpDelete
	OpScan   = workload.OpScan
	OpRMW    = workload.OpRMW
)

// YCSBPoint is one scenario's row, shaped for BENCH_ycsb.json.
type YCSBPoint struct {
	Scenario     string  `json:"scenario"`
	Records      int     `json:"records"`
	Ops          int64   `json:"ops"`
	Reads        int64   `json:"reads"`
	Updates      int64   `json:"updates"`
	Scans        int64   `json:"scans"`
	RMWs         int64   `json:"rmws"`
	Deletes      int64   `json:"deletes"`
	Misses       int64   `json:"misses"`
	ScanEntries  int64   `json:"scan_entries"`
	BytesWritten int64   `json:"bytes_written"`
	SimElapsedMs float64 `json:"sim_elapsed_ms"`
	SimKops      float64 `json:"sim_kops"`
	ReadP50Us    float64 `json:"read_p50_us"`
	ReadP99Us    float64 `json:"read_p99_us"`
	UpdateP50Us  float64 `json:"update_p50_us"`
	UpdateP99Us  float64 `json:"update_p99_us"`
	ScanP99Us    float64 `json:"scan_p99_us"`
	RMWP99Us     float64 `json:"rmw_p99_us"`
}

// ycsbMixTolerance is the acceptance band on each scenario's realized op
// mix against its specified shares.
const ycsbMixTolerance = 0.05

// checkMix hard-fails a row whose realized run-phase class fractions drift
// from the scenario's mix — the cheap in-process sanity on the generators
// before the differential harness gets to them.
func checkMix(name string, res ScenarioResult, records int) error {
	runOps := res.Ops - int64(records)
	if runOps <= 0 {
		return nil
	}
	got := map[workload.OpKind]int64{
		OpGet:    res.Reads,
		OpPut:    res.Updates - int64(records),
		OpDelete: res.Deletes,
		OpScan:   res.Scans,
		OpRMW:    res.RMWs,
	}
	for kind, w := range workload.MixShares(name) {
		if g := float64(got[kind]) / float64(runOps); g < w-ycsbMixTolerance || g > w+ycsbMixTolerance {
			return fmt.Errorf("bench: ycsb: %s realized %v fraction %.3f outside %.2f±%.2f",
				name, kind, g, w, ycsbMixTolerance)
		}
	}
	return nil
}

// RunYCSB runs the six core scenarios, each on a fresh stack, and shapes
// the rows for BENCH_ycsb.json. Identical options reproduce the table and
// JSON bit-for-bit.
func RunYCSB(o Options) (*Table, []YCSBPoint, error) {
	o = o.normalized()
	records := o.Scale / 4
	if records < 256 {
		records = 256
	}
	t := &Table{
		ID: "ycsb", Title: "YCSB Core Scenarios (A-F)",
		XLabel:  "scenario",
		Columns: []string{"sim_kops", "read_p50_us", "read_p99_us", "update_p99_us", "scan_p99_us", "rmw_p99_us", "misses"},
		Notes: []string{
			fmt.Sprintf("records=%d, ops=%d per scenario, single shard, zipfian s=0.99", records, o.Scale),
			"A mid-run hotspot shift; D read-latest; E scans; each op issued when the previous completes",
			"all values simulated and deterministic for a given -scale/-seed",
		},
	}
	var points []YCSBPoint
	for _, kind := range []string{"a", "b", "c", "d", "e", "f"} {
		// A re-seats its zipfian head halfway through the run phase.
		var shifts workload.HotShifts
		if kind == "a" {
			shifts = workload.HotShifts{{Op: o.Scale / 2, Rotate: 7919}}
		}
		s, err := workload.NewScenario(kind, workload.ScenarioConfig{
			Records: records,
			Ops:     o.Scale,
			Seed:    o.Seed,
			Shifts:  shifts,
		})
		if err != nil {
			return nil, nil, err
		}
		db, err := bandslim.Open(headlineConfig())
		if err != nil {
			return nil, nil, err
		}
		res, err := DriveScenario(db, s, o.Seed, nil)
		if cerr := db.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		if err := checkMix(s.Name(), res, records); err != nil {
			return nil, nil, err
		}
		p := YCSBPoint{
			Scenario:     s.Name(),
			Records:      records,
			Ops:          res.Ops,
			Reads:        res.Reads,
			Updates:      res.Updates,
			Scans:        res.Scans,
			RMWs:         res.RMWs,
			Deletes:      res.Deletes,
			Misses:       res.Misses,
			ScanEntries:  res.ScanEntries,
			BytesWritten: res.BytesWritten,
			SimElapsedMs: res.Elapsed.Micros() / 1000,
			SimKops:      res.SimKops(),
			ReadP50Us:    pct(res.readLat, 0.50),
			ReadP99Us:    pct(res.readLat, 0.99),
			UpdateP50Us:  pct(res.updateLat, 0.50),
			UpdateP99Us:  pct(res.updateLat, 0.99),
			ScanP99Us:    pct(res.scanLat, 0.99),
			RMWP99Us:     pct(res.rmwLat, 0.99),
		}
		points = append(points, p)
		t.AddRow(p.Scenario, p.SimKops, p.ReadP50Us, p.ReadP99Us,
			p.UpdateP99Us, p.ScanP99Us, p.RMWP99Us, float64(p.Misses))
	}
	return t, points, nil
}
