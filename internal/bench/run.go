package bench

import (
	"fmt"
	"sort"

	"bandslim"
	"bandslim/internal/nand"
	"bandslim/internal/pagebuf"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// Options scale and shape an experiment run.
type Options struct {
	// Scale is the number of operations per data point. The paper uses
	// 1 M (10 M for Fig. 11); the default keeps full-suite runtimes and
	// memory sane — traffic scales linearly and simulated response times are
	// scale-invariant, so shapes are unaffected; NAND counts scale linearly
	// only while the index is shallow (EXPERIMENTS.md, "Scale").
	Scale int
	// Seed feeds the workload generators.
	Seed uint64
}

// DefaultOptions returns the default scale (20k ops per point).
func DefaultOptions() Options { return Options{Scale: 20000, Seed: 42} }

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = DefaultOptions().Scale
	}
	return o
}

// benchGeometry keeps the real page size and Cosmos+ parallelism while
// bounding mapping-table memory.
func benchGeometry() nand.Geometry {
	return nand.Geometry{
		Channels:       4,
		WaysPerChannel: 8,
		BlocksPerWay:   128,
		PagesPerBlock:  128,
		PageSize:       16 * 1024,
	}
}

// benchConfig is the one stack every experiment opens: the library defaults
// on the bench geometry, with the transfer method, packing policy and NAND
// switch under test.
func benchConfig(method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool) bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	cfg.DisableNAND = !nandOn
	cfg.Device.Geometry = benchGeometry()
	return cfg
}

// headlineConfig is the paper's headline configuration — Adaptive transfer,
// Selective Packing with Backfilling, NAND on — so a run shows the full
// command fetch → DMA → memcpy → NAND program chain.
func headlineConfig() bandslim.Config {
	return benchConfig(bandslim.Adaptive, bandslim.BackfillPacking, true)
}

// runResult carries one configuration's measurements.
type runResult struct {
	Stats        bandslim.Stats
	PayloadBytes int64
	Ops          int64
}

// run drives a workload through a fresh stack.
func run(gen workload.Scenario, method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool) (runResult, error) {
	return runWith(gen, benchConfig(method, policy, nandOn))
}

// runWith drives a workload through a stack built from an explicit config.
func runWith(gen workload.Scenario, cfg bandslim.Config) (runResult, error) {
	db, err := bandslim.Open(cfg)
	if err != nil {
		return runResult{}, err
	}
	defer db.Close()
	res, err := DriveScenario(db, gen, 1, nil)
	if err != nil {
		return runResult{}, err
	}
	// Timing metrics (response, throughput) reflect the steady-state run;
	// the final flush below drains the open window and would skew them at
	// reduced scale.
	timing := db.Stats()
	if !cfg.DisableNAND {
		// Count the buffered tail: the paper's NAND totals cover the whole
		// workload, and at reduced scale the open buffer entries and
		// MemTable are not negligible.
		if err := db.Flush(); err != nil {
			return runResult{}, fmt.Errorf("bench: %s: flush: %w", gen.Name(), err)
		}
	}
	s := db.Stats()
	s.Host.WriteResp.Mean = timing.Host.WriteResp.Mean
	s.Host.WriteResp.P99 = timing.Host.WriteResp.P99
	s.Host.Elapsed = timing.Host.Elapsed
	s.Host.ThroughputKops = timing.Host.ThroughputKops
	s.Device.FlushWaitTime = timing.Device.FlushWaitTime
	s.Device.MemcpyTime = timing.Device.MemcpyTime
	return runResult{Stats: s, PayloadBytes: res.BytesWritten, Ops: res.Ops}, nil
}

// loadKeyspace writes n keys "<prefix>%07d" to db in chunk-sized PutBatch
// calls, each value 16..16+spread-1 bytes. The committed artifacts pin how
// rng is consumed: one draw per key, in key order, before the caller draws
// anything else (the read-order shuffle) from the same stream.
func loadKeyspace(db *bandslim.DB, prefix string, n, spread, chunk int, rng *sim.RNG) (keys, vals [][]byte, err error) {
	keys, vals = make([][]byte, n), make([][]byte, n)
	filler := workload.NewValueFiller(1)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s%07d", prefix, i))
		vals[i] = filler.Fill(nil, 16+rng.Intn(spread))
	}
	for at := 0; at < n; at += chunk {
		end := min(at+chunk, n)
		if err := db.PutBatch(keys[at:end], vals[at:end]); err != nil {
			return nil, nil, err
		}
	}
	return keys, vals, nil
}

// shuffled returns a copy of keys in a seeded uniform-random order.
func shuffled(keys [][]byte, rng *sim.RNG) [][]byte {
	order := append([][]byte(nil), keys...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// pct reports the nearest-rank q-quantile of a latency class in µs.
func pct(lat []sim.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(q*float64(len(sorted)-1))].Micros()
}

// simKops converts ops over a simulated duration to Kops/s.
func simKops(ops int64, elapsed sim.Duration) float64 {
	if us := elapsed.Micros(); us > 0 {
		return float64(ops) / (us / 1e6) / 1000
	}
	return 0
}

// policyFor maps a paper packing-policy label to the pagebuf policy.
var policyFor = map[string]bandslim.PackingPolicy{
	"Block":    pagebuf.PolicyBlock,
	"All":      pagebuf.PolicyAll,
	"Select":   pagebuf.PolicySelective,
	"Backfill": pagebuf.PolicyBackfill,
}

// workloadsBCDM builds the four mixed workloads of §4.1.
func workloadsBCDM(o Options) []workload.Scenario {
	return []workload.Scenario{
		workload.NewWorkloadB(o.Scale, o.Seed),
		workload.NewWorkloadC(o.Scale, o.Seed),
		workload.NewWorkloadD(o.Scale, o.Seed),
		workload.NewWorkloadM(o.Scale, o.Seed),
	}
}

// workloadLabels are the paper's column names for Fig. 10/12.
var workloadLabels = []string{"W(B)", "W(C)", "W(D)", "W(M)"}

// gb converts bytes to the paper's GB-scale axis (decimal).
func gb(n int64) float64 { return float64(n) / 1e9 }

// mb converts bytes to MB.
func mb(n int64) float64 { return float64(n) / 1e6 }
