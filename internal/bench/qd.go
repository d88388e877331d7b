package bench

// Queue-depth sweep: how far the async submission window lifts read
// throughput over the paper's synchronous testbed. Every figure in the
// output is simulated (no wall-clock fields), so two runs with the same
// scale and seed produce byte-identical BENCH_qd.json — the determinism
// gate TestEveryExperimentRunsAndRepeats relies on that.

import (
	"fmt"

	"bandslim"
	"bandslim/internal/sim"
)

// qdDepths is the sweep: 1 is the paper's sync passthrough, the rest open
// the window.
var qdDepths = []int{1, 2, 4, 8, 16, 32}

// qdShards is the fixed shard count of the sweep's baseline stack.
const qdShards = 4

// qdChunk is the keys-per-GetBatchSparse call during the read phase.
const qdChunk = 256

// QDPoint is one depth measurement, shaped for BENCH_qd.json. All fields
// are simulated and deterministic.
type QDPoint struct {
	Depth         int     `json:"depth"`
	Shards        int     `json:"shards"`
	Ops           int64   `json:"ops"`
	SimElapsedUs  float64 `json:"sim_elapsed_us"` // read-phase simulated time
	SimKops       float64 `json:"sim_kops"`       // ops per simulated second / 1000
	SimUsPerOp    float64 `json:"sim_us_per_op"`  // read-phase time / ops
	ReadRespUs    float64 `json:"read_resp_us"`   // mean simulated read response
	ReadRespP99Us float64 `json:"read_resp_p99_us"`
	MMIOBytes     int64   `json:"mmio_bytes"`      // read-phase doorbell traffic
	SpeedupVsSync float64 `json:"speedup_vs_sync"` // SimKops / depth-1 SimKops
}

// runQDPoint builds a fresh 4-shard stack at the given depth, loads the
// keyspace, then reads every key back in qdChunk batches and reports the
// read phase in simulated terms.
func runQDPoint(o Options, depth int) (QDPoint, error) {
	cfg := headlineConfig()
	cfg.Submission = bandslim.WindowedSubmission(depth)
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: qdShards, PerShard: cfg})
	if err != nil {
		return QDPoint{}, err
	}
	defer s.Close()

	nkeys := max(o.Scale, qdChunk)
	rng := sim.NewRNG(o.Seed ^ 0x9D)
	keys, _, err := loadKeyspace(s, "qd", nkeys, 2048, qdChunk, rng)
	if err != nil {
		return QDPoint{}, fmt.Errorf("bench: qd depth=%d: fill: %w", depth, err)
	}

	// Read back in a seeded uniform-random order. Insertion order would
	// visit the packed vLog pages sequentially — consecutive reads landing
	// on the same NAND way — which serializes any window; random reads
	// spread across channels and ways, the access pattern the depth sweep
	// is about.
	order := shuffled(keys, rng)
	loaded := s.Stats()
	dst := make([][]byte, qdChunk)
	miss := make([]bool, qdChunk)
	var ops int64
	for at := 0; at < nkeys; at += qdChunk {
		end := min(at+qdChunk, nkeys)
		if err := readBack(s, order[at:end], dst[:end-at], miss[:end-at], 0); err != nil {
			return QDPoint{}, fmt.Errorf("bench: qd depth=%d: read: %w", depth, err)
		}
		ops += int64(end - at)
	}
	st := s.Stats()

	elapsed := st.Host.Elapsed - loaded.Host.Elapsed
	return QDPoint{
		Depth:         depth,
		Shards:        qdShards,
		Ops:           ops,
		SimElapsedUs:  elapsed.Micros(),
		SimKops:       simKops(ops, elapsed),
		SimUsPerOp:    elapsed.Micros() / float64(ops),
		ReadRespUs:    st.Host.ReadResp.Mean.Micros(),
		ReadRespP99Us: st.Host.ReadResp.P99.Micros(),
		MMIOBytes:     st.PCIe.MMIOBytes - loaded.PCIe.MMIOBytes,
	}, nil
}

// RunQDSweep sweeps the submission window depth on the 4-shard baseline
// stack. Every column is simulated, so the sweep doubles as a determinism
// check: identical options must reproduce the table bit-for-bit.
func RunQDSweep(o Options) (*Table, []QDPoint, error) {
	o = o.normalized()
	t := &Table{
		ID: "qd", Title: "Queue Depth Sweep: Async Submission Window vs Sync Passthrough",
		XLabel:  "depth",
		Columns: []string{"sim_kops", "sim_us_op", "read_p99_us", "mmio_KiB", "speedup_vs_sync"},
		Notes: []string{
			fmt.Sprintf("scale=%d keys, %d shards, read phase in %d-key GetBatchSparse chunks", o.Scale, qdShards, qdChunk),
			"depth 1 = the paper's synchronous testbed; depth N = async window with doorbell batching + 2µs coalescing",
			"all values simulated and deterministic for a given -scale/-seed",
		},
	}
	var points []QDPoint
	var syncKops float64
	for _, depth := range qdDepths {
		p, err := runQDPoint(o, depth)
		if err != nil {
			return nil, nil, err
		}
		if depth == 1 {
			syncKops = p.SimKops
		}
		if syncKops > 0 {
			p.SpeedupVsSync = p.SimKops / syncKops
		}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", depth),
			p.SimKops, p.SimUsPerOp, p.ReadRespP99Us, float64(p.MMIOBytes)/1024, p.SpeedupVsSync)
	}
	return t, points, nil
}
