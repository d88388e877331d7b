package bench

// Latency-attribution sweep: where each simulated nanosecond of a mixed
// workload goes as the submission window deepens — and the machine check
// that attribution itself is sound. Every point re-runs the stage
// reconstruction over a fresh trace and fails hard if any op violates the
// residual-zero invariant, so every run of the sweep — `make artifacts-check`
// and the determinism test alike — doubles as a correctness gate, not just a
// determinism diff.

import (
	"fmt"

	"bandslim"
	"bandslim/internal/sim"
	"bandslim/internal/spans"
)

// blameDepths is the sweep: the paper's synchronous testbed, a saturated
// window, and a window deep enough that batches fit without queue waits.
var blameDepths = []int{1, 8, 32}

// blameShards is the fixed shard count of the sweep's stack.
const blameShards = 4

// blameChunk is the keys-per-batch-call during the measured phase.
const blameChunk = 128

// blameTraceCap is the per-shard trace ring capacity. Sized for the default
// scale with headroom; a much larger -scale overflows the ring and the point
// reports the truncation instead of hiding it.
const blameTraceCap = 1 << 18

// BlameStageShare is one stage's slice of a point's total attributed time.
type BlameStageShare struct {
	Stage   string  `json:"stage"`
	TotalNS int64   `json:"total_ns"`
	Share   float64 `json:"share"`
}

// BlamePoint is one depth measurement, shaped for BENCH_blame.json. All
// fields are simulated and deterministic.
type BlamePoint struct {
	Depth           int               `json:"depth"`
	Shards          int               `json:"shards"`
	Ops             int               `json:"ops"`
	Commands        int               `json:"commands"`
	Retries         int               `json:"retries"`
	Unclaimed       int               `json:"unclaimed"`
	Incomplete      int               `json:"incomplete"`
	TruncatedEvents int64             `json:"truncated_events"`
	E2EMeanUs       float64           `json:"e2e_mean_us"`
	GetP99Us        float64           `json:"get_p99_us"`
	GetTailStage    string            `json:"get_tail_stage"` // dominant stage of the get p99 tail
	Stages          []BlameStageShare `json:"stages"`
}

// runBlamePoint builds a fresh traced stack at the given depth, loads the
// keyspace untraced, then traces a mixed measured phase (rewrites, random
// reads with misses, deletes) and attributes every op.
func runBlamePoint(o Options, depth int) (BlamePoint, error) {
	cfg := headlineConfig()
	cfg.Submission = qdSubmission(depth)
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:        blameShards,
		PerShard:      cfg,
		TraceCapacity: blameTraceCap,
	})
	if err != nil {
		return BlamePoint{}, err
	}
	defer s.Close()

	nkeys := max(o.Scale, blameChunk)
	rng := sim.NewRNG(o.Seed ^ 0xB1A3E)
	keys, vals, err := loadKeyspace(s, "bl", nkeys, 2048, blameChunk, rng)
	if err != nil {
		return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: fill: %w", depth, err)
	}

	// The fill is warm-up: attribution measures the steady-state phase.
	s.ResetTrace()

	// Measured phase: rewrite an eighth of the keyspace, read everything in
	// a seeded random order with a sprinkle of guaranteed misses, delete a
	// tail slice — every op kind and the miss path land in the trace.
	order := shuffled(keys, rng)
	for at := 0; at < nkeys/8; at += blameChunk {
		end := min(at+blameChunk, nkeys/8)
		if err := s.PutBatch(order[at:end], vals[at:end]); err != nil {
			return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: rewrite: %w", depth, err)
		}
	}
	dst := make([][]byte, blameChunk)
	miss := make([]bool, blameChunk)
	for at := 0; at < nkeys; at += blameChunk {
		end := min(at+blameChunk, nkeys)
		batch := order[at:end]
		if at%(8*blameChunk) == 0 {
			// Swap one key for a never-written one: the sparse miss path.
			batch = append([][]byte(nil), batch...)
			batch[0] = []byte(fmt.Sprintf("bl-miss%05d", at))
			if _, err := s.GetBatchSparse(batch, dst[:len(batch)], miss[:len(batch)]); err != nil {
				return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: sparse read: %w", depth, err)
			}
			continue
		}
		if _, err := s.GetBatch(batch, dst[:end-at]); err != nil {
			return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: read: %w", depth, err)
		}
	}
	for i := 0; i < nkeys/16; i++ {
		if err := s.Delete(order[i]); err != nil {
			return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: delete: %w", depth, err)
		}
	}

	rep := s.Blame()
	if rep == nil {
		return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: no trace recorder", depth)
	}
	// The hard gate: attribution must partition every op exactly.
	for i := range rep.Ops {
		op := &rep.Ops[i]
		if op.Residual() != 0 {
			return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: op %s shard=%d seq=%d residual %d ns",
				depth, op.Name, op.Shard, op.Seq, int64(op.Residual()))
		}
		for st, d := range op.Stages {
			if d < 0 {
				return BlamePoint{}, fmt.Errorf("bench: blame depth=%d: op %s shard=%d seq=%d stage %s negative",
					depth, op.Name, op.Shard, op.Seq, spans.Stage(st))
			}
		}
	}

	agg := spans.Summarize(rep)
	p := BlamePoint{
		Depth:           depth,
		Shards:          blameShards,
		Ops:             len(rep.Ops),
		Unclaimed:       rep.Unclaimed,
		Incomplete:      rep.Incomplete,
		TruncatedEvents: rep.TruncatedEvents,
	}
	var total, stageTotals [spans.NumStages + 1]sim.Duration // [0] holds e2e
	for _, c := range agg.Classes {
		p.Commands += c.Commands
		p.Retries += c.Retries
		total[0] += c.Total
		for st := spans.Stage(0); st < spans.NumStages; st++ {
			stageTotals[st+1] += c.StageTotal[st]
		}
	}
	if p.Ops > 0 {
		p.E2EMeanUs = total[0].Micros() / float64(p.Ops)
	}
	for st := spans.Stage(0); st < spans.NumStages; st++ {
		share := 0.0
		if total[0] > 0 {
			share = float64(stageTotals[st+1]) / float64(total[0])
		}
		p.Stages = append(p.Stages, BlameStageShare{
			Stage: st.String(), TotalNS: int64(stageTotals[st+1]), Share: share,
		})
	}
	for _, cp := range spans.CriticalPaths(rep) {
		if cp.Op == "get" {
			p.GetP99Us = cp.P99.Micros()
			p.GetTailStage = cp.Stage.String()
		}
	}
	return p, nil
}

// RunBlameSweep sweeps the submission window depth and attributes every op
// of the measured phase to pipeline stages. Identical options reproduce the
// table and JSON bit-for-bit; any residual violation fails the sweep.
func RunBlameSweep(o Options) (*Table, []BlamePoint, error) {
	o = o.normalized()
	t := &Table{
		ID: "blame", Title: "Latency Attribution Sweep: Where Each Nanosecond Goes vs Queue Depth",
		XLabel:  "depth",
		Columns: []string{"ops", "e2e_mean_us", "get_p99_us", "window_pct", "nand_pct", "coalesce_pct", "reap_pct"},
		Notes: []string{
			fmt.Sprintf("scale=%d keys, %d shards, mixed measured phase (rewrites + random reads with misses + deletes)", o.Scale, blameShards),
			"shares are fractions of total attributed time; every op's stages sum exactly to its e2e latency (residual gate)",
			"all values simulated and deterministic for a given -scale/-seed",
		},
	}
	var points []BlamePoint
	for _, depth := range blameDepths {
		p, err := runBlamePoint(o, depth)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		share := func(name string) float64 {
			for _, s := range p.Stages {
				if s.Stage == name {
					return 100 * s.Share
				}
			}
			return 0
		}
		t.AddRow(fmt.Sprintf("%d", depth),
			float64(p.Ops), p.E2EMeanUs, p.GetP99Us,
			share("window_wait"), share("nand"), share("coalesce"), share("reap"))
	}
	return t, points, nil
}
