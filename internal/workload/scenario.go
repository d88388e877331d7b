package workload

import (
	"fmt"

	"bandslim/internal/sim"
)

// A Scenario is the one op-stream type of this package: the paper's
// write-only workloads (workload.go) and the YCSB-style request streams below
// — reads, updates, inserts, scans, read-modify-writes and deletes — all
// implement it. Every stream is seeded and deterministic; the same
// configuration and seed always produce the identical stream, so any run can
// be captured to a trace (tracefmt.go) and replayed bit-identically. Streams
// are driven closed-loop, each op issued when the previous one completes, as
// db_bench drives the paper's device.

// OpKind classifies one scenario operation.
type OpKind uint8

const (
	// OpPut writes a value of N bytes to Key (load insert or update).
	OpPut OpKind = iota
	// OpGet reads Key.
	OpGet
	// OpDelete removes Key.
	OpDelete
	// OpScan iterates N pairs in key order starting at Key.
	OpScan
	// OpRMW reads Key, then writes a fresh N-byte value back to it.
	OpRMW
	opKinds // count sentinel
)

// opKindNames are the trace-format verbs, indexed by OpKind.
var opKindNames = [opKinds]string{"put", "get", "del", "scan", "rmw"}

// String returns the trace-format verb for k.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ParseOpKind maps a trace-format verb back to its kind.
func ParseOpKind(s string) (OpKind, bool) {
	for k, name := range opKindNames {
		if s == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// ScenarioOp is one operation of a scenario stream.
type ScenarioOp struct {
	Kind OpKind
	// Key is the primary key (scan start key for OpScan).
	Key []byte
	// N is the value size for OpPut/OpRMW and the entry count for OpScan;
	// 0 for OpGet/OpDelete.
	N int
}

// Scenario produces a finite, deterministic operation stream.
type Scenario interface {
	// Next returns the next operation; ok is false when exhausted. The Key
	// slice is owned by the caller.
	Next() (op ScenarioOp, ok bool)
	// Name identifies the scenario in reports and trace headers.
	Name() string
}

// ScenarioConfig shapes a YCSB-style scenario.
type ScenarioConfig struct {
	// Records is the initial keyspace size, inserted by the load phase.
	Records int
	// Ops is the number of run-phase operations after the load.
	Ops int
	// Seed drives every random choice the scenario makes.
	Seed uint64
	// Theta is the Zipfian exponent for skewed key choice (0 = 0.99, the
	// YCSB default operating point).
	Theta float64
	// ValueMin and ValueMax bound the uniform value-size draw
	// (0, 0 = 64..1024 bytes).
	ValueMin, ValueMax int
	// ScanMax caps scan lengths, drawn uniformly from [1, ScanMax]
	// (0 = 64).
	ScanMax int
	// Shifts re-seat the zipfian head mid-run, keyed on run-phase op index.
	Shifts HotShifts
}

// HotShift re-seats the hot head of a skewed key-choice distribution at a
// run-phase op: from the 0-based op index Op onward, every drawn key index is
// rotated by Rotate positions through the initial keyspace. Offsets are
// absolute, not cumulative — the shift in effect at op i is the last one with
// Op <= i.
type HotShift struct {
	Op     int
	Rotate int
}

// HotShifts is a schedule of hotspot shifts ordered by Op.
type HotShifts []HotShift

// Validate checks ordering and bounds.
func (hs HotShifts) Validate() error {
	for i, s := range hs {
		if s.Rotate < 0 {
			return fmt.Errorf("workload: shift %d: negative rotation %d", i, s.Rotate)
		}
		if i > 0 && hs[i-1].Op >= s.Op {
			return fmt.Errorf("workload: shift %d: op %d not after previous %d", i, s.Op, hs[i-1].Op)
		}
	}
	return nil
}

// Offset reports the rotation in effect at run-phase op i: the Rotate of the
// last shift whose Op <= i, or 0 before the first shift.
func (hs HotShifts) Offset(i int) int {
	off := 0
	for _, s := range hs {
		if s.Op > i {
			break
		}
		off = s.Rotate
	}
	return off
}

// withDefaults fills the zero-value knobs.
func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.ValueMin == 0 && c.ValueMax == 0 {
		c.ValueMin, c.ValueMax = 64, 1024
	}
	if c.ScanMax == 0 {
		c.ScanMax = 64
	}
	return c
}

// Validate checks the configuration's invariants.
func (c ScenarioConfig) Validate() error {
	c = c.withDefaults()
	if c.Records < 1 {
		return fmt.Errorf("workload: scenario needs Records >= 1, got %d", c.Records)
	}
	if c.Ops < 0 {
		return fmt.Errorf("workload: negative Ops %d", c.Ops)
	}
	if c.ValueMin < 1 || c.ValueMax < c.ValueMin {
		return fmt.Errorf("workload: need 1 <= ValueMin <= ValueMax, got %d..%d",
			c.ValueMin, c.ValueMax)
	}
	if c.ScanMax < 1 {
		return fmt.Errorf("workload: ScanMax must be >= 1, got %d", c.ScanMax)
	}
	return c.Shifts.Validate()
}

// opClass is a run-phase operation class with its share of the mix.
type opClass struct {
	kind   OpKind
	share  float64
	insert bool // key is a fresh insert, not a skewed existing-key choice
	latest bool // skew over recency ranks (read-latest) instead of scrambled
}

// mixes defines the YCSB core workloads plus the "mixed" harness scenario.
// Shares within a scenario sum to 1.
var mixes = map[string][]opClass{
	// A: update-heavy — 50% read / 50% update, zipfian.
	"ycsb-a": {{kind: OpGet, share: 0.5}, {kind: OpPut, share: 0.5}},
	// B: read-mostly — 95% read / 5% update, zipfian.
	"ycsb-b": {{kind: OpGet, share: 0.95}, {kind: OpPut, share: 0.05}},
	// C: read-only, zipfian.
	"ycsb-c": {{kind: OpGet, share: 1.0}},
	// D: read-latest — 95% read over recency ranks / 5% insert; the
	// keyspace grows insert-ordered and the newest keys stay hottest.
	"ycsb-d": {
		{kind: OpGet, share: 0.95, latest: true},
		{kind: OpPut, share: 0.05, insert: true},
	},
	// E: scan-heavy — 95% short scans / 5% insert.
	"ycsb-e": {
		{kind: OpScan, share: 0.95},
		{kind: OpPut, share: 0.05, insert: true},
	},
	// F: read-modify-write — 50% read / 50% RMW, zipfian.
	"ycsb-f": {{kind: OpGet, share: 0.5}, {kind: OpRMW, share: 0.5}},
	// mixed: every op kind in one stream, including deletes — the scenario
	// the differential and replay harnesses lean on for full coverage.
	"mixed": {
		{kind: OpGet, share: 0.30},
		{kind: OpPut, share: 0.30},
		{kind: OpPut, share: 0.10, insert: true},
		{kind: OpDelete, share: 0.10},
		{kind: OpScan, share: 0.10},
		{kind: OpRMW, share: 0.10},
	},
}

// MixShares reports the run-phase share of each op kind for a name in
// ScenarioNames, or nil for any other name.
func MixShares(name string) map[OpKind]float64 {
	classes, ok := mixes[name]
	if !ok {
		return nil
	}
	shares := map[OpKind]float64{}
	for _, c := range classes {
		shares[c.kind] += c.share
	}
	return shares
}

// ScenarioNames lists the buildable scenario names in canonical order.
func ScenarioNames() []string {
	return []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f", "mixed"}
}

// YCSB is a seeded YCSB-style scenario: a load phase inserting Records keys
// followed by Ops run-phase operations drawn from the workload's mix.
type YCSB struct {
	name    string
	cfg     ScenarioConfig
	classes []opClass
	cum     []float64
	rng     *sim.RNG
	zipf    *Zipfian
	count   int // current keyspace size (grows with inserts)
	loaded  int // load-phase progress
	done    int // run-phase progress
}

// NewScenario builds the named scenario ("ycsb-a".."ycsb-f" or "mixed"; the
// bare letters "a".."f" are accepted as shorthand).
func NewScenario(name string, cfg ScenarioConfig) (*YCSB, error) {
	canon := name
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'f' {
		canon = "ycsb-" + name
	}
	classes, ok := mixes[canon]
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario %q (want %v)", name, ScenarioNames())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cum := make([]float64, len(classes))
	sum := 0.0
	for i, c := range classes {
		sum += c.share
		cum[i] = sum
	}
	rng := sim.NewRNG(cfg.Seed)
	zipf, err := NewZipfian(cfg.Records, cfg.Theta, rng.Split().Uint64())
	if err != nil {
		return nil, err
	}
	// A discarded draw: it seeded the simulated arrival clock the scenarios
	// no longer have, and taking it keeps every seed's stream unchanged.
	rng.Uint64()
	return &YCSB{
		name:    canon,
		cfg:     cfg,
		classes: classes,
		cum:     cum,
		rng:     rng,
		zipf:    zipf,
	}, nil
}

// Name implements Scenario.
func (y *YCSB) Name() string { return y.name }

// scenarioKey renders key number n in the scenario keyspace.
func scenarioKey(n int) []byte {
	return []byte(fmt.Sprintf("y%08d", n))
}

// chooseKey picks an existing key number for a skewed access by run-phase
// op i.
func (y *YCSB) chooseKey(c opClass, i int) int {
	rank := y.zipf.Next()
	if c.latest {
		// Recency rank: 0 is the most recently inserted key.
		if rank >= y.count {
			rank = y.count - 1
		}
		return y.count - 1 - rank
	}
	// Mixing spreads the ranks over the keyspace, so the hot head is not a
	// contiguous key range. Collisions merely merge rank probabilities, as in
	// YCSB's hashed key chooser.
	n := int(sim.Mix64(uint64(rank)) % uint64(y.cfg.Records))
	if rot := y.cfg.Shifts.Offset(i); rot != 0 {
		n = (n + rot) % y.cfg.Records
	}
	return n
}

// valueSize draws a run-phase value size.
func (y *YCSB) valueSize() int {
	return y.cfg.ValueMin + y.rng.Intn(y.cfg.ValueMax-y.cfg.ValueMin+1)
}

// Next implements Scenario.
func (y *YCSB) Next() (ScenarioOp, bool) {
	if y.loaded < y.cfg.Records {
		n := y.loaded
		y.loaded++
		y.count++
		return ScenarioOp{Kind: OpPut, Key: scenarioKey(n), N: y.valueSize()}, true
	}
	if y.done >= y.cfg.Ops {
		return ScenarioOp{}, false
	}
	idx := y.done
	y.done++
	x := y.rng.Float64()
	class := y.classes[len(y.classes)-1]
	for i, c := range y.cum {
		if x < c {
			class = y.classes[i]
			break
		}
	}
	op := ScenarioOp{Kind: class.kind}
	switch {
	case class.insert:
		op.Key = scenarioKey(y.count)
		op.N = y.valueSize()
		y.count++
	case class.kind == OpScan:
		op.Key = scenarioKey(y.chooseKey(class, idx))
		op.N = 1 + y.rng.Intn(y.cfg.ScanMax)
	case class.kind == OpPut || class.kind == OpRMW:
		op.Key = scenarioKey(y.chooseKey(class, idx))
		op.N = y.valueSize()
	default: // get, delete
		op.Key = scenarioKey(y.chooseKey(class, idx))
	}
	return op, true
}
