package workload

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"bandslim/internal/sim"
)

// drainScenario collects a scenario's full op stream.
func drainScenario(t *testing.T, s Scenario) []ScenarioOp {
	t.Helper()
	var ops []ScenarioOp
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	if _, ok := s.Next(); ok {
		t.Fatalf("%s: Next after exhaustion returned an op", s.Name())
	}
	return ops
}

// keyNum decodes the numeric part of a scenario key ("y%08d").
func keyNum(t *testing.T, key []byte) int {
	t.Helper()
	n, err := strconv.Atoi(string(key[1:]))
	if err != nil {
		t.Fatalf("malformed scenario key %q", key)
	}
	return n
}

func TestNewScenarioValidation(t *testing.T) {
	good := ScenarioConfig{Records: 10, Ops: 10, Seed: 1}
	if _, err := NewScenario("nope", good); err == nil {
		t.Error("unknown scenario name accepted")
	}
	bad := []ScenarioConfig{
		{Records: 0, Ops: 10},
		{Records: 10, Ops: -1},
		{Records: 10, Ops: 10, Shifts: HotShifts{{Rotate: -1}}},
	}
	for i, cfg := range bad {
		if _, err := NewScenario("a", cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	for _, name := range append(ScenarioNames(), "a", "f") {
		if _, err := NewScenario(name, good); err != nil {
			t.Errorf("NewScenario(%q): %v", name, err)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	cfg := ScenarioConfig{Records: 200, Ops: 1000, Seed: 42}
	for _, name := range ScenarioNames() {
		a, err := NewScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := NewScenario(name, cfg)
		opsA, opsB := drainScenario(t, a), drainScenario(t, b)
		if !reflect.DeepEqual(opsA, opsB) {
			t.Fatalf("%s: identically seeded runs diverge", name)
		}
		other := cfg
		other.Seed = 43
		c, _ := NewScenario(name, other)
		if reflect.DeepEqual(opsA, drainScenario(t, c)) {
			t.Fatalf("%s: different seeds produced the identical stream", name)
		}
	}
}

func TestScenarioLoadPhaseAndShape(t *testing.T) {
	cfg := ScenarioConfig{Records: 100, Ops: 2000, Seed: 7}
	for _, name := range ScenarioNames() {
		s, err := NewScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := drainScenario(t, s)
		if len(ops) != cfg.Records+cfg.Ops {
			t.Fatalf("%s: got %d ops, want %d", name, len(ops), cfg.Records+cfg.Ops)
		}
		inserts := 0
		for i, op := range ops {
			if i < cfg.Records {
				if op.Kind != OpPut || keyNum(t, op.Key) != i {
					t.Fatalf("%s: load op %d = %+v, want sequential put", name, i, op)
				}
				continue
			}
			n := keyNum(t, op.Key)
			if op.Kind == OpPut && n >= cfg.Records {
				// Fresh insert: must extend the keyspace contiguously.
				if n != cfg.Records+inserts {
					t.Fatalf("%s: insert key %d out of order (want %d)", name, n, cfg.Records+inserts)
				}
				inserts++
			} else if n < 0 || n >= cfg.Records+inserts {
				t.Fatalf("%s: op %d targets key %d outside keyspace of %d",
					name, i, n, cfg.Records+inserts)
			}
			switch op.Kind {
			case OpPut, OpRMW:
				if op.N < 64 || op.N > 1024 {
					t.Fatalf("%s: value size %d outside default 64..1024", name, op.N)
				}
			case OpScan:
				if op.N < 1 || op.N > 64 {
					t.Fatalf("%s: scan length %d outside default 1..64", name, op.N)
				}
			default:
				if op.N != 0 {
					t.Fatalf("%s: %v op carries N=%d", name, op.Kind, op.N)
				}
			}
		}
	}
}

func TestScenarioMixFractions(t *testing.T) {
	const tol = 0.03
	cfg := ScenarioConfig{Records: 500, Ops: 20000, Seed: 11}
	for _, name := range ScenarioNames() {
		s, err := NewScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops := drainScenario(t, s)[cfg.Records:]
		got := map[OpKind]float64{}
		for _, op := range ops {
			got[op.Kind] += 1 / float64(len(ops))
		}
		want := MixShares(name)
		for kind, w := range want {
			if g := got[kind]; math.Abs(g-w) > tol {
				t.Errorf("%s: realized %v fraction %.3f, want %.2f±%.2f", name, kind, g, w, tol)
			}
		}
		for kind, g := range got {
			if want[kind] == 0 {
				t.Errorf("%s: unexpected %v ops (fraction %.3f)", name, kind, g)
			}
		}
	}
}

// TestScenarioZipfianChiSquared checks the realized key histogram of the
// read-only workload against the exact zipfian-through-Mix64 expectation
// with a chi-squared statistic. The run is seeded and deterministic, so the
// bound is a regression tripwire, not a flaky statistical test.
func TestScenarioZipfianChiSquared(t *testing.T) {
	const (
		records = 100
		ops     = 50000
		theta   = 0.99
	)
	s, err := NewScenario("c", ScenarioConfig{Records: records, Ops: ops, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, records)
	for _, op := range drainScenario(t, s)[records:] {
		counts[keyNum(t, op.Key)]++
	}
	// Expected counts: zipfian pmf over ranks, pushed through the rank
	// mix (collisions merge probabilities, exactly as the generator does).
	h := 0.0
	for r := 1; r <= records; r++ {
		h += 1 / math.Pow(float64(r), theta)
	}
	expect := make([]float64, records)
	for r := 0; r < records; r++ {
		p := 1 / math.Pow(float64(r+1), theta) / h
		expect[sim.Mix64(uint64(r))%records] += p * ops
	}
	chi2, df := 0.0, 0
	for k := 0; k < records; k++ {
		if expect[k] < 5 {
			continue // standard chi-squared validity guard for sparse cells
		}
		d := float64(counts[k]) - expect[k]
		chi2 += d * d / expect[k]
		df++
	}
	if df < records/2 {
		t.Fatalf("only %d usable cells; mixing collapsed the keyspace?", df)
	}
	// 99.9th percentile of chi-squared with df≈100 is ~149; allow headroom.
	if limit := 2 * float64(df); chi2 > limit {
		t.Fatalf("chi-squared %.1f over %d cells exceeds %.1f: key histogram "+
			"does not match the zipfian spec", chi2, df, limit)
	}
	if counts[int(sim.Mix64(0)%records)] < ops/10 {
		t.Fatalf("hottest rank drew only %d of %d accesses", counts[sim.Mix64(0)%records], ops)
	}
}

// TestScenarioLatestRecency checks the read-latest workload: reads
// concentrate on the most recently inserted keys even as the keyspace grows.
func TestScenarioLatestRecency(t *testing.T) {
	const records = 100
	s, err := NewScenario("d", ScenarioConfig{Records: records, Ops: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ops := drainScenario(t, s)[records:]
	count := records
	recent, reads := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			count++
		case OpGet:
			reads++
			if keyNum(t, op.Key) >= count-10 {
				recent++
			}
		}
	}
	// The zipfian over recency ranks puts ~56% of mass on the newest 10 of
	// 100 keys (H_10/H_100 at θ=0.99); assert well above the uniform 10%.
	if frac := float64(recent) / float64(reads); frac < 0.4 {
		t.Fatalf("only %.1f%% of reads hit the 10 newest keys; read-latest skew missing",
			frac*100)
	}
}

// TestScenarioHotspotShiftBoundary pins the shift semantics at the exact op:
// with a shift at run-phase op 5, ops 0..4 use the original mapping and op 5
// is already rotated.
func TestScenarioHotspotShiftBoundary(t *testing.T) {
	const (
		records = 100
		rot     = 37
		shiftAt = 5
	)
	base := ScenarioConfig{Records: records, Ops: 50, Seed: 21}
	shifted := base
	shifted.Shifts = HotShifts{{Op: shiftAt, Rotate: rot}}
	plain, err := NewScenario("c", base)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := NewScenario("c", shifted)
	if err != nil {
		t.Fatal(err)
	}
	opsP := drainScenario(t, plain)[records:]
	opsM := drainScenario(t, moved)[records:]
	for i := range opsP {
		want := keyNum(t, opsP[i].Key)
		if i >= shiftAt {
			want = (want + rot) % records
		}
		if got := keyNum(t, opsM[i].Key); got != want {
			t.Fatalf("op %d: key %d, want %d (shift at op %d)", i, got, want, shiftAt)
		}
	}
}

func TestHotShiftsValidate(t *testing.T) {
	cases := []struct {
		name string
		hs   HotShifts
		ok   bool
	}{
		{"empty", nil, true},
		{"single", HotShifts{{Op: 1, Rotate: 5}}, true},
		{"ascending", HotShifts{{Op: 1, Rotate: 5}, {Op: 2, Rotate: 0}}, true},
		{"negative rotate", HotShifts{{Op: 1, Rotate: -1}}, false},
		{"duplicate op", HotShifts{{Op: 1, Rotate: 1}, {Op: 1, Rotate: 2}}, false},
		{"descending", HotShifts{{Op: 2, Rotate: 1}, {Op: 1, Rotate: 2}}, false},
	}
	for _, tc := range cases {
		if err := tc.hs.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestHotShiftsOffsetBoundaries(t *testing.T) {
	hs := HotShifts{{Op: 10, Rotate: 7}, {Op: 20, Rotate: 3}}
	cases := []struct{ op, want int }{
		{0, 0},
		{9, 0},         // one op before the shift: old mapping
		{10, 7},        // exactly at the shift: new mapping already
		{11, 7},        //
		{20, 3},        // offsets are absolute, not cumulative
		{1_000_000, 3}, // last shift holds forever
	}
	for _, tc := range cases {
		if got := hs.Offset(tc.op); got != tc.want {
			t.Errorf("Offset(%d) = %d, want %d", tc.op, got, tc.want)
		}
	}
}
