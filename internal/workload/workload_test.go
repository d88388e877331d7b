package workload

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"bandslim/internal/sim"
)

func TestFeistelIsPermutation(t *testing.T) {
	f := sim.NewFeistel(42)
	seen := make(map[uint32]bool, 1<<16)
	// Full 2^32 is too slow; verify injectivity over a 2^16 sample plus
	// structured inputs.
	for i := uint32(0); i < 1<<16; i++ {
		v := f.Permute(i)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestSequentialKeysAreOrdered(t *testing.T) {
	k := NewSequentialKeys()
	for i := uint32(0); i < 100; i++ {
		key := k.Next()
		if binary.BigEndian.Uint32(key) != i {
			t.Fatalf("key %d = %x", i, key)
		}
	}
}

func TestRandomKeysUniqueAndSeeded(t *testing.T) {
	a, b := NewRandomKeys(7), NewRandomKeys(7)
	c := NewRandomKeys(8)
	seen := make(map[string]bool)
	diff := false
	for i := 0; i < 10000; i++ {
		ka := a.Next()
		if seen[string(ka)] {
			t.Fatalf("duplicate key at %d", i)
		}
		seen[string(ka)] = true
		if string(ka) != string(b.Next()) {
			t.Fatal("same seed diverged")
		}
		if string(ka) != string(c.Next()) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFillSeq(t *testing.T) {
	w := NewFillSeq(10, 512)
	ops := drainScenario(t, w)
	if len(ops) != 10 {
		t.Fatalf("drained %d ops", len(ops))
	}
	for i, op := range ops {
		if op.Kind != OpPut || op.N != 512 {
			t.Fatalf("op %d = %+v, want a 512 B put", i, op)
		}
		if binary.BigEndian.Uint32(op.Key) != uint32(i) {
			t.Fatalf("op %d key %x", i, op.Key)
		}
	}
	if w.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestWorkloadBRatio(t *testing.T) {
	const n = 100000
	w := NewWorkloadB(n, 1)
	small := 0
	for _, op := range drainScenario(t, w) {
		switch op.N {
		case 8:
			small++
		case 2048:
		default:
			t.Fatalf("unexpected size %d", op.N)
		}
	}
	frac := float64(small) / n
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("small fraction %.3f, want ~0.9", frac)
	}
}

func TestWorkloadCRatio(t *testing.T) {
	const n = 100000
	w := NewWorkloadC(n, 1)
	big := 0
	for _, op := range drainScenario(t, w) {
		if op.N == 2048 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("big fraction %.3f, want ~0.9", frac)
	}
}

func TestWorkloadDUniform(t *testing.T) {
	const n = 90000
	w := NewWorkloadD(n, 1)
	counts := map[int]int{}
	for _, op := range drainScenario(t, w) {
		counts[op.N]++
	}
	if len(counts) != 9 {
		t.Fatalf("%d distinct sizes, want 9", len(counts))
	}
	for size, c := range counts {
		if c < n/9-n/60 || c > n/9+n/60 {
			t.Fatalf("size %d count %d, want ~%d", size, c, n/9)
		}
	}
}

// W(M): max 1 KiB and ~70% under 35 bytes (§4.1).
func TestWorkloadMShape(t *testing.T) {
	const n = 100000
	w := NewWorkloadM(n, 1)
	under35, max := 0, 0
	for _, op := range drainScenario(t, w) {
		if op.N < 35 {
			under35++
		}
		if op.N > max {
			max = op.N
		}
		if op.N < 1 {
			t.Fatalf("non-positive size %d", op.N)
		}
	}
	frac := float64(under35) / n
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("under-35B fraction %.3f, want ~0.70", frac)
	}
	if max > 1024 {
		t.Fatalf("max size %d exceeds 1 KiB", max)
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewMix("x", 10, 0, nil); err == nil {
		t.Fatal("empty sizes accepted")
	}
	if _, err := NewMix("x", 10, 0, []SizeRatio{{8, 0.5}}); err == nil {
		t.Fatal("ratios summing to 0.5 accepted")
	}
	if _, err := NewMix("x", 10, 0, []SizeRatio{{-1, 1.0}}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestValueFillerDeterministicPerSeed(t *testing.T) {
	a, b := NewValueFiller(3), NewValueFiller(3)
	va := a.Fill(nil, 100)
	vb := b.Fill(nil, 100)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed, different fill")
		}
	}
	// Reuse a larger buffer.
	big := a.Fill(va, 50)
	if len(big) != 50 {
		t.Fatalf("reused fill length %d", len(big))
	}
}

// Property: every write-only stream yields exactly n puts with unique keys.
func TestGeneratorsExactCountUniqueKeysProperty(t *testing.T) {
	f := func(seed uint64, nn uint8) bool {
		n := int(nn)%500 + 1
		gens := []Scenario{
			NewFillSeq(n, 64),
			NewWorkloadB(n, seed),
			NewWorkloadC(n, seed),
			NewWorkloadD(n, seed),
			NewWorkloadM(n, seed),
		}
		for _, g := range gens {
			ops := drainScenario(t, g)
			if len(ops) != n {
				return false
			}
			seen := make(map[string]bool, n)
			for _, op := range ops {
				if op.Kind != OpPut || len(op.Key) != 4 || seen[string(op.Key)] || op.N <= 0 {
					return false
				}
				seen[string(op.Key)] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
