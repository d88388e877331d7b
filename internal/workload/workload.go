// Package workload generates the key-value request streams the simulator is
// driven with. Every stream is a Scenario (scenario.go); the write-only
// streams of §4.1 are runs of OpPut ops:
//
//   - Workload A: db_bench fillseq — sequential keys, fixed value size.
//   - Workload B: 1 M random pairs, value sizes 8 B : 2 KiB at 9:1.
//   - Workload C: like B with the ratio reversed (1:9).
//   - Workload D: nine sizes (8 B…2 KiB) in random order, equal ratio.
//   - Workload M: a mixgraph-like stream (All_random): values capped at
//     1 KiB with ~70% under 35 bytes, approximating the Facebook
//     production characteristics the paper cites [3].
//
// Their keys are 4-byte and unique, "generated by a hash function with a
// random seed" — implemented as a keyed 32-bit Feistel permutation of a
// counter, so uniqueness is exact and order is pseudo-random. The YCSB-style
// request streams are in scenario.go, their trace format in tracefmt.go.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"

	"bandslim/internal/sim"
)

// KeyGen produces 4-byte keys.
type KeyGen struct {
	f      sim.Feistel
	seq    bool
	cursor uint32
}

// NewSequentialKeys yields keys 0,1,2,… (fillseq ordering).
func NewSequentialKeys() *KeyGen { return &KeyGen{seq: true} }

// NewRandomKeys yields unique pseudo-random 4-byte keys.
func NewRandomKeys(seed uint64) *KeyGen { return &KeyGen{f: sim.NewFeistel(seed)} }

// Next returns the next 4-byte key.
func (k *KeyGen) Next() []byte {
	v := k.cursor
	k.cursor++
	if !k.seq {
		v = k.f.Permute(v)
	}
	key := make([]byte, 4)
	binary.BigEndian.PutUint32(key, v)
	return key
}

// FillSeq is Workload A: n sequential keys with one fixed value size.
type FillSeq struct {
	keys      *KeyGen
	valueSize int
	left      int
	name      string
}

// NewFillSeq builds Workload A.
func NewFillSeq(n, valueSize int) *FillSeq {
	return &FillSeq{
		keys:      NewSequentialKeys(),
		valueSize: valueSize,
		left:      n,
		name:      fmt.Sprintf("A(fillseq,%dB)", valueSize),
	}
}

// Next implements Scenario.
func (w *FillSeq) Next() (ScenarioOp, bool) {
	if w.left == 0 {
		return ScenarioOp{}, false
	}
	w.left--
	return ScenarioOp{Kind: OpPut, Key: w.keys.Next(), N: w.valueSize}, true
}

// Name implements Scenario.
func (w *FillSeq) Name() string { return w.name }

// SizeRatio pairs a value size with its share of the stream.
type SizeRatio struct {
	Size  int
	Ratio float64
}

// Mix is a random-key workload drawing value sizes from a discrete
// distribution (Workloads B, C, D).
type Mix struct {
	keys  *KeyGen
	rng   *sim.RNG
	sizes []SizeRatio
	cum   []float64
	left  int
	name  string
}

// NewMix builds a ratio-mix workload. Ratios must sum to ~1.
func NewMix(name string, n int, seed uint64, sizes []SizeRatio) (*Mix, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("workload: no sizes")
	}
	var sum float64
	cum := make([]float64, len(sizes))
	for i, s := range sizes {
		if s.Size <= 0 || s.Ratio < 0 {
			return nil, fmt.Errorf("workload: bad size ratio %+v", s)
		}
		sum += s.Ratio
		cum[i] = sum
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("workload: ratios sum to %v, want 1", sum)
	}
	r := sim.NewRNG(seed)
	return &Mix{
		keys:  NewRandomKeys(seed + 1),
		rng:   r,
		sizes: sizes,
		cum:   cum,
		left:  n,
		name:  name,
	}, nil
}

// NewWorkloadB returns W(B): 8 B and 2 KiB at 9:1.
func NewWorkloadB(n int, seed uint64) *Mix {
	m, err := NewMix("B(8B:2K=9:1)", n, seed, []SizeRatio{{8, 0.9}, {2048, 0.1}})
	if err != nil {
		panic(err) // static ratios; cannot fail
	}
	return m
}

// NewWorkloadC returns W(C): 8 B and 2 KiB at 1:9.
func NewWorkloadC(n int, seed uint64) *Mix {
	m, err := NewMix("C(8B:2K=1:9)", n, seed, []SizeRatio{{8, 0.1}, {2048, 0.9}})
	if err != nil {
		panic(err)
	}
	return m
}

// NewWorkloadD returns W(D): nine sizes 8 B…2 KiB, equal ratio, random order.
func NewWorkloadD(n int, seed uint64) *Mix {
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	rs := make([]SizeRatio, len(sizes))
	for i, s := range sizes {
		rs[i] = SizeRatio{Size: s, Ratio: 1.0 / float64(len(sizes))}
	}
	m, err := NewMix("D(8B..2K uniform)", n, seed, rs)
	if err != nil {
		panic(err)
	}
	return m
}

// Next implements Scenario.
func (w *Mix) Next() (ScenarioOp, bool) {
	if w.left == 0 {
		return ScenarioOp{}, false
	}
	w.left--
	x := w.rng.Float64()
	size := w.sizes[len(w.sizes)-1].Size
	for i, c := range w.cum {
		if x < c {
			size = w.sizes[i].Size
			break
		}
	}
	return ScenarioOp{Kind: OpPut, Key: w.keys.Next(), N: size}, true
}

// Name implements Scenario.
func (w *Mix) Name() string { return w.name }

// MixGraph is Workload M: db_bench's mixgraph All_random shape — value
// sizes follow the Generalized Pareto distribution Facebook fitted to
// production value sizes [3], capped at 1 KiB. The parameters (σ=14, ξ=0.9)
// are chosen so that ~70% of values fall under 35 bytes, as §4.1 states.
type MixGraph struct {
	keys *KeyGen
	rng  *sim.RNG
	left int
}

// Generalized Pareto parameters of the W(M) value-size model.
const (
	mixSigma = 14.0
	mixXi    = 0.9
	mixCap   = 1024
)

// NewWorkloadM builds W(M).
func NewWorkloadM(n int, seed uint64) *MixGraph {
	return &MixGraph{
		keys: NewRandomKeys(seed + 7),
		rng:  sim.NewRNG(seed),
		left: n,
	}
}

// Next implements Scenario.
func (w *MixGraph) Next() (ScenarioOp, bool) {
	if w.left == 0 {
		return ScenarioOp{}, false
	}
	w.left--
	// Inverse-CDF sampling of the Generalized Pareto:
	// x = σ/ξ · ((1-u)^(-ξ) − 1).
	u := w.rng.Float64()
	x := mixSigma / mixXi * (math.Pow(1-u, -mixXi) - 1)
	size := 1 + int(x)
	if size > mixCap {
		size = mixCap
	}
	return ScenarioOp{Kind: OpPut, Key: w.keys.Next(), N: size}, true
}

// Name implements Scenario.
func (w *MixGraph) Name() string { return "M(mixgraph)" }

// ValueFiller deterministically fills value buffers so reads can verify
// contents cheaply.
type ValueFiller struct {
	rng *sim.RNG
}

// NewValueFiller returns a filler seeded for reproducibility.
func NewValueFiller(seed uint64) *ValueFiller {
	return &ValueFiller{rng: sim.NewRNG(seed)}
}

// Fill writes a pseudo-random pattern of the given size into a reusable
// buffer and returns it (valid until the next call).
func (f *ValueFiller) Fill(buf []byte, size int) []byte {
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	// One draw per whole word, little-endian, then one for the tail, drawn
	// even when the tail is empty: 1 + ⌊size/8⌋ draws, the stream of the
	// byte-at-a-time fill every committed artifact was made with.
	full := size &^ 7
	for i := 0; i < full; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], f.rng.Uint64())
	}
	x := f.rng.Uint64()
	for i := full; i < size; i++ {
		buf[i] = byte(x >> (8 * (i - full)))
	}
	return buf
}
