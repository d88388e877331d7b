package workload

import (
	"fmt"
	"math"
	"sort"

	"bandslim/internal/sim"
)

// Skewed key-choice generators for the read-path experiments: both pick a
// rank in [0, n) per call, which the caller maps onto its loaded key set.
// Rank 0 is the hottest key. Sequences are fully determined by (n, shape,
// seed), so same-seed runs replay byte-identically.

// Zipfian draws ranks with P(r) ∝ 1/(r+1)^s — the YCSB-style skew model
// (s ≈ 0.99 is the standard "zipfian" operating point). The distribution is
// materialized as a cumulative table once at construction; each draw is one
// RNG call plus a binary search, with no per-draw allocation.
type Zipfian struct {
	rng *sim.RNG
	cdf []float64
}

// NewZipfian builds a generator over n ranks with exponent s > 0.
func NewZipfian(n int, s float64, seed uint64) (*Zipfian, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: Zipfian needs n >= 1 ranks, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: Zipfian exponent must be > 0 and finite, got %v", s)
	}
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[n-1] = 1 // exact upper bound despite rounding
	return &Zipfian{rng: sim.NewRNG(seed), cdf: cdf}, nil
}

// Next draws one rank in [0, n); rank 0 is the most probable.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
