package sim

// RNG is a small, fast, splittable pseudo-random number generator
// (SplitMix64 core). Every workload generator derives its stream from a seed
// so that runs are reproducible and independent generators do not share state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9E3779B97F4A7C15}
}

// Split derives an independent generator from this one, advancing this
// generator once. The derived stream is decorrelated from the parent.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return Mix64(r.state)
}

// Mix64 is the SplitMix64 finalizer: a bijection on 64-bit values that
// spreads every input bit over the whole output.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free-enough reduction; the slight
	// modulo bias at 64 bits is far below anything a workload can observe.
	return int((r.Uint64() >> 1) % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Feistel is a 4-round keyed Feistel permutation over 32-bit values: every
// input maps to a distinct pseudo-random output.
type Feistel [4]uint32

// NewFeistel draws the round keys from a generator seeded with seed.
func NewFeistel(seed uint64) Feistel {
	r := NewRNG(seed)
	var f Feistel
	for i := range f {
		f[i] = r.Uint32()
	}
	return f
}

// Permute maps x to its image under the permutation.
func (f Feistel) Permute(x uint32) uint32 {
	l, r := uint16(x>>16), uint16(x)
	for _, k := range f {
		fr := uint16((uint32(r)*0x9E37 + k) >> 3)
		l, r = r, l^fr
	}
	return uint32(l)<<16 | uint32(r)
}
