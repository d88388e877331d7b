package sim

import "math/bits"

// Bloom filter geometry: BloomBitsPerKey bits per key and BloomProbes probes
// per key give a false-positive rate of (1-e^{-7/10})^7, about 0.8 %.
const (
	BloomBitsPerKey = 10
	BloomProbes     = 7
)

// Bloom is a bloom filter over 64-bit hashes, its bits the words' bits. It
// answers "maybe present" for every hash added and, for a hash never added,
// "absent" with probability one minus the false-positive rate. The words are
// the whole state, so a filter is recycled by reslicing its storage and
// calling Reset.
type Bloom []uint64

// BloomWords is how many words a filter over keys keys takes.
func BloomWords(keys int) int { return (keys*BloomBitsPerKey + 63) / 64 }

// Add records h.
func (f Bloom) Add(h uint64) {
	m, d := f.geometry(h)
	for i := 0; i < BloomProbes; i++ {
		b := (h >> 32) * m >> 32
		f[b/64] |= 1 << (b % 64)
		h += d
	}
}

// Has reports whether h may have been added.
func (f Bloom) Has(h uint64) bool {
	m, d := f.geometry(h)
	for i := 0; i < BloomProbes; i++ {
		b := (h >> 32) * m >> 32
		if f[b/64]&(1<<(b%64)) == 0 {
			return false
		}
		h += d
	}
	return true
}

// geometry returns the filter's bit count and the probe stride for h. The
// probes are h, h+d, h+2d, ... (Kirsch-Mitzenmacher double hashing), each
// mapped onto the bits by a 32-bit multiply-shift of its top half, so a
// filter holds fewer than 2^32 bits.
func (f Bloom) geometry(h uint64) (m, d uint64) {
	return uint64(len(f)) * 64, bits.RotateLeft64(h, 31) | 1
}

// Reset empties the filter.
func (f Bloom) Reset() { clear(f) }
