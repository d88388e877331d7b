// Package pool provides the allocation-recycling primitives behind the
// simulator's zero-allocation hot path: size-classed []byte free lists à la
// sync.Pool (but single-owner and deterministic — every simulation stack is
// driven from one goroutine at a time, so no locking or per-P sharding is
// needed).
//
// Ownership discipline: a buffer obtained from Get is owned by the caller
// until returned with Put; returning it transfers ownership back and the
// caller must not touch it again. Buffers are NOT zeroed on reuse — callers
// that expose buffer contents beyond what they wrote must clear them (the
// page buffer does; PRP staging does not need to, because gathers are bounded
// by the payload length).
package pool

const (
	// minClassBits..maxClassBits span 64 B .. 128 KiB in power-of-two
	// classes — from a small key buffer to two full driver staging buffers.
	minClassBits = 6
	maxClassBits = 17
	numClasses   = maxClassBits - minClassBits + 1
	// maxPerClass bounds retained buffers per class so a burst cannot pin
	// memory forever: 8 × 128 KiB = 1 MiB worst case per pool.
	maxPerClass = 8
)

// Bytes is a size-classed free list of byte slices. The zero value is ready
// to use. It is not safe for concurrent use; give each simulation stack its
// own pool (they are single-owner structures anyway).
type Bytes struct {
	free [numClasses][][]byte
}

// classFor returns the smallest class whose buffers hold n bytes, or -1 when
// n exceeds the largest class (such requests fall through to the allocator).
func classFor(n int) int {
	size := 1 << minClassBits
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// Get returns a buffer of length n. Its capacity is the class size, so
// append-style growth within the class never reallocates. Requests larger
// than the top class allocate exactly n and are not recycled by Put.
func (p *Bytes) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if l := len(p.free[c]); l > 0 {
		buf := p.free[c][l-1]
		p.free[c][l-1] = nil
		p.free[c] = p.free[c][:l-1]
		return buf[:n]
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put recycles a buffer for a later Get. The buffer is filed under the
// largest class its capacity covers; undersized or oversized buffers and
// full classes are dropped for the GC to take.
func (p *Bytes) Put(buf []byte) {
	c := capClass(cap(buf))
	if c < 0 || len(p.free[c]) >= maxPerClass {
		return
	}
	p.free[c] = append(p.free[c], buf[:cap(buf)])
}

// capClass returns the largest class a capacity of n fully covers, or -1.
func capClass(n int) int {
	if n < 1<<minClassBits || n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for size := 1 << (minClassBits + 1); c < numClasses-1 && n >= size; size <<= 1 {
		c++
	}
	return c
}
