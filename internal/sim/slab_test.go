package sim

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Every size up to 16 KiB has a class whose chunk holds it with less than
// 1/16 of the chunk (or 16 bytes) to spare, chunk sizes grow with the class,
// and Put files a chunk of any capacity — a block's uncarved tail can be any
// multiple of 16 — under the largest class whose chunk it holds.
func TestSlabClasses(t *testing.T) {
	const maxSize = 16 << 10
	chunkOf := []int{0} // class -> chunk size
	for size := 1; size <= maxSize; size++ {
		cl, chunk := slabClass(size)
		if chunk < size || chunk-size >= max(16, chunk/16) {
			t.Fatalf("size %d: class %d of %d-byte chunks", size, cl, chunk)
		}
		switch {
		case cl == len(chunkOf) && chunk > chunkOf[cl-1]:
			chunkOf = append(chunkOf, chunk)
		case cl >= len(chunkOf) || chunkOf[cl] != chunk:
			t.Fatalf("size %d: class %d of %d-byte chunks after %d classes", size, cl, chunk, len(chunkOf))
		}
	}
	for size := 16; size <= maxSize; size += 16 {
		var s Slab
		s.Put(make([]byte, 0, size))
		cl := len(s.free) - 1
		if cl < 1 || len(s.free[cl]) != 1 || chunkOf[cl] > size || cl+1 < len(chunkOf) && chunkOf[cl+1] <= size {
			t.Fatalf("a %d-byte chunk filed under class %d", size, cl)
		}
	}
}

// The slab keeps what its callers give back, sorted by size class, so under
// churn of random sizes its free chunks could pile up in classes the live set
// has moved away from. 200 k Get/Put steps of 1 B to 8 KiB, holding the live
// set at 1024 chunks, must leave the slab's heap — after a GC, so only what it
// holds counts — within 1.5× the bytes the live chunks were asked for plus
// one block.
func TestSlabChurnFootprint(t *testing.T) {
	const steps, maxLive, maxSize, block = 200_000, 1024, 8 << 10, 64 << 10
	rng := rand.New(rand.NewSource(1))
	live := make([][]byte, 0, maxLive)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewSlab(block, math.MaxInt)
	stored := 0
	for step := 0; step < steps; step++ {
		if len(live) == maxLive {
			i, last := rng.Intn(len(live)), len(live)-1
			stored -= len(live[i])
			s.Put(live[i])
			live[i], live[last] = live[last], nil
			live = live[:last]
			continue
		}
		n := 1 + rng.Intn(maxSize)
		buf, ok := s.Get(n, n)
		if !ok {
			t.Fatalf("step %d: a %d-byte chunk was not carved from an unbounded slab", step, n)
		}
		live = append(live, buf)
		stored += n
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heap := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("%d chunks hold %d B; the slab holds %d B of heap (%.3f×)", len(live), stored, heap, float64(heap)/float64(stored))
	if bound := int64(stored)*3/2 + block; heap > bound {
		t.Errorf("after %d steps the slab holds %d B of heap for %d live bytes; bound %d", steps, heap, stored, bound)
	}
	runtime.KeepAlive(&s)
	runtime.KeepAlive(live)
}

// A bounded slab never allocates more than its limit in blocks, and once it
// is there it still hands out n bytes for every Get — an allocation of its
// own, which the caller keeps — without disturbing the chunks in use: every
// live buffer reads back the bytes written to it, so no two share memory.
func TestSlabBound(t *testing.T) {
	const block, limit = 4 << 10, 3 * (4 << 10)
	rng := rand.New(rand.NewSource(3))
	s := NewSlab(block, limit)
	type held struct {
		buf  []byte
		slab bool
		fill byte
	}
	var live []held
	past := 0 // Gets answered outside the slab
	for step := 0; step < 5000; step++ {
		if len(live) == 16 || len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if live[i].slab {
				s.Put(live[i].buf)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			n := 1 + rng.Intn(block+block/2) // some larger than a block
			buf, ok := s.Get(n, n)
			if len(buf) != n || cap(buf) < n {
				t.Fatalf("step %d: Get(%d) returned %d bytes, capacity %d", step, n, len(buf), cap(buf))
			}
			if !ok {
				past++
			}
			fill := byte(step) | 1
			for j := range buf {
				buf[j] = fill
			}
			live = append(live, held{buf, ok, fill})
		}
		if s.held > s.limit {
			t.Fatalf("step %d: the slab holds %d bytes of blocks, limit %d", step, s.held, s.limit)
		}
		for _, h := range live {
			if bytes.Count(h.buf, []byte{h.fill}) != len(h.buf) {
				t.Fatalf("step %d: a live %d-byte buffer lost its %#x bytes", step, len(h.buf), h.fill)
			}
		}
	}
	if s.held != limit || past == 0 {
		t.Fatalf("the slab holds %d bytes of blocks and answered %d Gets past its limit %d; the test never reached the bound", s.held, past, limit)
	}
}
