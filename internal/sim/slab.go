package sim

import "math/bits"

// Slab hands out byte chunks carved from blocks it allocates, and takes them
// back by size class for reuse, so that once it has grown to a working set a
// caller that gets and puts chunks allocates nothing. It holds at most its
// limit in blocks; past that, and for a chunk larger than a block, Get makes
// an exact-size allocation that is no part of the slab.
type Slab struct {
	block int // size of the blocks carved
	limit int // most bytes of blocks the slab allocates
	held  int // bytes of blocks allocated
	// cur is the uncarved tail of the newest block; free the chunks put
	// back, by size class (see slabClass), each cut to length 0.
	cur  []byte
	free [][][]byte
}

// NewSlab returns an empty slab that carves blocks of block bytes and
// allocates at most limit bytes of them.
func NewSlab(block, limit int) Slab { return Slab{block: block, limit: limit} }

// slabClass returns the size class of a chunk that holds size bytes, and the
// class's chunk size: 16-byte steps up to 1 KiB, then 16 steps per doubling.
// Rounding up wastes at most 1/16 of a chunk, and sizes a few bytes apart
// share a class and so each other's chunks.
func slabClass(size int) (cl, chunk int) {
	if size <= 1024 {
		cl = (size + 15) / 16
		return cl, cl * 16
	}
	k := bits.Len(uint(size-1)) - 1 // 1<<k < size <= 2<<k
	step := 1 << (k - 4)
	j := (size - 1<<k + step - 1) / step
	return 64 + 16*(k-10) + j, 1<<k + j*step
}

// Get returns n bytes with room for size (size >= n), contents unspecified,
// and whether they are a slab chunk, which the caller gives back with Put. It
// takes the newest free chunk of size's class, else the next one cut from the
// newest block, else the newest free chunk of the smallest larger class, and
// only when none of those is there a chunk of a new block. So the slab grows
// only when the chunks it holds are all in use or too small.
func (s *Slab) Get(n, size int) ([]byte, bool) {
	cl, chunk := slabClass(size)
	for c := cl; c < len(s.free); c++ {
		if list := s.free[c]; len(list) > 0 {
			buf := list[len(list)-1]
			list[len(list)-1] = nil
			s.free[c] = list[:len(list)-1]
			return buf[:n], true
		}
		if len(s.cur) >= chunk {
			break
		}
	}
	if len(s.cur) < chunk {
		if chunk > s.block || s.held+s.block > s.limit {
			return make([]byte, n, size), false
		}
		s.Put(s.cur)
		s.cur = make([]byte, s.block)
		s.held += s.block
	}
	buf := s.cur[:n:chunk]
	s.cur = s.cur[chunk:]
	return buf, true
}

// Put files a free chunk — one Get returned, or a block's uncarved tail —
// under the largest class it holds; one too short for any class is dropped.
func (s *Slab) Put(buf []byte) {
	cl, chunk := slabClass(cap(buf))
	if chunk > cap(buf) {
		cl--
	}
	if cl <= 0 {
		return
	}
	for len(s.free) <= cl {
		s.free = append(s.free, nil)
	}
	s.free[cl] = append(s.free[cl], buf[:0])
}
