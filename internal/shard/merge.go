package shard

import (
	"bytes"
	"container/heap"
	"errors"

	"bandslim/internal/driver"
)

// Cursor is one key-ordered stream feeding a MergeIterator — a positioned
// device iterator. Each call copies the stream's current pair into key and
// value (grown as needed), returns the filled slices, and advances;
// driver.ErrIterEnd signals exhaustion. A front-end builds one from
// driver.Driver.Next, copying each pair out of the driver's read buffer under
// whatever serializes access to the stack.
type Cursor func(key, value []byte) ([]byte, []byte, error)

// MergeIterator streams key-value pairs in key order by k-way merging N
// cursors (N = 1 for a single device): each cursor contributes its
// key-ordered stream and a min-heap surfaces the globally smallest key.
// (internal/lsm merges its runs with a linear pick over the sources instead;
// a tree has few.) Keys are unique across shards
// (the partitioner assigns each key to exactly one shard), so no cross-shard
// shadowing arises; ties — impossible under a consistent partition — break
// by cursor index for determinism anyway.
//
// Each device holds a single iterator over a snapshot of its index; iterate
// before mutating. A cursor whose snapshot the device had to drop reports
// driver.ErrIterInvalidated, which stops the merged view like any other error.
type MergeIterator struct {
	srcs sourceHeap
	err  error
}

// source holds one cursor's current pair in source-owned reused buffers, so
// the pair stays valid while the caller interleaves other operations (and
// the heap retains it across other cursors' advances).
type source struct {
	id    int
	next  Cursor
	key   []byte
	value []byte
}

// advance loads the cursor's next pair into the source's buffers.
func (s *source) advance() (err error) {
	s.key, s.value, err = s.next(s.key, s.value)
	return err
}

type sourceHeap []*source

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].id < h[j].id
}
func (h sourceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)   { *h = append(*h, x.(*source)) }
func (h *sourceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewMergeIterator takes cursors already positioned by Seek and places the
// merged view on the globally smallest pair; check Valid.
func NewMergeIterator(cursors []Cursor) (*MergeIterator, error) {
	m := &MergeIterator{}
	for id, next := range cursors {
		src := &source{id: id, next: next}
		switch err := src.advance(); {
		case err == nil:
			m.srcs = append(m.srcs, src)
		case !errors.Is(err, driver.ErrIterEnd):
			return nil, err
		}
	}
	heap.Init(&m.srcs)
	return m, nil
}

// Valid reports whether the iterator holds a pair.
func (m *MergeIterator) Valid() bool { return m.err == nil && len(m.srcs) > 0 }

// Key returns the current key.
func (m *MergeIterator) Key() []byte {
	if !m.Valid() {
		return nil
	}
	return m.srcs[0].key
}

// Value returns the current value.
func (m *MergeIterator) Value() []byte {
	if !m.Valid() {
		return nil
	}
	return m.srcs[0].value
}

// Err reports the error that stopped iteration, if any.
func (m *MergeIterator) Err() error { return m.err }

// Next advances to the following pair in global key order.
func (m *MergeIterator) Next() {
	if !m.Valid() {
		return
	}
	switch err := m.srcs[0].advance(); {
	case err == nil:
		heap.Fix(&m.srcs, 0)
	case errors.Is(err, driver.ErrIterEnd):
		heap.Pop(&m.srcs)
	default:
		m.err = err
	}
}
