// Package lsm implements the in-device, key-value-separated LSM-tree of the
// paper's KV-SSD (§2.1): a skiplist MemTable holding key → (vLog address,
// size) entries, SSTables serialized onto NAND meta pages, leveled
// compaction that never rewrites values (the point of KV separation), and
// merged iterators backing the SEEK/NEXT interface.
package lsm

import (
	"bytes"
	"fmt"

	"bandslim/internal/vlog"
)

// Entry is one index record: a key and where its value lives in the vLog.
// Fine-grained value addressing (§3.4) makes Addr a byte offset.
type Entry struct {
	Key       []byte
	Addr      vlog.Addr
	Size      uint32
	Tombstone bool
}

const (
	maxHeight = 12
	// MaxKeySize mirrors the NVMe command's inline key capacity.
	MaxKeySize = 16
)

// skipNode carries its key inline — entry.Key slices key — so an insert is
// one allocation and a search touches one object per comparison.
type skipNode struct {
	entry Entry
	key   [MaxKeySize]byte
	next  [maxHeight]*skipNode
}

// MemTable is a skiplist-ordered write buffer. The device's DRAM is battery
// backed, so the MemTable is durable the moment a value is inserted (§2.2).
type MemTable struct {
	head   *skipNode
	height int
	count  int
	rng    *simRNG
}

// simRNG is a tiny xorshift so the skiplist is deterministic per table.
type simRNG struct{ s uint64 }

func (r *simRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// NewMemTable returns an empty table.
func NewMemTable() *MemTable {
	return &MemTable{head: &skipNode{}, height: 1, rng: &simRNG{s: 0x9E3779B97F4A7C15}}
}

// Len reports the number of entries (including tombstones).
func (m *MemTable) Len() int { return m.count }

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.next()&3 == 0 {
		h++
	}
	return h
}

// Put inserts or updates a key. The key is copied; callers may reuse the
// slice. Oversized keys are an error.
func (m *MemTable) Put(key []byte, addr vlog.Addr, size uint32, tombstone bool) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("lsm: key length %d out of range [1,%d]", len(key), MaxKeySize)
	}
	var prev [maxHeight]*skipNode
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].entry.Key, key) < 0 {
			n = n.next[lvl]
		}
		prev[lvl] = n
	}
	if c := n.next[0]; c != nil && bytes.Equal(c.entry.Key, key) {
		c.entry.Addr = addr
		c.entry.Size = size
		c.entry.Tombstone = tombstone
		return nil
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	node := &skipNode{entry: Entry{Addr: addr, Size: size, Tombstone: tombstone}}
	kl := copy(node.key[:], key)
	node.entry.Key = node.key[:kl:kl]
	for lvl := 0; lvl < h; lvl++ {
		node.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = node
	}
	m.count++
	return nil
}

// Get looks a key up. The second result reports whether the key is present
// (a tombstone is present — the entry's Tombstone field distinguishes it).
func (m *MemTable) Get(key []byte) (Entry, bool) {
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].entry.Key, key) < 0 {
			n = n.next[lvl]
		}
	}
	if c := n.next[0]; c != nil && bytes.Equal(c.entry.Key, key) {
		return c.entry, true
	}
	return Entry{}, false
}

// Iterator returns an in-order iterator positioned before the first entry.
func (m *MemTable) Iterator() *MemIterator {
	return &MemIterator{node: m.head}
}

// MemIterator walks a MemTable in key order.
type MemIterator struct {
	node *skipNode
}

// Next advances and reports whether an entry is available via Entry.
func (it *MemIterator) Next() bool {
	if it.node == nil {
		return false
	}
	it.node = it.node.next[0]
	return it.node != nil
}

// Entry returns the current entry. Valid only after Next reported true.
func (it *MemIterator) Entry() Entry { return it.node.entry }

// Seek positions the iterator so the next call to Next returns the first
// entry with key >= target.
func (it *MemIterator) Seek(m *MemTable, target []byte) {
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].entry.Key, target) < 0 {
			n = n.next[lvl]
		}
	}
	it.node = n
}
