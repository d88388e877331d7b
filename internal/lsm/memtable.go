// Package lsm implements the in-device, key-value-separated LSM-tree of the
// paper's KV-SSD (§2.1): a hash-indexed MemTable holding key → (vLog address,
// size) entries, found and ordered by their inline form (sim.Key) and put in
// key order once per flush, SSTables serialized onto NAND meta pages, leveled
// compaction that never rewrites values (the point of KV separation), and
// merged iterators backing the SEEK/NEXT interface.
package lsm

import (
	"fmt"
	"math/bits"
	"sort"

	"bandslim/internal/sim"
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

// MaxKeySize mirrors the NVMe command's inline key capacity.
const MaxKeySize = 16

// memNode is one slot of a MemTable's slab. It holds no pointer, so the slab
// is one allocation the collector never scans.
type memNode struct {
	w    [2]uint64 // the key's sim.Key words
	addr vlog.Addr
	size uint32
	klen uint8
	tomb bool
	key  [MaxKeySize]byte // backs the Entry.Key handed out
}

// MemTable is the write buffer. It sits in the device's battery-backed DRAM
// (§2.2), so an entry is durable the moment it is inserted: a power cut keeps
// the table, Tree.Restore leaves it in place, and the device's mount reads it
// back in first-write order (Tree.Unflushed). With the committed catalog it is
// the whole index, one entry per key written since the last flush.
//
// Nodes sit in one slab in insertion order, 48 B a node, found by key through
// an open-addressing hash index. Key order is built only when something reads
// in order — a flush's drain, an iterator — by a radix sort of slab indices;
// nodes inserted after that are sorted alone and merged in. Every array is
// sized once, at the first Put, for the table's entries, and the tree
// recycles a flushed table, so a table's life, flush included, allocates
// nothing after that.
type MemTable struct {
	entries int
	slab    []memNode
	// index holds slab index + 1 per used slot (0: empty), probed linearly
	// from a key's hash; a power of two at least twice the slab, it is sparse.
	index []uint32
	// order is slab[:len(order)] in key order; scratch is the sort's second
	// buffer.
	order, scratch []uint32
	// pinned marks a table a MemIterator was placed in with Seek: the
	// iterator may outlive the table's flush, so the table is never recycled.
	pinned bool
}

// NewMemTable returns an empty table for entries entries. Its arrays are
// made at its first Put.
func NewMemTable(entries int) *MemTable { return &MemTable{entries: entries} }

// recycle returns an empty table for the tree's next writes: m itself, reset
// with its arrays kept, unless an iterator pinned it, in which case m stays
// as that iterator sees it and a fresh table takes its place.
func (m *MemTable) recycle() *MemTable {
	if m.pinned {
		return NewMemTable(m.entries)
	}
	m.slab, m.order = m.slab[:0], m.order[:0]
	clear(m.index)
	return m
}

// Len reports the number of entries (including tombstones).
func (m *MemTable) Len() int { return len(m.slab) }

// slot returns the index slot holding k, or the empty slot where k belongs.
func (m *MemTable) slot(k sim.Key) int {
	mask := len(m.index) - 1
	for s := int(k.Hash()) & mask; ; s = (s + 1) & mask {
		if i := m.index[s]; i == 0 || m.slab[i-1].simKey() == k {
			return s
		}
	}
}

// entry is node i's Entry. Its Key is a view into the slab, good until the
// table is recycled.
func (m *MemTable) entry(i uint32) Entry {
	n := &m.slab[i]
	return Entry{Key: n.key[:n.klen:n.klen], Addr: n.addr, Size: n.size, Tombstone: n.tomb}
}

// Put inserts or updates a key. The key is copied; callers may reuse the
// slice. Oversized keys are an error.
func (m *MemTable) Put(key []byte, addr vlog.Addr, size uint32, tombstone bool) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("lsm: key length %d out of range [1,%d]", len(key), MaxKeySize)
	}
	if 2*(len(m.slab)+1) > len(m.index) {
		m.grow()
	}
	k := sim.KeyOf(key)
	s := m.slot(k)
	if i := m.index[s]; i != 0 {
		n := &m.slab[i-1]
		n.addr, n.size, n.tomb = addr, size, tombstone
		return nil
	}
	m.slab = append(m.slab, memNode{w: [2]uint64{k.W0, k.W1}, addr: addr, size: size, klen: uint8(len(key)), tomb: tombstone})
	copy(m.slab[len(m.slab)-1].key[:], key)
	m.index[s] = uint32(len(m.slab))
	return nil
}

// grow makes the table's arrays at its first Put, sized for its entries, and
// doubles them if a failed flush left the tree writing past that.
func (m *MemTable) grow() {
	n := max(m.entries, 2*len(m.slab))
	m.slab = append(make([]memNode, 0, n), m.slab...)
	m.order = append(make([]uint32, 0, n), m.order...)
	m.scratch = make([]uint32, n)
	m.index = make([]uint32, 2<<bits.Len(uint(n-1)))
	for i := range m.slab {
		m.index[m.slot(m.slab[i].simKey())] = uint32(i + 1)
	}
}

// Get looks a key up. The second result reports whether the key is present
// (a tombstone is present — the entry's Tombstone field distinguishes it).
// The entry's Key is good until the table is recycled.
func (m *MemTable) Get(k sim.Key) (Entry, bool) {
	if m.Len() > 0 {
		if i := m.index[m.slot(k)]; i != 0 {
			return m.entry(i - 1), true
		}
	}
	return Entry{}, false
}

// sort extends order over the whole slab: the nodes past it are sorted on
// their own and merged in, the largest first, each after a binary search of
// the ordered nodes below it and one block move of the ones above.
func (m *MemTable) sort() {
	s, n := len(m.order), len(m.slab)
	if s == n {
		return
	}
	m.order = m.order[:n]
	tail := m.order[s:]
	for j := range tail {
		tail[j] = uint32(s + j)
	}
	sorted := m.radixSort(s, tail, m.scratch[:len(tail)])
	if s == 0 {
		copy(m.order, sorted)
		return
	}
	tail = m.scratch[:len(tail)]
	copy(tail, sorted)
	hi := s
	for j := len(tail) - 1; j >= 0; j-- {
		lo := m.search(m.order[:hi], m.slab[tail[j]].simKey(), false)
		copy(m.order[lo+j+1:], m.order[lo:hi])
		m.order[lo+j], hi = tail[j], lo
	}
}

// radixSort sorts a, the slab indices from from on, by key, with b (as long)
// the second buffer, and returns whichever holds the result. It makes one
// stable counting pass per key byte, least significant first — the length,
// then w[1]'s, then w[0]'s — and skips a byte every node shares, so keys with
// a common prefix cost only the passes of the bytes that differ.
func (m *MemTable) radixSort(from int, a, b []uint32) []uint32 {
	nodes := m.slab[from:]
	var vary [2]uint64 // the bits in which some node differs from the first
	var varyLen uint8
	for i := range nodes {
		vary[0] |= nodes[i].w[0] ^ nodes[0].w[0]
		vary[1] |= nodes[i].w[1] ^ nodes[0].w[1]
		varyLen |= nodes[i].klen ^ nodes[0].klen
	}
	if varyLen != 0 {
		m.radixPass(nodes, a, b, 2, 0)
		a, b = b, a
	}
	for w := 1; w >= 0; w-- {
		for shift := uint(0); shift < 64; shift += 8 {
			if uint8(vary[w]>>shift) != 0 {
				m.radixPass(nodes, a, b, w, shift)
				a, b = b, a
			}
		}
	}
	return a
}

// radixPass stably sorts src, the indices of nodes, into dst by one key byte:
// w[word]'s at shift, or the length if word is 2.
func (m *MemTable) radixPass(nodes []memNode, src, dst []uint32, word int, shift uint) {
	var at [256]uint32
	for i := range nodes {
		at[nodes[i].digit(word, shift)]++
	}
	var sum uint32
	for d, c := range at {
		at[d], sum = sum, sum+c
	}
	for _, i := range src {
		d := m.slab[i].digit(word, shift)
		dst[at[d]] = i
		at[d]++
	}
}

func (n *memNode) digit(word int, shift uint) uint8 {
	if word == 2 {
		return n.klen
	}
	return uint8(n.w[word] >> shift)
}

func (n *memNode) simKey() sim.Key { return sim.Key{W0: n.w[0], W1: n.w[1], N: int(n.klen)} }

// search returns the first position in order, a key-ordered run of slab
// indices, whose key sorts at or past k — strictly past it if strict.
func (m *MemTable) search(order []uint32, k sim.Key, strict bool) int {
	return sort.Search(len(order), func(h int) bool {
		c := m.slab[order[h]].simKey().Compare(k)
		return c > 0 || c == 0 && !strict
	})
}

// Iterator returns an in-order iterator positioned before the first entry.
func (m *MemTable) Iterator() *MemIterator { return &MemIterator{m: m, cur: -1} }

// MemIterator walks a MemTable in key order. It is a live view: each Next
// yields the first key past the last one yielded, so an insert that lands
// past its position shows up. After an insert it finds its place again in
// the table's extended order.
type MemIterator struct {
	m   *MemTable
	pos int // order index of the next entry, while the table holds at entries
	at  int
	cur int // slab index of the current entry; -1 before the first
	// from is where the first entry is searched: the Seek target, or the
	// zero key, which sorts before every key.
	from sim.Key
	done bool
}

// Next advances and reports whether an entry is available via Entry.
func (it *MemIterator) Next() bool {
	if it.done {
		return false
	}
	m := it.m
	if it.at != len(m.slab) {
		m.sort()
		k, past := it.from, it.cur >= 0
		if past {
			k = m.slab[it.cur].simKey()
		}
		it.pos, it.at = m.search(m.order, k, past), len(m.slab)
	}
	if it.pos == len(m.order) {
		it.done = true
		return false
	}
	it.cur = int(m.order[it.pos])
	it.pos++
	return true
}

// Entry returns the current entry. Valid only after Next reported true.
func (it *MemIterator) Entry() Entry { return it.m.entry(uint32(it.cur)) }

// key returns the current entry's inline key, as Entry does its entry.
func (it *MemIterator) key() sim.Key { return it.m.slab[it.cur].simKey() }

// Seek positions the iterator so the next call to Next returns the first
// entry with key >= target. It pins the table, which the tree then never
// recycles, so the iterator outlives the table's flush.
func (it *MemIterator) Seek(target sim.Key) {
	it.m.pinned = true
	it.from, it.cur, it.at, it.done = target, -1, -1, false
}
