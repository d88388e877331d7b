package lsm

import (
	"bytes"
	"errors"

	"bandslim/internal/sim"
)

// ErrIteratorInvalidated reports that compaction freed SSTable pages after
// the iterator was opened: the tables it was built over may no longer exist
// on flash, so it stops rather than read recycled pages.
var ErrIteratorInvalidated = errors.New("lsm: iterator invalidated by compaction")

// Iterator is a merged, key-ordered view over the MemTable and every level,
// backing the device-side SEEK/NEXT interface (the iterator-extended KV-SSD
// of [22] the paper builds on). Duplicate keys resolve newest-first and
// tombstoned keys are skipped.
//
// The iterator is a snapshot of the tree at Seek time. Writes that only add
// tables leave it intact; once a compaction's page frees are committed it
// fails with ErrIteratorInvalidated at its next page load.
type Iterator struct {
	tree     *Tree
	reclaims uint64 // tree.reclaims at Seek
	sources  []*iterSource
	current  Entry
	// keyBuf backs current.Key for table-sourced entries: source entries are
	// views into per-source page copies, which advancing a source past a
	// page boundary overwrites, so the winning key is copied out before the
	// sources consume past it.
	keyBuf []byte
	valid  bool
	end    sim.Time
	err    error
}

// iterSource walks one table or the memtable. prio: lower = newer.
type iterSource struct {
	prio    int
	mem     *MemIterator
	table   *SSTable
	pageIdx int
	// start is the Seek key until the source has loaded its first page, which
	// it enters at the first entry >= start instead of at byte 0.
	start []byte
	// page is the source's own copy of the page under cur: the store's view
	// does not outlive the next store call, and a scan interleaves sources.
	page   []byte
	cur    pageCursor
	done   bool
	head   Entry
	hasCur bool
}

// Seek returns an iterator positioned at the first live key >= start.
// NAND reads performed while positioning are reflected in End().
func (tr *Tree) Seek(t sim.Time, start []byte) (*Iterator, error) {
	it := &Iterator{tree: tr, reclaims: tr.reclaims, end: t}
	prio := 0
	mi := tr.mem.Iterator()
	mi.Seek(tr.mem, start)
	it.sources = append(it.sources, &iterSource{prio: prio, mem: mi})
	prio++
	for lvl := 0; lvl < len(tr.levels); lvl++ {
		for _, table := range tr.levels[lvl] {
			if bytes.Compare(table.largest, start) < 0 {
				continue
			}
			src := &iterSource{prio: prio, table: table}
			src.seekTable(start)
			it.sources = append(it.sources, src)
			prio++
		}
	}
	for _, s := range it.sources {
		if err := s.advance(it, t); err != nil {
			return nil, err
		}
	}
	it.step(t)
	return it, it.err
}

// seekTable positions a table source at the first page that may hold start;
// advance finds start's place within it when it loads the page.
func (s *iterSource) seekTable(start []byte) {
	pi := s.table.pageForKey(start)
	if pi < 0 {
		pi = 0
	}
	s.pageIdx, s.start = pi, start
}

// advance loads the source's next entry into head.
func (s *iterSource) advance(it *Iterator, t sim.Time) error {
	if s.done {
		s.hasCur = false
		return nil
	}
	if s.mem != nil {
		if s.mem.Next() {
			s.head = s.mem.Entry()
			s.hasCur = true
		} else {
			s.done = true
			s.hasCur = false
		}
		return nil
	}
	for {
		ok, err := s.cur.next(&s.head)
		if err != nil {
			return err
		}
		if ok {
			s.hasCur = true
			return nil
		}
		if s.pageIdx >= len(s.table.pages) {
			s.done = true
			s.hasCur = false
			return nil
		}
		if it.tree.reclaims != it.reclaims {
			return ErrIteratorInvalidated
		}
		data, end, err := it.tree.store.ReadPage(t, s.table.pages[s.pageIdx])
		if err != nil {
			return err
		}
		if end > it.end {
			it.end = end
		}
		s.page = append(s.page[:0], data...)
		s.cur = pageCursor{data: s.page}
		if s.start != nil {
			err := s.cur.seek(s.start, s.table.pageRestarts(s.pageIdx))
			s.start = nil
			if err != nil {
				return err
			}
		}
		s.pageIdx++
	}
}

// step advances the merged view to the next live key. Every source stands at
// or past the Seek key from its first entry on (the MemTable seeks its skip
// list, a table enters its first page through the restart search), so there
// is nothing to skip but older duplicates and tombstones.
func (it *Iterator) step(t sim.Time) {
	for {
		best := -1
		for i, s := range it.sources {
			if !s.hasCur {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c := bytes.Compare(s.head.Key, it.sources[best].head.Key)
			if c < 0 || (c == 0 && s.prio < it.sources[best].prio) {
				best = i
			}
		}
		if best < 0 {
			it.valid = false
			return
		}
		e := it.sources[best].head
		// Copy the winning key out of its source's page: consuming the key
		// below can advance that source past a page boundary, which
		// overwrites the page backing e.Key.
		it.keyBuf = append(it.keyBuf[:0], e.Key...)
		e.Key = it.keyBuf
		// Consume this key from every source holding it.
		for _, s := range it.sources {
			for s.hasCur && bytes.Equal(s.head.Key, e.Key) {
				if err := s.advance(it, t); err != nil {
					it.err = err
					it.valid = false
					return
				}
			}
		}
		if e.Tombstone {
			continue
		}
		it.current = e
		it.valid = true
		return
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Entry returns the current entry. Only meaningful when Valid. The entry's
// key is a view into the iterator's reused key buffer, valid until the next
// Next call; callers that retain entries across advances must copy it.
func (it *Iterator) Entry() Entry { return it.current }

// Err reports a NAND or decode error that invalidated the iterator.
func (it *Iterator) Err() error { return it.err }

// End reports the completion time of the NAND reads performed so far.
func (it *Iterator) End() sim.Time { return it.end }

// Next advances to the following live key.
func (it *Iterator) Next(t sim.Time) {
	if !it.valid {
		return
	}
	it.step(t)
}
