package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"bandslim/internal/ftl"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// PageStore abstracts the NAND meta region SSTables are serialized into.
// Page numbers are region-relative. The FTL-backed implementation charges
// simulated NAND time; tests may use an in-memory store.
//
// ReadPage returns a read-only, PageSize-long view that is only good until
// the next call on the store (a write can make FTL GC move the page, a read
// can evict it from the device page cache): the tree decodes it in place at
// once or copies it. WritePage copies data before returning.
type PageStore interface {
	WritePage(t sim.Time, page int, data []byte) (sim.Time, error)
	ReadPage(t sim.Time, page int) ([]byte, sim.Time, error)
	TrimPage(page int) error
	PageSize() int
	Pages() int
}

// FTLStore adapts a region of the FTL's logical space as a PageStore.
type FTLStore struct {
	f     *ftl.FTL
	base  int
	pages int
}

// NewFTLStore maps pages [base, base+pages) of the FTL.
func NewFTLStore(f *ftl.FTL, base, pages int) (*FTLStore, error) {
	if base < 0 || pages <= 0 || base+pages > f.LogicalPages() {
		return nil, fmt.Errorf("lsm: store region [%d,%d) exceeds FTL capacity %d",
			base, base+pages, f.LogicalPages())
	}
	return &FTLStore{f: f, base: base, pages: pages}, nil
}

// WritePage persists one meta page.
func (s *FTLStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if page < 0 || page >= s.pages {
		return t, fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Write(t, s.base+page, data)
}

// ReadPage fetches one meta page as the FTL's read view.
func (s *FTLStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	if page < 0 || page >= s.pages {
		return nil, t, fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Read(t, s.base+page)
}

// TrimPage releases one meta page back to the FTL.
func (s *FTLStore) TrimPage(page int) error {
	if page < 0 || page >= s.pages {
		return fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Trim(s.base + page)
}

// PageSize reports the NAND page size.
func (s *FTLStore) PageSize() int { return s.f.PageSize() }

// Pages reports the region size.
func (s *FTLStore) Pages() int { return s.pages }

// Entry wire format within an SSTable page:
//
//	keyLen   uint8
//	key      keyLen bytes
//	addr     5 bytes little-endian (40-bit vLog byte address, §3.4)
//	size     uint32
//	flags    uint8 (bit0 = tombstone)
//
// Entries never span pages; a page ends with a 0 keyLen sentinel (or runs to
// the page boundary).
const (
	addrBytes     = 5
	entryFixed    = 1 + addrBytes + 4 + 1 // keyLen + addr + size + flags
	flagTombstone = 0x01
)

func encodedLen(e Entry) int { return entryFixed + len(e.Key) }

func encodeEntry(dst []byte, e Entry) int {
	i := 0
	dst[i] = byte(len(e.Key))
	i++
	i += copy(dst[i:], e.Key)
	// The address is the low addrBytes of an 8-byte store; the size lands on
	// the bytes above them.
	binary.LittleEndian.PutUint64(dst[i:], uint64(e.Addr))
	i += addrBytes
	binary.LittleEndian.PutUint32(dst[i:], e.Size)
	i += 4
	var fl byte
	if e.Tombstone {
		fl |= flagTombstone
	}
	dst[i] = fl
	return i + 1
}

// parseEntry validates one encoded entry and returns its fields without
// materializing the key (the key occupies src[1 : 1+kl]).
func parseEntry(src []byte) (kl int, addr vlog.Addr, size uint32, tomb bool, n int, err error) {
	if len(src) < 1 {
		return 0, 0, 0, false, 0, fmt.Errorf("lsm: truncated entry header")
	}
	kl = int(src[0])
	if kl == 0 {
		return 0, 0, 0, false, 0, errEndOfPage
	}
	if kl > MaxKeySize || len(src) < entryFixed+kl {
		return 0, 0, 0, false, 0, fmt.Errorf("lsm: corrupt entry (keyLen %d, %d bytes left)", kl, len(src))
	}
	i := 1 + kl
	// addr + size + flags are 10 bytes, so the 8-byte load stays inside them.
	a := binary.LittleEndian.Uint64(src[i:]) & (1<<(8*addrBytes) - 1)
	i += addrBytes
	size = binary.LittleEndian.Uint32(src[i:])
	i += 4
	tomb = src[i]&flagTombstone != 0
	return kl, vlog.Addr(a), size, tomb, i + 1, nil
}

var errEndOfPage = fmt.Errorf("lsm: end of page")

// SSTable is one immutable sorted run. Pages hold the encoded entries; the
// in-memory handle keeps the page list and a sparse index (first key per
// page), as in-device LSM-trees keep their level lists in DRAM.
type SSTable struct {
	id       uint64
	pages    []int    // region-relative page numbers, in key order
	firstKey [][]byte // first key of each page
	smallest []byte
	largest  []byte
	entries  int
}

// ID reports the table's unique id.
func (t *SSTable) ID() uint64 { return t.id }

// Entries reports how many entries the table holds.
func (t *SSTable) Entries() int { return t.entries }

// Smallest reports the table's smallest key.
func (t *SSTable) Smallest() []byte { return t.smallest }

// Largest reports the table's largest key.
func (t *SSTable) Largest() []byte { return t.largest }

// PageCount reports how many NAND pages the table occupies.
func (t *SSTable) PageCount() int { return len(t.pages) }

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *SSTable) overlaps(lo, hi []byte) bool {
	if len(t.smallest) == 0 {
		return false
	}
	return bytes.Compare(t.largest, lo) >= 0 && bytes.Compare(t.smallest, hi) <= 0
}

// pageForKey returns the index of the page that may contain key (the last
// page whose first key is <= key), or -1 when the key precedes the table.
func (t *SSTable) pageForKey(key []byte) int {
	lo, hi := 0, len(t.firstKey)-1
	best := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.firstKey[mid], key) <= 0 {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// pageCursor walks the entries of one page image in place. It is the only
// decoder: point lookups, iterators and compaction all read pages through it,
// so every entry any of them yields has passed parseEntry.
type pageCursor struct {
	data []byte
	off  int
}

// next stores the entry at the cursor in e and steps past it; ok is false at
// the end of the page. The entry's Key is a view into the page image.
func (c *pageCursor) next(e *Entry) (ok bool, err error) {
	if c.off >= len(c.data) {
		return false, nil
	}
	kl, addr, size, tomb, n, err := parseEntry(c.data[c.off:])
	if err != nil {
		if err == errEndOfPage {
			err = nil
		}
		return false, err
	}
	*e = Entry{Key: c.data[c.off+1 : c.off+1+kl : c.off+1+kl], Addr: addr, Size: size, Tombstone: tomb}
	c.off += n
	return true, nil
}

// searchPage looks key up in a page image. Entries are key-ordered, so the
// walk stops at the first key >= the target; an entry that fails to parse
// before that point fails the lookup.
func searchPage(data, key []byte) (Entry, bool, error) {
	c := pageCursor{data: data}
	var e Entry
	for {
		if ok, err := c.next(&e); !ok {
			return Entry{}, false, err
		}
		switch cmp := bytes.Compare(e.Key, key); {
		case cmp == 0:
			e.Key = key // the caller's key, not the view into the page
			return e, true, nil
		case cmp > 0:
			return Entry{}, false, nil
		}
	}
}

// tableBuilder streams sorted entries into pages through a PageStore. page is
// the caller's PageSize staging buffer; only page[:used] is ever meaningful,
// so one buffer serves every table the tree builds.
type tableBuilder struct {
	store PageStore
	alloc *pageAllocator
	table *SSTable
	page  []byte
	used  int
	last  []byte // the newest key added: the caller's slice, good until finish
	end   sim.Time
}

func newTableBuilder(store PageStore, alloc *pageAllocator, id uint64, page []byte) *tableBuilder {
	return &tableBuilder{store: store, alloc: alloc, table: &SSTable{id: id}, page: page}
}

// add appends one entry (entries must arrive in strictly increasing key
// order, and their keys stay untouched until finish; the caller guarantees
// both).
func (b *tableBuilder) add(t sim.Time, e Entry) error {
	need := encodedLen(e)
	if b.used+need > len(b.page) {
		if err := b.flushPage(t); err != nil {
			return err
		}
	}
	if b.used == 0 {
		b.table.firstKey = append(b.table.firstKey, append([]byte(nil), e.Key...))
	}
	b.used += encodeEntry(b.page[b.used:], e)
	if b.table.smallest == nil {
		b.table.smallest = append([]byte(nil), e.Key...)
	}
	b.last = e.Key
	b.table.entries++
	return nil
}

func (b *tableBuilder) flushPage(t sim.Time) error {
	if b.used == 0 {
		return nil
	}
	page, err := b.alloc.alloc()
	if err != nil {
		return err
	}
	end, err := b.store.WritePage(t, page, b.page[:b.used])
	if err != nil {
		b.alloc.free(page)
		return err
	}
	if end > b.end {
		b.end = end
	}
	b.table.pages = append(b.table.pages, page)
	b.used = 0
	return nil
}

// finish flushes the tail page and returns the table (nil if empty).
func (b *tableBuilder) finish(t sim.Time) (*SSTable, sim.Time, error) {
	if err := b.flushPage(t); err != nil {
		return nil, b.end, err
	}
	if b.table.entries == 0 {
		return nil, b.end, nil
	}
	b.table.largest = append([]byte(nil), b.last...)
	return b.table, b.end, nil
}

// pageAllocator hands out meta-region pages with free-list reuse.
type pageAllocator struct {
	next     int
	limit    int
	freeList []int
}

func newPageAllocator(pages int) *pageAllocator {
	return &pageAllocator{limit: pages}
}

func (a *pageAllocator) alloc() (int, error) {
	if n := len(a.freeList); n > 0 {
		p := a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
		return p, nil
	}
	if a.next >= a.limit {
		return 0, fmt.Errorf("lsm: meta region full (%d pages): %w", a.limit, ftl.ErrNoSpace)
	}
	p := a.next
	a.next++
	return p, nil
}

func (a *pageAllocator) free(p int) { a.freeList = append(a.freeList, p) }

// inUse reports how many pages are currently allocated.
func (a *pageAllocator) inUse() int { return a.next - len(a.freeList) }

// allocState is a restorable copy of the allocator, captured in the tree's
// committed catalog.
type allocState struct {
	next     int
	freeList []int
}

func (a *pageAllocator) snapshot() allocState {
	return allocState{next: a.next, freeList: append([]int(nil), a.freeList...)}
}

func (a *pageAllocator) restore(s allocState) {
	a.next = s.next
	a.freeList = append(a.freeList[:0], s.freeList...)
}
