package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bandslim/internal/ftl"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// PageStore abstracts the NAND meta region SSTables are serialized into.
// Page numbers are region-relative. The FTL-backed implementation charges
// simulated NAND time; tests may use an in-memory store.
//
// ReadPage returns a read-only view of the page's first len(view) bytes (at
// most PageSize; the rest of the page reads as zero, and an SSTable page's
// view holds the whole image written) that stays good until that page is
// next written or trimmed: FTL GC moves a page's payload, view and all, and
// the device page cache only keeps page numbers. The tree keeps views over a
// merge, whose inputs are freed only at the next commit, and an iterator
// keeps its sources' views until a commit frees pages. WritePage copies data
// before returning.
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

// ViewPage returns what ReadPage would without the flash operation (see
// ftl.FTL.View): for device DRAM that already holds the page.
func (s *FTLStore) ViewPage(page int) ([]byte, error) {
	if page < 0 || page >= s.pages {
		return nil, fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.View(s.base + page)
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
// Entries never span pages; a page's entries end where its view does, or at
// a 0 keyLen sentinel where the view runs on into zero padding.
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

// entryKeyLen checks the header of the entry src starts with — not the end
// of the page's entries (a 0 keyLen sentinel), a key of at most MaxKeySize,
// and the whole entry within src — and returns its key length, or 0 when the
// check fails; headerError then says why. Every entry anything reads from a
// page has passed it.
func entryKeyLen(src []byte) int {
	if len(src) > 0 {
		if kl := int(src[0]); uint(kl-1) < MaxKeySize && len(src) >= entryFixed+kl {
			return kl
		}
	}
	return 0
}

// headerError is the error of an entry header entryKeyLen refuses.
func headerError(src []byte) error {
	switch {
	case len(src) < 1:
		return fmt.Errorf("lsm: truncated entry header")
	case src[0] == 0:
		return errEndOfPage
	}
	return fmt.Errorf("lsm: corrupt entry (keyLen %d, %d bytes left)", src[0], len(src))
}

// parseEntry validates one encoded entry and returns its fields without
// materializing the key (the key occupies src[1 : 1+kl]).
func parseEntry(src []byte) (kl int, addr vlog.Addr, size uint32, tomb bool, n int, err error) {
	if kl = entryKeyLen(src); kl == 0 {
		return 0, 0, 0, false, 0, headerError(src)
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

// restartInterval is how many entries apart a page's restart points lie:
// the handle remembers where every restartInterval-th entry of each page
// starts, so a lookup binary-searches those and then walks at most
// restartInterval entries instead of half the page.
const restartInterval = 16

// SSTable is one immutable sorted run. Pages hold the encoded entries; the
// in-memory handle keeps the page list, a sparse index and a bloom filter, as
// in-device LSM-trees keep their level lists in DRAM. The index is two-level:
// the first key of each page (its fence) picks the page, the restart offsets
// pick the stretch of it to walk. Its modelled DRAM is the first key plus 2 B
// per restartInterval entries per page — about 108 B for a full 16 KiB page of
// 8-byte keys — and the filter's sim.BloomBitsPerKey bits, about 1.25 B, per
// entry; any device-DRAM budget (caches) has to count both beside its own.
// The host holds the fences and the bounds as sim.Keys, 24 B each, which
// compare without touching a byte of any key. A handle is immutable while its
// table is live; once a commit frees the table, the tree's tableBuilder
// refills the handle, slices and filter included, for a table built later.
type SSTable struct {
	pages  []int     // region-relative page numbers, in key order
	fences []sim.Key // first key of each page
	// filter holds the sim.Key.FilterHash of every entry, tombstones
	// included: a point lookup it rules out reads no page. Nothing else
	// consults it.
	filter sim.Bloom
	// restarts holds, for every page, the byte offsets of its entries number
	// restartInterval, 2*restartInterval, ... (entry 0 sits at offset 0 and is
	// not recorded). One slice: restarts[:len(pages)+1] are the bounds, page
	// i's offsets being restarts[restarts[i]:restarts[i+1]].
	restarts []uint16
	smallest sim.Key
	largest  sim.Key
}

// pageRestarts returns the restart offsets of the table's i-th page.
func (t *SSTable) pageRestarts(i int) []uint16 {
	return t.restarts[t.restarts[i]:t.restarts[i+1]]
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *SSTable) overlaps(lo, hi sim.Key) bool {
	return !t.largest.Less(lo) && !hi.Less(t.smallest)
}

// pageForKey returns the index of the page that may contain k (the last page
// whose fence is <= k), or -1 when the key precedes the table.
func (t *SSTable) pageForKey(k sim.Key) int {
	return sort.Search(len(t.fences), func(i int) bool { return k.Less(t.fences[i]) }) - 1
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

// seek moves the cursor to the first entry whose key is >= k, so that next
// yields it, or to the end of the page when there is none. restarts are the
// page's restart offsets (SSTable.pageRestarts): a binary search over the
// entries they name finds the last one not above k, and the walk from there
// covers at most restartInterval entries. Every entry the search compares
// against has passed the header check parseEntry makes (entryKeyLen), and an
// entry on that path that fails it fails the seek; entries off the path are
// not looked at, and only the one the cursor lands on is decoded in full, by
// next.
func (c *pageCursor) seek(k sim.Key, restarts []uint16) error {
	c.off = 0
	lo, hi := 0, len(restarts) // restarts[:lo] name keys <= k, restarts[hi:] keys > k
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := int(restarts[mid])
		if off >= len(c.data) {
			return fmt.Errorf("lsm: restart offset %d beyond the page (%d bytes)", off, len(c.data))
		}
		key, _, err := c.keyAt(off)
		if err != nil {
			return fmt.Errorf("lsm: restart offset %d: %w", off, err)
		}
		if k.Less(key) {
			hi = mid
		} else {
			lo, c.off = mid+1, off
		}
	}
	for c.off < len(c.data) {
		key, n, err := c.keyAt(c.off)
		if err != nil {
			if err == errEndOfPage {
				err = nil
			}
			return err
		}
		if !key.Less(k) {
			return nil
		}
		c.off += n
	}
	return nil
}

// keyAt checks the header of the entry at off and returns its inline key and
// its encoded length.
func (c *pageCursor) keyAt(off int) (key sim.Key, n int, err error) {
	src := c.data[off:]
	kl := entryKeyLen(src)
	if kl == 0 {
		return sim.Key{}, 0, headerError(src)
	}
	return sim.KeyOf(src[1 : 1+kl]), entryFixed + kl, nil
}

// searchPage looks k up in a page image whose restart offsets are restarts.
// The entry's Key is a view into the page.
func searchPage(data []byte, k sim.Key, restarts []uint16) (Entry, bool, error) {
	c := pageCursor{data: data}
	if err := c.seek(k, restarts); err != nil {
		return Entry{}, false, err
	}
	var e Entry
	if ok, err := c.next(&e); !ok || sim.KeyOf(e.Key) != k {
		return Entry{}, false, err
	}
	return e, true, nil
}

// tableBuilder streams sorted entries into pages through a PageStore. The
// tree owns one, which builds every table it writes, one at a time, and
// stages each in storage it keeps from one table to the next before the store
// and the handle get it: page is the PageSize image being filled, of which
// only page[:used] is ever meaningful; pages the pages the table has written
// so far, and fences the first key of each; restarts collects the restart
// offsets of the table so far, each page's run closed by a 0 (no restart sits
// at offset 0); hashes the sim.Key.FilterHash of each of its entries.
// free is the free list of table handles: the tables a commit freed, each
// with its page list, fences, restart index and filter, which finish refills
// for the next tables built instead of allocating new ones; handed holds the
// handles finish has given out since the last commit, which Restore puts
// back on the list.
type tableBuilder struct {
	store    PageStore
	alloc    *pageAllocator
	page     []byte
	pages    []int
	fences   []sim.Key
	restarts []uint16
	hashes   []uint64
	free     []*SSTable
	handed   []*SSTable
	used     int     // bytes of page filled
	inPage   int     // entries in page
	entries  int     // entries in the table
	last     sim.Key // the newest key added
	end      sim.Time
}

// start opens a new table, dropping whatever a table left unfinished staged.
func (b *tableBuilder) start() *tableBuilder {
	b.pages, b.fences, b.restarts, b.hashes = b.pages[:0], b.fences[:0], b.restarts[:0], b.hashes[:0]
	b.used, b.inPage, b.entries, b.end = 0, 0, 0, 0
	return b
}

// handle returns a handle with an empty filter for keys keys: the free handle
// whose filter storage is the smallest that holds it or, when none does, a
// new handle with new storage.
func (b *tableBuilder) handle(keys int) *SSTable {
	words, best := sim.BloomWords(keys), -1
	for i, h := range b.free {
		if cap(h.filter) >= words && (best < 0 || cap(h.filter) < cap(b.free[best].filter)) {
			best = i
		}
	}
	var h *SSTable
	if best < 0 {
		h = &SSTable{filter: make(sim.Bloom, words)}
	} else {
		h = b.free[best]
		last := len(b.free) - 1
		b.free[best], b.free[last] = b.free[last], nil
		b.free = b.free[:last]
		h.filter = h.filter[:words]
		h.filter.Reset()
	}
	b.handed = append(b.handed, h)
	return h
}

// add appends e, whose inline key is k. Entries must arrive in strictly
// increasing key order; the caller guarantees it.
func (b *tableBuilder) add(t sim.Time, e Entry, k sim.Key) error {
	dst, err := b.reserve(t, k, encodedLen(e))
	if err != nil {
		return err
	}
	encodeEntry(dst, e)
	return nil
}

// addEncoded appends the entry enc encodes, a parsed entry whose inline key
// is k, under add's conditions. Its bytes are copied as they are but for the
// flag byte, masked to the tombstone bit as encodeEntry writes it.
func (b *tableBuilder) addEncoded(t sim.Time, enc []byte, k sim.Key) error {
	dst, err := b.reserve(t, k, len(enc))
	if err != nil {
		return err
	}
	copy(dst, enc)
	dst[len(dst)-1] &= flagTombstone
	return nil
}

// reserve books the next entry, whose inline key is k and whose encoding
// takes n bytes, and returns the n bytes of the page it goes in.
func (b *tableBuilder) reserve(t sim.Time, k sim.Key, n int) ([]byte, error) {
	if b.used+n > len(b.page) {
		if err := b.flushPage(t); err != nil {
			return nil, err
		}
	}
	if b.used == 0 {
		b.fences = append(b.fences, k)
	} else if b.inPage%restartInterval == 0 {
		b.restarts = append(b.restarts, uint16(b.used))
	}
	dst := b.page[b.used : b.used+n]
	b.used += n
	b.inPage++
	b.hashes = append(b.hashes, k.FilterHash())
	b.last = k
	b.entries++
	return dst, nil
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
	b.pages = append(b.pages, page)
	b.restarts = append(b.restarts, 0)
	b.used, b.inPage = 0, 0
	return nil
}

// finish flushes the tail page and returns the table (nil if empty). The
// handle, a free one when there is one, gets what the builder staged: the
// page list, the fences and the restart index, each refilled in the handle's
// own storage when that holds it.
func (b *tableBuilder) finish(t sim.Time) (*SSTable, sim.Time, error) {
	if err := b.flushPage(t); err != nil {
		return nil, b.end, err
	}
	if b.entries == 0 {
		return nil, b.end, nil
	}
	// The staged list holds one terminator per page, the handle's one bound
	// per page and one more.
	staged := b.restarts
	if len(staged)+1 > math.MaxUint16 {
		return nil, b.end, fmt.Errorf("lsm: table of %d entries on %d pages outgrows its restart index", b.entries, len(b.pages))
	}
	table := b.handle(len(b.hashes))
	restarts := table.restarts
	if cap(restarts) < len(staged)+1 {
		restarts = make([]uint16, len(staged)+1)
	}
	restarts = restarts[:len(staged)+1] // every slot is written below
	page, next := 0, len(b.pages)+1
	restarts[0] = uint16(next)
	for _, off := range staged {
		if off == 0 {
			page++
			restarts[page] = uint16(next)
			continue
		}
		restarts[next] = off
		next++
	}
	table.restarts = restarts
	for _, h := range b.hashes {
		table.filter.Add(h)
	}
	table.pages = append(table.pages[:0], b.pages...)
	table.fences = append(table.fences[:0], b.fences...)
	table.smallest, table.largest = b.fences[0], b.last
	return table, b.end, nil
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

// allocState is a restorable copy of the allocator, captured in the tree's
// committed catalog; save refills it in its own storage.
type allocState struct {
	next     int
	freeList []int
}

func (s *allocState) save(a *pageAllocator) {
	s.next = a.next
	s.freeList = append(s.freeList[:0], a.freeList...)
}

func (a *pageAllocator) restore(s allocState) {
	a.next = s.next
	a.freeList = append(a.freeList[:0], s.freeList...)
}
