package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

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
// view holds the whole image written) that is only good until the next call
// on the store (a write can make FTL GC move the page, a read can evict it
// from the device page cache): the tree decodes it in place at once or
// copies it. WritePage copies data before returning.
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

// restartInterval is how many entries apart a page's restart points lie:
// the handle remembers where every restartInterval-th entry of each page
// starts, so a lookup binary-searches those and then walks at most
// restartInterval entries instead of half the page.
const restartInterval = 16

// SSTable is one immutable sorted run. Pages hold the encoded entries; the
// in-memory handle keeps the page list and a sparse index, as in-device
// LSM-trees keep their level lists in DRAM. The index is two-level: the first
// key of each page picks the page, the restart offsets pick the stretch of it
// to walk. Its modelled DRAM is the first key plus 2 B per restartInterval
// entries per page — about 108 B for a full 16 KiB page of 8-byte keys — which
// any device-DRAM budget (caches, filters) has to count beside its own.
type SSTable struct {
	pages    []int    // region-relative page numbers, in key order
	firstKey [][]byte // first key of each page
	// restarts holds, for every page, the byte offsets of its entries number
	// restartInterval, 2*restartInterval, ... (entry 0 sits at offset 0 and is
	// not recorded). One allocation: restarts[:len(pages)+1] are the bounds,
	// page i's offsets being restarts[restarts[i]:restarts[i+1]].
	restarts []uint16
	smallest []byte
	largest  []byte
	entries  int
}

// pageRestarts returns the restart offsets of the table's i-th page.
func (t *SSTable) pageRestarts(i int) []uint16 {
	return t.restarts[t.restarts[i]:t.restarts[i+1]]
}

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

// seek moves the cursor to the first entry whose key is >= key, so that next
// yields it, or to the end of the page when there is none. restarts are the
// page's restart offsets (SSTable.pageRestarts): a binary search over the
// entries they name finds the last one not above key, and the walk from there
// covers at most restartInterval entries. Every entry the search compares
// against has passed parseEntry, and an entry on that path that does not
// parse fails the seek; entries off the path are not looked at.
func (c *pageCursor) seek(key []byte, restarts []uint16) error {
	c.off = 0
	lo, hi := 0, len(restarts) // restarts[:lo] name keys <= key, restarts[hi:] keys > key
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := int(restarts[mid])
		if off >= len(c.data) {
			return fmt.Errorf("lsm: restart offset %d beyond the page (%d bytes)", off, len(c.data))
		}
		k, _, err := c.keyAt(off)
		if err != nil {
			return fmt.Errorf("lsm: restart offset %d: %w", off, err)
		}
		if bytes.Compare(k, key) <= 0 {
			lo, c.off = mid+1, off
		} else {
			hi = mid
		}
	}
	for c.off < len(c.data) {
		k, n, err := c.keyAt(c.off)
		if err != nil {
			if err == errEndOfPage {
				err = nil
			}
			return err
		}
		if bytes.Compare(k, key) >= 0 {
			return nil
		}
		c.off += n
	}
	return nil
}

// keyAt validates the entry at off and returns its key, a view into the page,
// and its encoded length.
func (c *pageCursor) keyAt(off int) (key []byte, n int, err error) {
	kl, _, _, _, n, err := parseEntry(c.data[off:])
	if err != nil {
		return nil, 0, err
	}
	return c.data[off+1 : off+1+kl], n, nil
}

// searchPage looks key up in a page image whose restart offsets are restarts.
func searchPage(data, key []byte, restarts []uint16) (Entry, bool, error) {
	c := pageCursor{data: data}
	if err := c.seek(key, restarts); err != nil {
		return Entry{}, false, err
	}
	var e Entry
	if ok, err := c.next(&e); !ok || !bytes.Equal(e.Key, key) {
		return Entry{}, false, err
	}
	e.Key = key // the caller's key, not the view into the page
	return e, true, nil
}

// tableScratch is what a tableBuilder stages a table in before the store and
// the handle get it, owned by the tree so that one serves every table it
// builds: page is the PageSize image being filled, of which only page[:used]
// is ever meaningful; restarts collects the restart offsets of the table so
// far, each page's run closed by a 0 (no restart sits at offset 0).
type tableScratch struct {
	page     []byte
	restarts []uint16
}

// tableBuilder streams sorted entries into pages through a PageStore.
type tableBuilder struct {
	store   PageStore
	alloc   *pageAllocator
	table   *SSTable
	scratch *tableScratch
	used    int    // bytes of scratch.page filled
	inPage  int    // entries in scratch.page
	last    []byte // the newest key added: the caller's slice, good until finish
	end     sim.Time
}

func newTableBuilder(store PageStore, alloc *pageAllocator, scratch *tableScratch) *tableBuilder {
	scratch.restarts = scratch.restarts[:0]
	return &tableBuilder{store: store, alloc: alloc, table: &SSTable{}, scratch: scratch}
}

// add appends one entry (entries must arrive in strictly increasing key
// order, and their keys stay untouched until finish; the caller guarantees
// both).
func (b *tableBuilder) add(t sim.Time, e Entry) error {
	need := encodedLen(e)
	if b.used+need > len(b.scratch.page) {
		if err := b.flushPage(t); err != nil {
			return err
		}
	}
	if b.used == 0 {
		b.table.firstKey = append(b.table.firstKey, append([]byte(nil), e.Key...))
	} else if b.inPage%restartInterval == 0 {
		b.scratch.restarts = append(b.scratch.restarts, uint16(b.used))
	}
	b.used += encodeEntry(b.scratch.page[b.used:], e)
	b.inPage++
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
	end, err := b.store.WritePage(t, page, b.scratch.page[:b.used])
	if err != nil {
		b.alloc.free(page)
		return err
	}
	if end > b.end {
		b.end = end
	}
	b.table.pages = append(b.table.pages, page)
	b.scratch.restarts = append(b.scratch.restarts, 0)
	b.used, b.inPage = 0, 0
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
	// The staged list holds one terminator per page, the handle's one bound
	// per page and one more.
	staged := b.scratch.restarts
	if len(staged)+1 > math.MaxUint16 {
		return nil, b.end, fmt.Errorf("lsm: table of %d entries on %d pages outgrows its restart index", b.table.entries, len(b.table.pages))
	}
	restarts := make([]uint16, len(staged)+1)
	page, next := 0, len(b.table.pages)+1
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
	b.table.restarts = restarts
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
