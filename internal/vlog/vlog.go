// Package vlog implements the value log of the KV-separated LSM-tree: a
// linear, logical NAND flash address space that values are appended to
// through the NAND page buffer, with the byte-granular value addressing of
// §3.4 (fine-grained packing makes value addresses byte offsets, not page
// numbers).
//
// Reads stitch together flushed pages (via the FTL) and still-open pages
// (from the buffer), because a value may straddle the durability boundary.
package vlog

import (
	"fmt"

	"bandslim/internal/dma"
	"bandslim/internal/ftl"
	"bandslim/internal/pagebuf"
	"bandslim/internal/sim"
)

// Addr is a byte-granular vLog address. The paper widens the LSM-tree's
// value-address fields to hold these (§3.4); 40 bits cover 1 TB.
type Addr int64

// VLog is the value log: a *circular* log over the region's pages. Virtual
// byte addresses grow monotonically; the page a virtual address lives on is
// its page number modulo the region size, so reclaiming the tail (WiscKey-
// style garbage collection, which relocates live values to the head) makes
// the space reusable. Not safe for concurrent use (single controller).
type VLog struct {
	buf      *pagebuf.Buffer
	ftl      *ftl.FTL
	baseLPN  int // first FTL logical page of the vLog region
	maxPages int // region size in pages
	pageSize int
	tail     int64 // lowest live virtual byte offset (page aligned)
	// Last-page read cache: firmware keeps the most recently read NAND
	// page in DRAM, so sequential scans over a densely packed log
	// amortize one NAND read across every value on the page. Virtual page
	// numbers are unique forever (the log is circular but offsets are
	// monotonic) and a flushed page is never rewritten, so the cache can never
	// serve stale data. The host keeps only the page number: a hit copies the
	// bytes out through the FTL map (ftl.FTL.ViewAt, uncharged), which follows
	// a GC migration by construction, so the 16 KiB of modelled DRAM cost no
	// host copy.
	cachePage int64
}

// Build constructs the page buffer and vLog together over FTL pages
// [baseLPN, baseLPN+maxPages), wiring the buffer's flush path into the FTL
// region. This is the normal constructor.
func Build(f *ftl.FTL, bufCfg pagebuf.Config, eng *dma.Engine, baseLPN, maxPages int) (*VLog, error) {
	if baseLPN < 0 || maxPages <= 0 || baseLPN+maxPages > f.LogicalPages() {
		return nil, fmt.Errorf("vlog: region [%d,%d) exceeds FTL capacity %d",
			baseLPN, baseLPN+maxPages, f.LogicalPages())
	}
	if bufCfg.PageSize != f.PageSize() {
		return nil, fmt.Errorf("vlog: page size %d != FTL page size %d", bufCfg.PageSize, f.PageSize())
	}
	v := &VLog{ftl: f, baseLPN: baseLPN, maxPages: maxPages, pageSize: bufCfg.PageSize, cachePage: -1}
	buf, err := pagebuf.New(bufCfg, eng, v.flushPage)
	if err != nil {
		return nil, err
	}
	v.buf = buf
	return v, nil
}

// lpnOf maps a virtual page number onto the circular region.
func (v *VLog) lpnOf(pageNo int64) int {
	return v.baseLPN + int(pageNo%int64(v.maxPages))
}

// flushPage persists one vLog page through the FTL, with the page buffer's
// sector ends, so the flash need not search the page for its zero tails.
func (v *VLog) flushPage(t sim.Time, pageNo int64, data []byte) (sim.Time, error) {
	tailPage := v.tail / int64(v.pageSize)
	if pageNo-tailPage >= int64(v.maxPages) {
		return t, fmt.Errorf("vlog: page %d wraps onto live tail page %d", pageNo, tailPage)
	}
	return v.ftl.WriteSectors(t, v.lpnOf(pageNo), data, v.buf.SectorEnds(pageNo))
}

// Buffer exposes the underlying page buffer (for policy stats).
func (v *VLog) Buffer() *pagebuf.Buffer { return v.buf }

// CapacityBytes reports the byte size of the vLog region.
func (v *VLog) CapacityBytes() int64 { return int64(v.maxPages) * int64(v.pageSize) }

// AppendPiggybacked appends a value that arrived inline in NVMe commands.
func (v *VLog) AppendPiggybacked(t sim.Time, value []byte) (Addr, sim.Time, error) {
	if err := v.checkRoom(len(value)); err != nil {
		return 0, t, err
	}
	a, end, err := v.buf.PlacePiggybacked(t, value)
	if err != nil {
		return 0, t, err
	}
	return Addr(a), end, nil
}

// AppendDMA appends a value that arrived by page-unit DMA.
func (v *VLog) AppendDMA(t sim.Time, value []byte) (Addr, sim.Time, error) {
	if err := v.checkRoom(len(value)); err != nil {
		return 0, t, err
	}
	a, end, err := v.buf.PlaceDMA(t, value)
	if err != nil {
		return 0, t, err
	}
	return Addr(a), end, nil
}

func (v *VLog) checkRoom(n int) error {
	if v.buf.Frontier()+int64(n)+int64(v.pageSize) > v.tail+v.CapacityBytes() {
		return fmt.Errorf("vlog: full (live span [%d,%d), capacity %d); run garbage collection: %w",
			v.tail, v.buf.Frontier(), v.CapacityBytes(), ftl.ErrNoSpace)
	}
	return nil
}

// Tail reports the lowest live virtual offset (everything below has been
// reclaimed).
func (v *VLog) Tail() int64 { return v.tail }

// FreeBytes reports how much can still be appended before GC is needed.
func (v *VLog) FreeBytes() int64 {
	free := v.tail + v.CapacityBytes() - v.buf.Frontier() - int64(v.pageSize)
	if free < 0 {
		free = 0
	}
	return free
}

// AdvanceTail reclaims pages virtual offsets below newTail (which must be
// page-aligned, at or below the flushed boundary, and monotonic). The caller
// (the controller's GC) must already have relocated every live value out of
// the reclaimed range. Freed pages are trimmed in the FTL.
func (v *VLog) AdvanceTail(newTail int64) error {
	if newTail%int64(v.pageSize) != 0 {
		return fmt.Errorf("vlog: tail %d not page aligned", newTail)
	}
	if newTail < v.tail {
		return fmt.Errorf("vlog: tail cannot move backwards (%d < %d)", newTail, v.tail)
	}
	if newTail > v.buf.FlushedBelow() {
		return fmt.Errorf("vlog: tail %d beyond flushed boundary %d", newTail, v.buf.FlushedBelow())
	}
	for p := v.tail / int64(v.pageSize); p < newTail/int64(v.pageSize); p++ {
		if err := v.ftl.Trim(v.lpnOf(p)); err != nil {
			return fmt.Errorf("vlog: trim page %d: %w", p, err)
		}
	}
	v.tail = newTail
	return nil
}

// Contains reports whether [addr, addr+n) lies entirely inside the vLog's
// live range (above the reclaimed tail, below the append frontier). Mount
// checks each MemTable entry it reads back with it.
func (v *VLog) Contains(addr Addr, n int) bool {
	return int64(addr) >= v.tail && int64(addr)+int64(n) <= v.buf.Frontier()
}

// Read fetches n bytes at addr, stitching flushed NAND pages and open buffer
// pages, and returns the data plus the completion time of the slowest page
// read involved.
func (v *VLog) Read(t sim.Time, addr Addr, n int) ([]byte, sim.Time, error) {
	return v.ReadInto(t, addr, n, nil)
}

// ReadInto is the scratch-reusing variant of Read: the value is assembled by
// appending to dst (pass scratch[:0] to reuse capacity), so steady-state reads
// that hit open buffer pages or the last-page cache allocate nothing. Cost
// accounting is identical to Read.
func (v *VLog) ReadInto(t sim.Time, addr Addr, n int, dst []byte) ([]byte, sim.Time, error) {
	if int64(addr) < v.tail || int64(addr)+int64(n) > v.buf.Frontier() {
		return nil, t, fmt.Errorf("vlog: read [%d,%d) outside live range [%d,%d)",
			addr, int64(addr)+int64(n), v.tail, v.buf.Frontier())
	}
	start := len(dst)
	if cap(dst)-start < n {
		// One exact-sized allocation. append(dst, make([]byte, n)...) — which
		// is also what slices.Grow does inside — costs a throwaway n-byte slice
		// as well wherever the compiler does not elide it (-race builds).
		dst = append(make([]byte, 0, start+n), dst...)
	}
	dst = dst[:start+n]
	out := dst[start:]
	off := 0
	end := t
	for off < n {
		pos := int64(addr) + int64(off)
		pageNo := pos / int64(v.pageSize)
		inPage := int(pos % int64(v.pageSize))
		take := v.pageSize - inPage
		if take > n-off {
			take = n - off
		}
		part := out[off : off+take]
		if page, ok := v.buf.OpenPage(pageNo); ok {
			copy(part, page[inPage:])
		} else if pageNo == v.cachePage {
			if err := v.ftl.ViewAt(v.lpnOf(pageNo), part, inPage); err != nil {
				return nil, t, fmt.Errorf("vlog: cached page %d: %w", pageNo, err)
			}
		} else {
			e, err := v.ftl.ReadAt(t, v.lpnOf(pageNo), part, inPage)
			if err != nil {
				return nil, t, fmt.Errorf("vlog: page %d: %w", pageNo, err)
			}
			v.cachePage = pageNo
			if e > end {
				end = e
			}
		}
		off += take
	}
	return dst, end, nil
}

// Flush forces every buffered page to NAND.
func (v *VLog) Flush(t sim.Time) (sim.Time, error) {
	return v.buf.FlushAll(t)
}
