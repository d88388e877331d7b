// Package pagebuf implements the KV-SSD's NAND page buffer — the battery-
// backed DRAM staging area between incoming values and NAND pages — together
// with the four packing policies the paper evaluates (§3.3):
//
//   - PolicyBlock: the baseline block-SSD behaviour. Every payload starts at
//     the next 4 KiB boundary and occupies page-aligned space, so a 32-byte
//     value burns 4 KiB of NAND (Problem #2, §2.3).
//   - PolicyAll: KAML-style All Packing. Every value is memcpy'd to the
//     write pointer, maximizing density at the price of copying large
//     DMA-transferred values.
//   - PolicySelective: piggybacked values pack at the WP; DMA values are
//     placed at the next 4 KiB boundary (no copy) and the WP jumps past
//     them, trading internal fragmentation for zero large copies.
//   - PolicyBackfill: Selective Packing with Backfilling. DMA values are
//     placed page-aligned and recorded in the DMA Log Table; the WP stays
//     behind and later piggybacked values fill the gaps, skipping DLT
//     regions in O(1).
//
// The buffer addresses the value log as a linear byte space divided into
// logical NAND pages; completed pages are flushed through a caller-supplied
// function (the vLog appends them through the FTL to flash).
package pagebuf

import (
	"fmt"

	"bandslim/internal/dma"
	"bandslim/internal/metrics"
	"bandslim/internal/pcie"
	"bandslim/internal/pool"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Policy selects the packing behaviour.
type Policy int

// The four policies of §3.3, in the paper's naming.
const (
	PolicyBlock Policy = iota
	PolicyAll
	PolicySelective
	PolicyBackfill
)

func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "Block"
	case PolicyAll:
		return "All"
	case PolicySelective:
		return "Select"
	case PolicyBackfill:
		return "Backfill"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as printed by String) back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "Block", "block":
		return PolicyBlock, nil
	case "All", "all":
		return PolicyAll, nil
	case "Select", "select", "Selective", "selective":
		return PolicySelective, nil
	case "Backfill", "backfill":
		return PolicyBackfill, nil
	}
	return 0, fmt.Errorf("pagebuf: unknown policy %q", s)
}

// FlushFunc persists one logical NAND page of the value log. pageNo is the
// logical page number within the vLog; data is exactly one NAND page.
type FlushFunc func(t sim.Time, pageNo int64, data []byte) (sim.Time, error)

// Stats tallies buffer activity.
type Stats struct {
	PayloadBytes  metrics.Counter // value bytes accepted
	Flushes       metrics.Counter // NAND page writes issued
	ForcedFlushes metrics.Counter // flushes forced by the open-entry cap
	BackfillJumps metrics.Counter // WP jumps over DLT regions
	// FlushWaitTime accumulates the nanoseconds requests spent blocked on
	// the NAND flush pipeline (handoff backpressure) — the component that
	// dominates Block-policy response times.
	FlushWaitTime metrics.Counter
}

// Config sizes the buffer.
type Config struct {
	PageSize   int    // NAND page size (16 KiB on Cosmos+)
	MaxEntries int    // open NAND-page entries cap (512 in the paper)
	Policy     Policy // packing policy
	DLTCap     int    // DMA Log Table capacity (0: MaxEntries)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageSize < pcie.MemoryPageSize || c.PageSize%pcie.MemoryPageSize != 0 {
		return fmt.Errorf("pagebuf: page size %d must be a positive multiple of %d", c.PageSize, pcie.MemoryPageSize)
	}
	if c.MaxEntries < 2 {
		return fmt.Errorf("pagebuf: MaxEntries %d must be >= 2", c.MaxEntries)
	}
	if c.DLTCap < 0 {
		return fmt.Errorf("pagebuf: DLTCap %d must be >= 0", c.DLTCap)
	}
	return nil
}

// Buffer is the NAND page buffer. It is single-owner (the device controller)
// and not safe for concurrent use, like the firmware structure it models.
type Buffer struct {
	cfg   Config
	eng   *dma.Engine
	flush FlushFunc

	pages    map[int64][]byte // open logical pages, lazily materialized
	minOpen  int64            // lowest open page number; all below are flushed
	wp       int64            // write pointer (vLog byte offset)
	frontier int64            // end of the highest placement so far
	dlt      *DLT
	// lastFlushEnd is when the in-flight NAND program completes. The
	// buffer is battery-backed DRAM, so a request triggering a flush waits
	// only for the *handoff* — it blocks only while the previous flush is
	// still occupying the NAND path (backpressure), not for its own
	// program to finish. This is what hides NAND latency behind packing
	// (§2.2) and produces the paper's Fig. 4/11/12 response shapes.
	lastFlushEnd sim.Time
	stats        Stats
	tr           trace.Tracer
	// pagePool recycles flushed page buffers back into page(); recycled pages
	// are zeroed before reuse so gap bytes stay deterministic (identical to
	// freshly allocated pages).
	pagePool pool.Bytes
	// zero is a shared all-zeros page served for in-window pages that were
	// never written (OpenPage) and flushed without content. It is read-only by
	// contract: OpenPage callers must not modify returned slices, and the
	// flush path (FTL→NAND) copies what it stores.
	zero []byte
}

// New returns a buffer. eng accounts memcpy costs; flush persists pages.
func New(cfg Config, eng *dma.Engine, flush FlushFunc) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DLTCap == 0 {
		cfg.DLTCap = cfg.MaxEntries
	}
	return &Buffer{
		cfg:   cfg,
		eng:   eng,
		flush: flush,
		pages: make(map[int64][]byte),
		dlt:   NewDLT(cfg.DLTCap),
		zero:  make([]byte, cfg.PageSize),
	}, nil
}

// Stats exposes the buffer's tallies.
func (b *Buffer) Stats() *Stats { return &b.stats }

// SetTracer enables placement/flush tracing; nil turns it back off.
func (b *Buffer) SetTracer(tr trace.Tracer) { b.tr = tr }

// WP reports the current write pointer (for tests and introspection).
func (b *Buffer) WP() int64 { return b.wp }

// Frontier reports the end of the highest placement.
func (b *Buffer) Frontier() int64 { return b.frontier }

// OpenPages reports how many buffer entries are currently open.
func (b *Buffer) OpenPages() int { return len(b.pages) }

func (b *Buffer) pageOf(addr int64) int64 { return addr / int64(b.cfg.PageSize) }

func alignUp(addr int64) int64 {
	const p = pcie.MemoryPageSize
	return (addr + p - 1) / p * p
}

// page materializes (or returns) an open logical page. New pages come from
// the recycle pool and are zeroed, so a reused page is indistinguishable from
// a fresh allocation.
func (b *Buffer) page(no int64) []byte {
	p, ok := b.pages[no]
	if !ok {
		p = b.pagePool.Get(b.cfg.PageSize)
		for i := range p {
			p[i] = 0
		}
		b.pages[no] = p
	}
	return p
}

// writeBytes copies value into the vLog byte space at addr, spanning pages
// as needed.
func (b *Buffer) writeBytes(addr int64, value []byte) {
	off := 0
	for off < len(value) {
		pno := b.pageOf(addr + int64(off))
		if pno < b.minOpen {
			panic(fmt.Sprintf("pagebuf: write at %d into flushed page %d", addr, pno))
		}
		p := b.page(pno)
		inPage := int((addr + int64(off)) % int64(b.cfg.PageSize))
		n := copy(p[inPage:], value[off:])
		off += n
	}
}

// FlushedBelow reports the vLog offset below which everything has been
// flushed to NAND (the durable/buffered boundary the vLog read path uses).
func (b *Buffer) FlushedBelow() int64 { return b.minOpen * int64(b.cfg.PageSize) }

// OpenPage returns the buffered contents of logical page no if it is still
// open. The returned slice is the live page; callers must not modify it.
// Values can straddle the flushed boundary, so the vLog read path stitches
// page-by-page between NAND and the buffer using this accessor.
func (b *Buffer) OpenPage(no int64) ([]byte, bool) {
	if no < b.minOpen {
		return nil, false
	}
	p, ok := b.pages[no]
	if !ok {
		// Within the open window but never written: logically zeros. The
		// shared zero page is served without allocating; callers only read.
		if no <= b.pageOf(b.frontier) {
			return b.zero, true
		}
		return nil, false
	}
	return p, true
}

// PlacePiggybacked packs a value delivered through NVMe command fields and
// returns its vLog address and the completion time (memcpy plus any flush it
// triggered). Every policy memcpy's piggybacked values — they arrive in
// command dwords, not via DMA.
func (b *Buffer) PlacePiggybacked(t sim.Time, value []byte) (int64, sim.Time, error) {
	if len(value) == 0 {
		return b.wp, t, nil
	}
	var addr int64
	switch b.cfg.Policy {
	case PolicyBlock:
		// Baseline packs everything along 4 KiB boundaries.
		addr = alignUp(b.wp)
		b.wp = addr + int64(pcie.PageAlignedSize(len(value)))
	case PolicyAll, PolicySelective:
		addr = b.wp
		b.wp += int64(len(value))
	case PolicyBackfill:
		// Skip over DMA regions the WP has caught up with (O(1) per
		// check against the oldest DLT entry).
		for {
			e, ok := b.dlt.Oldest()
			if !ok || b.wp+int64(len(value)) <= e.Addr {
				break
			}
			b.wp = e.Addr + e.Size
			b.dlt.Consume()
			b.stats.BackfillJumps.Inc()
			if b.tr != nil {
				b.tr.Emit(trace.Event{Cat: trace.CatPageBuf, Name: trace.EvBackfillJump, Start: t, End: t, Arg: b.wp})
			}
		}
		addr = b.wp
		b.wp += int64(len(value))
	default:
		return 0, t, fmt.Errorf("pagebuf: unknown policy %d", b.cfg.Policy)
	}
	b.writeBytes(addr, value)
	if end := addr + int64(len(value)); end > b.frontier {
		b.frontier = end
	}
	t = b.eng.Memcpy(t, len(value))
	b.stats.PayloadBytes.Add(int64(len(value)))
	if b.tr != nil {
		b.tr.Emit(trace.Event{Cat: trace.CatPageBuf, Name: trace.EvPiggyAppend, Start: t, End: t, Bytes: int64(len(value)), Arg: addr})
	}
	end, err := b.retirePages(t, false)
	if err != nil {
		return 0, t, err
	}
	return addr, end, nil
}

// PlaceDMA accepts a value that arrived by page-unit DMA (value holds the
// exact payload; the wire moved its page-aligned size). It returns the vLog
// address and completion time. Placement and copying depend on the policy.
func (b *Buffer) PlaceDMA(t sim.Time, value []byte) (int64, sim.Time, error) {
	if len(value) == 0 {
		return b.wp, t, nil
	}
	var addr int64
	switch b.cfg.Policy {
	case PolicyBlock:
		addr = alignUp(b.wp)
		b.wp = addr + int64(pcie.PageAlignedSize(len(value))) // DMA lands directly, no copy
	case PolicyAll:
		// Pack at the WP. If the WP happens to sit on a 4 KiB boundary
		// the DMA engine can target it directly and the copy is skipped
		// (§3.3.1); otherwise the value staged at the aligned address is
		// memcpy'd back to the WP.
		addr = b.wp
		if !dma.PageAligned(b.wp) {
			t = b.eng.Memcpy(t, len(value))
		}
		b.wp += int64(len(value))
	case PolicySelective:
		// Place at the next boundary, no copy; WP jumps past the value.
		addr = alignUp(b.wp)
		b.wp = addr + int64(len(value))
	case PolicyBackfill:
		// Place at the next boundary past the frontier, record it in the
		// DLT, and leave the WP behind to backfill the gap.
		addr = alignUp(b.frontier)
		if b.dlt.Full() {
			// Retire the oldest DMA region: the WP abandons the gap
			// before it (internal fragmentation under DMA-heavy load).
			e := b.dlt.Consume()
			if end := e.Addr + e.Size; end > b.wp {
				b.wp = end
			}
		}
		if err := b.dlt.Push(DLTEntry{Addr: addr, Size: int64(len(value))}); err != nil {
			return 0, t, err
		}
	default:
		return 0, t, fmt.Errorf("pagebuf: unknown policy %d", b.cfg.Policy)
	}
	b.writeBytes(addr, value)
	if end := addr + int64(len(value)); end > b.frontier {
		b.frontier = end
	}
	b.stats.PayloadBytes.Add(int64(len(value)))
	if b.tr != nil {
		b.tr.Emit(trace.Event{Cat: trace.CatPageBuf, Name: trace.EvDMAAppend, Start: t, End: t, Bytes: int64(len(value)), Arg: addr})
	}
	end, err := b.retirePages(t, false)
	if err != nil {
		return 0, t, err
	}
	return addr, end, nil
}

// retirePages flushes every completed page (below the WP's page) and, when
// the open window exceeds the entry cap, force-flushes the oldest page even
// if its gaps were never backfilled. It returns the completion time.
func (b *Buffer) retirePages(t sim.Time, all bool) (sim.Time, error) {
	end := t
	flushBelow := b.pageOf(b.wp)
	for b.minOpen < flushBelow {
		e, err := b.flushOldest(t)
		if err != nil {
			return end, err
		}
		if e > end {
			end = e
		}
	}
	// Enforce the entry cap: the window spans minOpen..pageOf(frontier-1).
	for b.openWindow() > int64(b.cfg.MaxEntries) {
		b.stats.ForcedFlushes.Inc()
		if b.tr != nil {
			b.tr.Emit(trace.Event{Cat: trace.CatPageBuf, Name: trace.EvForcedFlush, Start: t, End: t, Arg: b.minOpen})
		}
		e, err := b.forceFlushOldest(t)
		if err != nil {
			return end, err
		}
		if e > end {
			end = e
		}
	}
	if all {
		for b.openWindow() > 0 {
			e, err := b.forceFlushOldest(t)
			if err != nil {
				return end, err
			}
			if e > end {
				end = e
			}
		}
	}
	return end, nil
}

// openWindow reports how many page entries the open region spans.
func (b *Buffer) openWindow() int64 {
	if b.frontier <= b.minOpen*int64(b.cfg.PageSize) {
		return 0
	}
	return b.pageOf(b.frontier-1) - b.minOpen + 1
}

// flushOldest persists page minOpen and advances the window. The returned
// time is the *handoff* point: the moment the buffer entry is free again
// (once the previous in-flight program has finished), not the completion of
// this page's own program — the battery-backed buffer absorbs that latency.
func (b *Buffer) flushOldest(t sim.Time) (sim.Time, error) {
	no := b.minOpen
	data, ok := b.pages[no]
	if !ok {
		// Never-written page: flush the shared zero page. The flush path
		// copies what it stores (NAND programs duplicate the data), so the
		// shared page is never retained or mutated downstream.
		data = b.zero
	}
	handoff := t
	if b.lastFlushEnd > handoff {
		handoff = b.lastFlushEnd // previous flush still on the NAND path
		b.stats.FlushWaitTime.Add(int64(handoff.Sub(t)))
	}
	end, err := b.flush(handoff, no, data)
	if err != nil {
		return t, fmt.Errorf("pagebuf: flush page %d: %w", no, err)
	}
	b.lastFlushEnd = end
	if b.tr != nil {
		b.tr.Emit(trace.Event{Cat: trace.CatPageBuf, Name: trace.EvFlush, Start: handoff, End: end, Bytes: int64(b.cfg.PageSize), Arg: no})
	}
	if ok {
		delete(b.pages, no)
		b.pagePool.Put(data)
	}
	b.minOpen++
	b.stats.Flushes.Inc()
	return handoff, nil
}

// forceFlushOldest flushes page minOpen even though the WP has not passed
// it, abandoning any unfilled gaps (fragmentation) and retiring DLT entries
// the WP can no longer reach.
func (b *Buffer) forceFlushOldest(t sim.Time) (sim.Time, error) {
	end, err := b.flushOldest(t)
	if err != nil {
		return end, err
	}
	floor := b.minOpen * int64(b.cfg.PageSize)
	if b.wp < floor {
		b.wp = floor
	}
	// Retire DLT entries that start below the new WP; a region straddling
	// the boundary pushes the WP past its end.
	for {
		e, ok := b.dlt.Oldest()
		if !ok || e.Addr >= b.wp {
			break
		}
		b.dlt.Consume()
		if end := e.Addr + e.Size; end > b.wp {
			b.wp = end
		}
	}
	if b.wp > b.frontier {
		b.frontier = b.wp
	}
	return end, nil
}

// FlushAll persists every open page (a flush command or shutdown) and waits
// for full durability: the returned time is when the last program completes.
// The next placement starts on a fresh page boundary.
func (b *Buffer) FlushAll(t sim.Time) (sim.Time, error) {
	end, err := b.retirePages(t, true)
	if err != nil {
		return end, err
	}
	base := b.minOpen * int64(b.cfg.PageSize)
	b.wp = base
	b.frontier = base
	b.dlt.Reset()
	if b.lastFlushEnd > end {
		end = b.lastFlushEnd
	}
	return end, nil
}

// Utilization reports the fraction of flushed NAND bytes that carried value
// payload — the space-efficiency the packing policies compete on.
func (b *Buffer) Utilization() float64 {
	flushed := b.stats.Flushes.Value() * int64(b.cfg.PageSize)
	if flushed == 0 {
		return 0
	}
	u := float64(b.stats.PayloadBytes.Value()) / float64(flushed)
	if u > 1 {
		u = 1 // payload still buffered can exceed what was flushed
	}
	return u
}
