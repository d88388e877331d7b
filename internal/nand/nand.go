// Package nand models the NAND flash array of the Cosmos+ OpenSSD platform:
// 1 TB across 4 channels × 8 ways, 16 KiB pages, erase-before-program blocks,
// per-way busy timelines for parallelism, and operation latencies that
// dominate write response times as in the paper's §2.4.
//
// Host memory follows the live bytes, not the programmed pages: a page's
// payload exists from Program until the FTL Discards the page (or its block
// is erased), and it holds only what a read can see as non-zero. BandSlim
// aligns every DMA value to a 4 KiB host page (§3.3), so a flushed vLog page
// is mostly zero sector tails; Program keeps each 4 KiB sector's bytes up to
// such a tail, and ProgramSectors takes where the page buffer's writes into
// each sector end, so the tail is not searched for from the sector's end. A
// payload of more than half a page takes a full-page buffer; a smaller one a
// chunk carved from a sim.Slab the array keeps, so that once the slab has
// grown to the live set a Program allocates nothing. Released buffers and
// chunks are poisoned and reused. Move hands a payload from one page to
// another, which is how the FTL migrates a live page: the payload is neither
// copied nor released. Read and View hand out a view of the payload, not a
// copy, when the kept bytes are one run from the start of the page; ReadAt
// and ViewAt copy any byte range of any page. See Array.Program for what is
// kept and Array.Read for how long a view lives.
//
// Page records follow the written blocks: a block's table of them — each
// page's state and payload — is built at its first Program, so a block never
// programmed costs 32 bytes, its erase count and an empty table, however many
// pages it has, and a page's payload is found by its address alone.
package nand

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"bandslim/internal/fault"
	"bandslim/internal/metrics"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Geometry describes a flash array. All counts are per the next level up:
// WaysPerChannel ways per channel, BlocksPerWay blocks per way, and so on.
type Geometry struct {
	Channels       int
	WaysPerChannel int
	BlocksPerWay   int
	PagesPerBlock  int
	PageSize       int
}

// DefaultGeometry is a scaled Cosmos+ layout: 4 channels × 8 ways with 16 KiB
// pages. BlocksPerWay is kept modest, so that runs fill a fair share of the
// device, while preserving the real page size and parallelism; host memory
// does not bound it (payloads, page states and the FTL's tables exist only
// for what a run writes). Capacity: 4*8*256*256*16 KiB = 32 GiB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       4,
		WaysPerChannel: 8,
		BlocksPerWay:   256,
		PagesPerBlock:  256,
		PageSize:       16 * 1024,
	}
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.WaysPerChannel <= 0 || g.BlocksPerWay <= 0 ||
		g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// Ways reports the total number of ways (the unit of parallelism).
func (g Geometry) Ways() int { return g.Channels * g.WaysPerChannel }

// Blocks reports the total number of blocks in the array.
func (g Geometry) Blocks() int { return g.Ways() * g.BlocksPerWay }

// Pages reports the total number of physical pages.
func (g Geometry) Pages() int { return g.Blocks() * g.PagesPerBlock }

// CapacityBytes reports the raw capacity.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Pages()) * int64(g.PageSize)
}

// Latency holds flash operation timings. Defaults are MLC-class (DESIGN.md):
// write responses become ≥10× transfer responses, matching §2.4.
type Latency struct {
	Read  sim.Duration // tR: page read to cache register
	Prog  sim.Duration // tPROG: program page from cache register
	Erase sim.Duration // tBERS: block erase
}

// DefaultLatency returns the calibrated MLC-class timings.
func DefaultLatency() Latency {
	return Latency{
		Read:  100 * sim.Microsecond,
		Prog:  400 * sim.Microsecond,
		Erase: 3 * sim.Millisecond,
	}
}

// PageAddr identifies a physical page.
type PageAddr struct {
	Channel int
	Way     int // way within the channel
	Block   int // block within the way
	Page    int // page within the block
}

func (a PageAddr) String() string {
	return fmt.Sprintf("ch%d/w%d/b%d/p%d", a.Channel, a.Way, a.Block, a.Page)
}

// BlockAddr identifies a physical block.
type BlockAddr struct {
	Channel int
	Way     int
	Block   int
}

func (a BlockAddr) String() string {
	return fmt.Sprintf("ch%d/w%d/b%d", a.Channel, a.Way, a.Block)
}

// Stats tallies flash operations.
type Stats struct {
	PageReads   metrics.Counter
	PageWrites  metrics.Counter
	BlockErases metrics.Counter
	// Injected faults, by operation. A faulted attempt still counts in the
	// operation counter above (it occupied the op slot).
	ProgramFaults metrics.Counter
	ReadFaults    metrics.Counter
	EraseFaults   metrics.Counter
}

// Array is the flash device: geometry, latencies, per-way timelines, and the
// state of every block, including the payloads of its pages that still hold
// live data, each in the page's record.
type Array struct {
	geo    Geometry
	lat    Latency
	clock  *sim.Clock
	ways   []sim.BusyLine // index: channel*WaysPerChannel + way
	blocks []block        // index: way index*BlocksPerWay + block
	// maxWear is the highest erase count of any block.
	maxWear int32
	// free holds released full-page buffers for the next Program of more
	// than half a page, at most one erase block's worth so a burst of
	// discards cannot pin memory; stored is the bytes every held payload
	// keeps, summed; zero is the shared image every erased page reads as.
	free   [][]byte
	stored int64
	zero   []byte
	// slab is what every payload of at most half a page is carved from, in
	// blocks of slabPages pages, unbounded.
	slab sim.Slab
	// lens is the scratch Program works out what each sector of a page keeps
	// in (a page spans len(lens) sectors, the last possibly short), hdr the
	// size of a payload's sector table.
	lens  []int
	hdr   int
	stats Stats
	tr    trace.Tracer
	// inj is the plan-driven injector consulted before every operation
	// commits (nil: no injection, a single pointer check per op).
	inj *fault.Injector
}

// block is one erase block's state.
type block struct {
	// pages holds each page's record; nil until the block's first Program,
	// and every page of a nil table is erased.
	pages []pageRec
	wear  int32 // erase count
}

// pageRec is one page's record, and the slice alone tells its state: nil
// while erased, the payload (see store) while programmed, and non-nil with
// capacity 0 once discarded. A payload always has room for its sector table
// unless it is a whole page, so its capacity is never 0.
type pageRec []byte

type pageState byte

const (
	pageErased pageState = iota
	pageProgrammed
	// pageDiscarded still needs an erase before it can be programmed again,
	// but its payload is gone: the FTL declared the contents dead.
	pageDiscarded
)

// poison overwrites a released payload so a view held past its lifetime
// decodes as corrupt, never as the old contents — until its buffer or chunk
// is reused, when the view shows the new page's bytes instead. Any value
// above the largest legal SSTable key length (16) works.
const poison = 0xDB

// slabPages is the size of the blocks the payload slab carves, in pages:
// 64 KiB at the default 16 KiB page. A chunk is at most a little over half a
// page, so every one fits a block except on pages of a few bytes, where a
// chunk that does not gets an exact-size allocation instead.
const slabPages = 4

// sectorSize is the unit Program trims: the host memory page BandSlim aligns
// DMA values to, so the zero padding of a flushed vLog page sits in sector
// tails. minGap is the shortest zero tail worth cutting; it is longer than
// any run of zeros an SSTable page can hold (an entry is at most 27 bytes and
// starts with a non-zero key length), so every SSTable page stays one run.
const (
	sectorSize = pcie.MemoryPageSize
	minGap     = 64
)

// Common operation errors.
var (
	ErrNotErased = fmt.Errorf("nand: program to non-erased page")
	ErrBadAddr   = fmt.Errorf("nand: address out of range")
	ErrIOFault   = fmt.Errorf("nand: injected program fault")
	ErrDiscarded = fmt.Errorf("nand: read of discarded page")
	// ErrSparsePage is Read's and View's answer for a page whose kept bytes
	// are not one run from its start: there is no view to lend, and ReadAt or
	// ViewAt copy the bytes out instead.
	ErrSparsePage = fmt.Errorf("nand: page is stored with gaps; read it by range")
)

// sparsePageError is ErrSparsePage for one page. It formats the address only
// in Error, so a caller that tests for ErrSparsePage and reads the page by
// range instead pays nothing for the message.
type sparsePageError struct{ page PageAddr }

func (e *sparsePageError) Error() string { return ErrSparsePage.Error() + ": " + e.page.String() }

func (e *sparsePageError) Unwrap() error { return ErrSparsePage }

// New returns a flash array with the given geometry and latencies, sharing
// the simulation clock.
func New(geo Geometry, lat Latency, clock *sim.Clock) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	sectors := (geo.PageSize + sectorSize - 1) / sectorSize
	return &Array{
		geo:    geo,
		lat:    lat,
		clock:  clock,
		ways:   make([]sim.BusyLine, geo.Ways()),
		blocks: make([]block, geo.Blocks()),
		zero:   make([]byte, geo.PageSize),
		slab:   sim.NewSlab(slabPages*geo.PageSize, math.MaxInt),
		lens:   make([]int, sectors),
		hdr:    2 * sectors,
	}, nil
}

// Geometry reports the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Stats exposes the operation tallies.
func (a *Array) Stats() *Stats { return &a.stats }

// SetInjector installs a plan-driven fault injector (nil disables). The
// array consults it before committing each program, read, and erase.
func (a *Array) SetInjector(inj *fault.Injector) { a.inj = inj }

// faultErr maps an injected effect onto the error the operation surfaces:
// media errors keep the NAND I/O-fault identity (the FTL retires the block),
// transients and power cuts carry the fault package sentinels up the stack.
func faultErr(eff fault.Effect, what fmt.Stringer) error {
	switch eff {
	case fault.EffectPowerCut:
		return fmt.Errorf("nand: %v: %w", what, fault.ErrPowerCut)
	case fault.EffectTransient:
		return fmt.Errorf("nand: %v: %w", what, fault.ErrTransient)
	default:
		return fmt.Errorf("%w: %v", ErrIOFault, what)
	}
}

// SetTracer enables program/read/erase span tracing; nil turns it back off.
func (a *Array) SetTracer(tr trace.Tracer) { a.tr = tr }

func (a *Array) wayIndex(ch, way int) int { return ch*a.geo.WaysPerChannel + way }

// locate returns page p's block.
func (a *Array) locate(p PageAddr) (*block, error) {
	if p.Channel < 0 || p.Channel >= a.geo.Channels ||
		p.Way < 0 || p.Way >= a.geo.WaysPerChannel ||
		p.Block < 0 || p.Block >= a.geo.BlocksPerWay ||
		p.Page < 0 || p.Page >= a.geo.PagesPerBlock {
		return nil, fmt.Errorf("%w: %v", ErrBadAddr, p)
	}
	return &a.blocks[a.wayIndex(p.Channel, p.Way)*a.geo.BlocksPerWay+p.Block], nil
}

// state reports the state of page pg of the block.
func (b *block) state(pg int) pageState {
	if b.pages == nil {
		return pageErased
	}
	return b.pages[pg].state()
}

func (r pageRec) state() pageState {
	switch {
	case r == nil:
		return pageErased
	case cap(r) == 0:
		return pageDiscarded
	}
	return pageProgrammed
}

func (a *Array) blockIndex(b BlockAddr) (int, error) {
	if b.Channel < 0 || b.Channel >= a.geo.Channels ||
		b.Way < 0 || b.Way >= a.geo.WaysPerChannel ||
		b.Block < 0 || b.Block >= a.geo.BlocksPerWay {
		return 0, fmt.Errorf("%w: %v", ErrBadAddr, b)
	}
	return a.wayIndex(b.Channel, b.Way)*a.geo.BlocksPerWay + b.Block, nil
}

// store copies a page's data into a new payload. A page that keeps all of
// every sector is its payload, PageSize bytes. Any other page's payload is
// the kept bytes of its sectors, one after the other, followed in the
// slice's capacity by a table of how many bytes each sector keeps (a
// little-endian uint16 per sector, hdr bytes; see table). When the table
// would not fit in a page beside them, data is taken as zero-padded to the
// page first, so that the page is kept whole or a whole sector's zero tail
// makes the room.
func (a *Array) store(data []byte, ends []uint16) []byte {
	total := a.keep(data, len(data), ends)
	if total > a.geo.PageSize-a.hdr {
		total = a.keep(data, a.geo.PageSize, ends)
	}
	buf := a.takePayload(total)
	a.stored += int64(total)
	if total == a.geo.PageSize {
		clear(buf[copy(buf, data):])
		return buf
	}
	tab, pos := a.table(buf), 0
	for s, k := range a.lens {
		binary.LittleEndian.PutUint16(tab[2*s:], uint16(k))
		c := copy(buf[pos:pos+k], data[min(s*sectorSize, len(data)):])
		clear(buf[pos+c : pos+k])
		pos += k
	}
	return buf
}

// keep sets a.lens to what each sector keeps of the page's first n bytes —
// data, zero-padded to n — and returns their sum: a sector keeps its part of
// them, less a zero tail of at least minGap bytes if the part is the whole
// sector. The tail is found scanning back from the sector's end or, given
// ends, from where its written bytes end, past which it holds only zeros.
func (a *Array) keep(data []byte, n int, ends []uint16) int {
	total := 0
	for s := range a.lens {
		lo := s * sectorSize
		k := max(min(n-lo, sectorSize), 0)
		if k == sectorSize {
			hi := min(lo+k, len(data))
			if ends != nil {
				hi = min(hi, lo+int(ends[s]))
			}
			if nz := trimZeros(data[min(lo, len(data)):hi]); k-nz >= minGap {
				k = nz
			}
		}
		a.lens[s] = k
		total += k
	}
	return total
}

// trimZeros returns the length of b without its zero tail, scanning a word
// at a time.
func trimZeros(b []byte) int {
	n := len(b)
	for ; n >= 8; n -= 8 {
		if w := binary.LittleEndian.Uint64(b[n-8:]); w != 0 {
			return n - bits.LeadingZeros64(w)/8
		}
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return n
}

// whole reports whether payload buf keeps every byte of its page.
func (a *Array) whole(buf []byte) bool { return len(buf) == a.geo.PageSize }

// table returns the sector table of a payload that is not whole: the hdr
// bytes past its end.
func (a *Array) table(buf []byte) []byte { return buf[len(buf) : len(buf)+a.hdr] }

// sectorLen reports how many bytes sector s of a payload that is not whole
// keeps.
func (a *Array) sectorLen(buf []byte, s int) int {
	return int(binary.LittleEndian.Uint16(a.table(buf)[2*s:]))
}

// takePayload returns a payload buffer of n kept bytes (and room for the
// sector table unless n is a whole page), contents unspecified. Over half a
// page it is a full-page buffer, from the free list when one waits there; at
// most half a page, a slab chunk; when the table does not fit in a page, an
// exact-size allocation.
func (a *Array) takePayload(n int) []byte {
	size := n + a.hdr
	switch {
	case n == a.geo.PageSize:
		size = n
	case size > a.geo.PageSize:
		return make([]byte, n, size)
	case a.small(n):
		buf, _ := a.slab.Get(n, size)
		return buf
	}
	if k := len(a.free); k > 0 {
		buf := a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
		return buf[:n]
	}
	return make([]byte, n, a.geo.PageSize)
}

// small reports whether a payload of n kept bytes lives in the slab: at most
// half a page, with its sector table.
func (a *Array) small(n int) bool { return 2*n <= a.geo.PageSize && n+a.hdr <= a.geo.PageSize }

// releasePayload ends the life of a programmed page's payload: poisoned, so
// that a stale view cannot be mistaken for data, then a slab chunk goes back
// to its class and a full-page buffer to the free list while that has room.
func (a *Array) releasePayload(buf []byte) {
	a.stored -= int64(len(buf))
	if len(buf) > 0 {
		buf[0] = poison
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
	}
	switch {
	case a.small(len(buf)):
		a.slab.Put(buf)
	case cap(buf) == a.geo.PageSize && len(a.free) < a.geo.PagesPerBlock:
		a.free = append(a.free, buf[:0])
	}
}

// Program writes data (at most one page; the rest of the page is zeros) to an
// erased page. The operation is scheduled on the page's way starting no
// earlier than t and the completion time is returned. Programming a
// non-erased page is an error (flash cannot overwrite in place).
//
// The array keeps a copy of the bytes a read can see as non-zero: the first
// len(data) bytes of the page, less every zero run of minGap bytes or more
// that ends a whole 4 KiB sector (store has the details). The flash is
// charged for a whole page all the same.
func (a *Array) Program(t sim.Time, p PageAddr, data []byte) (sim.Time, error) {
	return a.ProgramSectors(t, p, data, nil)
}

// ProgramSectors is Program for a caller that knows where the bytes it put in
// each sector of data end: ends[s] is the length of sector s's written part,
// and every byte of the sector from there on must be zero. The page is kept,
// charged and reported exactly as Program would keep it; the zero tails are
// only looked for from the ends back, not from the sectors' ends. nil ends is
// Program; otherwise there is one per sector of the page.
func (a *Array) ProgramSectors(t sim.Time, p PageAddr, data []byte, ends []uint16) (sim.Time, error) {
	blk, err := a.locate(p)
	switch {
	case err != nil:
		return t, err
	case len(data) > a.geo.PageSize:
		return t, fmt.Errorf("nand: program of %d bytes exceeds page size %d", len(data), a.geo.PageSize)
	case ends != nil && len(ends) != len(a.lens):
		return t, fmt.Errorf("nand: %d sector ends for a page of %d sectors", len(ends), len(a.lens))
	}
	if err := a.claim(t, p, blk); err != nil {
		return t, err
	}
	blk.pages[p.Page] = a.store(data, ends)
	return a.programmed(t, p), nil
}

// Move programs the erased page dst with the payload of the programmed page
// src, which passes to dst without a copy: src is left discarded, and every
// view of the payload keeps reading the same bytes. It is the program half of
// a page migration, charged, faulted, counted and traced as a Program of dst;
// the read half is the caller's ReadAt of src, for which an empty range
// suffices. A program that fails leaves the payload with src.
func (a *Array) Move(t sim.Time, src, dst PageAddr) (sim.Time, error) {
	from, err := a.locate(src)
	if err != nil {
		return t, err
	}
	if from.state(src.Page) != pageProgrammed {
		return t, fmt.Errorf("nand: move from %v, which holds no payload", src)
	}
	blk, err := a.locate(dst)
	if err != nil {
		return t, err
	}
	if err := a.claim(t, dst, blk); err != nil {
		return t, err
	}
	blk.pages[dst.Page], from.pages[src.Page] = from.pages[src.Page], pageRec{}
	return a.programmed(t, dst), nil
}

// claim readies page p of blk for a program at t: the page must be erased,
// and the program's fault site may fail the attempt, which still occupies the
// op slot. On success the block has its table of page records.
func (a *Array) claim(t sim.Time, p PageAddr, blk *block) error {
	if blk.state(p.Page) != pageErased {
		return fmt.Errorf("%w: %v", ErrNotErased, p)
	}
	if eff, ok := a.inj.Check(fault.SiteNandProgram, t); ok {
		a.stats.PageWrites.Inc() // the attempt still occupies the op slot
		a.stats.ProgramFaults.Inc()
		return faultErr(eff, p)
	}
	if blk.pages == nil { // the block's first Program
		blk.pages = make([]pageRec, a.geo.PagesPerBlock)
	}
	return nil
}

// programmed performs the flash operation of a program of page p, whose
// record claim readied and the caller filled: the counter, the way's time
// and the trace event. It returns the completion time.
func (a *Array) programmed(t sim.Time, p PageAddr) sim.Time {
	a.stats.PageWrites.Inc()
	way := a.wayIndex(p.Channel, p.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Prog)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvProgram, Start: start, End: end, Bytes: int64(a.geo.PageSize), Arg: int64(way)})
	}
	return end
}

// Read returns the contents of a programmed page and the completion time of
// the read operation. Reading an erased page returns a zero-filled page, as
// real flash does.
//
// The returned slice is a read-only view of the page's kept bytes, which
// for such a page are its first len(view) bytes: everything past the end of
// the view reads as zero. An erased page's view is a shared, PageSize-long
// zero page. The view belongs to the payload, not to the page: a Move takes
// it along, and it stays valid until the page that then holds the payload is
// discarded or its block erased, when its memory is poisoned and then reused
// for another page's payload. A caller that keeps the bytes longer, or across
// a call that can discard the payload's page, copies them. A page whose kept
// bytes have gaps has no view and is ErrSparsePage (read it with ReadAt).
// Reading a discarded page is ErrDiscarded: its contents no longer exist.
// Neither refusal is a flash operation.
func (a *Array) Read(t sim.Time, p PageAddr) ([]byte, sim.Time, error) {
	data, err := a.View(p)
	if err != nil {
		return nil, t, err
	}
	end, err := a.read(t, p)
	if err != nil {
		return nil, t, err
	}
	return data, end, nil
}

// ReadAt copies bytes [off, off+len(dst)) of the page into dst, zeros
// wherever nothing is kept, and returns the completion time of the read
// operation, which it charges, faults and traces exactly as Read does. It
// reads any page Read can and sparse ones too.
func (a *Array) ReadAt(t sim.Time, p PageAddr, dst []byte, off int) (sim.Time, error) {
	if err := a.ViewAt(p, dst, off); err != nil {
		return t, err
	}
	return a.read(t, p)
}

// read performs the flash operation of reading page p: the fault site, the
// counters, the way's time and the trace event.
func (a *Array) read(t sim.Time, p PageAddr) (sim.Time, error) {
	if eff, ok := a.inj.Check(fault.SiteNandRead, t); ok {
		a.stats.PageReads.Inc() // the attempt still occupies the op slot
		a.stats.ReadFaults.Inc()
		return t, faultErr(eff, p)
	}
	a.stats.PageReads.Inc()
	way := a.wayIndex(p.Channel, p.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Read)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvRead, Start: start, End: end, Bytes: int64(a.geo.PageSize), Arg: int64(way)})
	}
	return end, nil
}

// View returns what a Read of the page would, without performing the flash
// operation: no counter ticks, the way is not occupied, no trace event is
// emitted and no fault is injected. It is how device DRAM that already holds
// a page's contents is modelled without a host copy of them. The view lives
// exactly as long as a Read's.
func (a *Array) View(p PageAddr) ([]byte, error) {
	buf, err := a.payload(p)
	switch {
	case err != nil:
		return nil, err
	case buf == nil:
		return a.zero, nil
	case !a.oneRun(buf):
		return nil, &sparsePageError{p}
	}
	return buf, nil
}

// ViewAt copies what a ReadAt of the page would into dst, without the flash
// operation (see View).
func (a *Array) ViewAt(p PageAddr, dst []byte, off int) error {
	buf, err := a.payload(p)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > a.geo.PageSize {
		return fmt.Errorf("nand: bytes [%d,%d) outside the %d-byte page %v", off, off+len(dst), a.geo.PageSize, p)
	}
	switch {
	case buf == nil:
		clear(dst)
		return nil
	case a.whole(buf):
		copy(dst, buf[off:])
		return nil
	}
	pos := 0 // where sector s's kept bytes start in buf
	for s := 0; len(dst) > 0; s++ {
		n := a.sectorLen(buf, s)
		if in := off - s*sectorSize; in < sectorSize {
			m := min(len(dst), sectorSize-in)
			k := 0
			if in < n {
				k = copy(dst[:m], buf[pos+in:pos+n])
			}
			clear(dst[k:m])
			dst, off = dst[m:], off+m
		}
		pos += n
	}
	return nil
}

// payload returns page p's payload (never nil for a programmed page): nil for
// an erased page, ErrDiscarded for a discarded one.
func (a *Array) payload(p PageAddr) ([]byte, error) {
	blk, err := a.locate(p)
	if err != nil {
		return nil, err
	}
	switch blk.state(p.Page) {
	case pageDiscarded:
		return nil, fmt.Errorf("%w: %v", ErrDiscarded, p)
	case pageErased:
		return nil, nil
	}
	return blk.pages[p.Page], nil
}

// Extent reports where page p's kept bytes end: everything from there on
// reads as zero (an erased page's extent is 0). Programming a page's first
// Extent bytes stores exactly the payload it has: a copy of the page that
// reads, and keeps, what a Move would hand over.
func (a *Array) Extent(p PageAddr) (int, error) {
	buf, err := a.payload(p)
	if err != nil || buf == nil || a.whole(buf) {
		return len(buf), err
	}
	for s := len(a.lens) - 1; s >= 0; s-- {
		if n := a.sectorLen(buf, s); n > 0 {
			return s*sectorSize + n, nil
		}
	}
	return 0, nil
}

// oneRun reports whether payload buf keeps one run from the start of the
// page, which is then buf itself: no sector keeps anything after a sector
// that is not kept whole.
func (a *Array) oneRun(buf []byte) bool {
	if a.whole(buf) {
		return true
	}
	whole := true
	for s := range a.lens {
		n := a.sectorLen(buf, s)
		if n > 0 && !whole {
			return false
		}
		whole = n == sectorSize
	}
	return true
}

// ZeroPage returns the read-only image of an erased page — what Read returns
// for one — for layers above that answer a read without touching the flash.
func (a *Array) ZeroPage() []byte { return a.zero }

// Payloads reports how many pages currently hold a payload, how many
// released full-page buffers wait on the free list, and how many bytes the
// held payloads keep. The array's host memory follows the kept bytes — a
// payload over half a page sits in a full-page buffer, a smaller one in a
// slab chunk of its size plus a few bytes of sector table, rounded up to its
// class — plus (spare + 1) pages and the slab's free chunks and uncarved
// tail, whatever has been programmed and died since. It counts the held
// pages by walking the written blocks' page records.
func (a *Array) Payloads() (held, spare int, stored int64) {
	for _, b := range a.blocks {
		for _, pg := range b.pages {
			if pg.state() == pageProgrammed {
				held++
			}
		}
	}
	return held, len(a.free), a.stored
}

// Discard declares a programmed page's contents dead: the payload is
// released at once instead of at block erase, while the page itself stays
// unprogrammable until then. The FTL calls it wherever a physical page loses
// its logical mapping. Discarding an erased or already discarded page is a
// no-op.
func (a *Array) Discard(p PageAddr) error {
	blk, err := a.locate(p)
	if err != nil {
		return err
	}
	if blk.state(p.Page) == pageProgrammed {
		a.releasePayload(blk.pages[p.Page])
		blk.pages[p.Page] = pageRec{}
	}
	return nil
}

// Erase resets every page of a block to the erased state, releasing whatever
// payloads it still held, and returns the completion time.
func (a *Array) Erase(t sim.Time, b BlockAddr) (sim.Time, error) {
	bi, err := a.blockIndex(b)
	if err != nil {
		return t, err
	}
	if eff, ok := a.inj.Check(fault.SiteNandErase, t); ok {
		a.stats.BlockErases.Inc() // the attempt still occupies the op slot
		a.stats.EraseFaults.Inc()
		return t, faultErr(eff, b)
	}
	blk := &a.blocks[bi]
	for _, pg := range blk.pages {
		if pg.state() == pageProgrammed {
			a.releasePayload(pg)
		}
	}
	clear(blk.pages)
	blk.wear++
	a.maxWear = max(a.maxWear, blk.wear)
	a.stats.BlockErases.Inc()
	way := a.wayIndex(b.Channel, b.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Erase)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvErase, Start: start, End: end, Arg: int64(way)})
	}
	return end, nil
}

// EraseCount reports how many times a block has been erased (wear).
func (a *Array) EraseCount(b BlockAddr) (int, error) {
	bi, err := a.blockIndex(b)
	if err != nil {
		return 0, err
	}
	return int(a.blocks[bi].wear), nil
}

// MaxWear reports the highest erase count across all blocks.
func (a *Array) MaxWear() int { return int(a.maxWear) }
