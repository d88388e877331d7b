// Package nand models the NAND flash array of the Cosmos+ OpenSSD platform:
// 1 TB across 4 channels × 8 ways, 16 KiB pages, erase-before-program blocks,
// per-way busy timelines for parallelism, and operation latencies that
// dominate write response times as in the paper's §2.4.
//
// Host memory follows the live data, not the programmed pages: a page's
// payload is one PageSize buffer that exists from Program until the FTL
// Discards the page (or its block is erased), when it returns to a small
// array-owned free list. Read hands out a view of that buffer, not a copy;
// see Array.Read for how long the view lives.
package nand

import (
	"fmt"

	"bandslim/internal/fault"
	"bandslim/internal/metrics"
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
// pages. BlocksPerWay is kept modest (only pages holding live data have a
// payload buffer, but state and mapping tables are dense) while preserving
// the real page size and parallelism. Capacity: 4*8*256*256*16 KiB = 32 GiB.
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

// Page reports the address of page p within the block.
func (a BlockAddr) Page(p int) PageAddr {
	return PageAddr{Channel: a.Channel, Way: a.Way, Block: a.Block, Page: p}
}

// Stats tallies flash operations and bytes.
type Stats struct {
	PageReads    metrics.Counter
	PageWrites   metrics.Counter
	BlockErases  metrics.Counter
	BytesWritten metrics.Counter
	BytesRead    metrics.Counter
	// Injected faults, by operation. A faulted attempt still counts in the
	// operation counter above (it occupied the op slot).
	ProgramFaults metrics.Counter
	ReadFaults    metrics.Counter
	EraseFaults   metrics.Counter
}

// Array is the flash device: geometry, latencies, per-way timelines, dense
// page state, and the payloads of the pages that still hold live data.
type Array struct {
	geo   Geometry
	lat   Latency
	clock *sim.Clock
	ways  []sim.BusyLine // index: channel*WaysPerChannel + way
	state []pageState    // dense, one per physical page
	wear  []int32        // erase count per block
	// data maps a programmed page's index to its PageSize payload. free holds
	// released payloads for the next Program, at most one erase block's worth
	// so a burst of discards cannot pin memory; zero is the shared image every
	// erased page reads as.
	data  map[int][]byte
	free  [][]byte
	zero  []byte
	stats Stats
	tr    trace.Tracer
	// faultEvery injects a program failure every N-th program when > 0
	// (test hook for error-path coverage).
	faultEvery int64
	// inj is the plan-driven injector consulted before every operation
	// commits (nil: no injection, a single pointer check per op).
	inj *fault.Injector
}

type pageState byte

const (
	pageErased pageState = iota
	pageProgrammed
	// pageDiscarded still needs an erase before it can be programmed again,
	// but its payload is gone: the FTL declared the contents dead.
	pageDiscarded
)

// poison overwrites a released payload so a view held past its lifetime
// decodes as corrupt, never as the old contents. Any value above the largest
// legal SSTable key length (16) works.
const poison = 0xDB

// Common operation errors.
var (
	ErrNotErased = fmt.Errorf("nand: program to non-erased page")
	ErrBadAddr   = fmt.Errorf("nand: address out of range")
	ErrIOFault   = fmt.Errorf("nand: injected program fault")
	ErrDiscarded = fmt.Errorf("nand: read of discarded page")
)

// New returns a flash array with the given geometry and latencies, sharing
// the simulation clock.
func New(geo Geometry, lat Latency, clock *sim.Clock) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:   geo,
		lat:   lat,
		clock: clock,
		ways:  make([]sim.BusyLine, geo.Ways()),
		state: make([]pageState, geo.Pages()),
		wear:  make([]int32, geo.Blocks()),
		data:  make(map[int][]byte),
		zero:  make([]byte, geo.PageSize),
	}, nil
}

// Geometry reports the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Latency reports the array's timing parameters.
func (a *Array) Latency() Latency { return a.lat }

// Stats exposes the operation tallies.
func (a *Array) Stats() *Stats { return &a.stats }

// SetFaultEvery makes every n-th program operation fail (0 disables).
func (a *Array) SetFaultEvery(n int64) { a.faultEvery = n }

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

func (a *Array) pageIndex(p PageAddr) (int, error) {
	if p.Channel < 0 || p.Channel >= a.geo.Channels ||
		p.Way < 0 || p.Way >= a.geo.WaysPerChannel ||
		p.Block < 0 || p.Block >= a.geo.BlocksPerWay ||
		p.Page < 0 || p.Page >= a.geo.PagesPerBlock {
		return 0, fmt.Errorf("%w: %v", ErrBadAddr, p)
	}
	return ((a.wayIndex(p.Channel, p.Way)*a.geo.BlocksPerWay)+p.Block)*a.geo.PagesPerBlock + p.Page, nil
}

func (a *Array) blockIndex(b BlockAddr) (int, error) {
	if b.Channel < 0 || b.Channel >= a.geo.Channels ||
		b.Way < 0 || b.Way >= a.geo.WaysPerChannel ||
		b.Block < 0 || b.Block >= a.geo.BlocksPerWay {
		return 0, fmt.Errorf("%w: %v", ErrBadAddr, b)
	}
	return a.wayIndex(b.Channel, b.Way)*a.geo.BlocksPerWay + b.Block, nil
}

// takePayload returns a PageSize buffer with unspecified contents.
func (a *Array) takePayload() []byte {
	if n := len(a.free); n > 0 {
		buf := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return buf
	}
	return make([]byte, a.geo.PageSize)
}

// releasePayload ends the life of programmed page idx's payload: poisoned, so
// that a stale view cannot be mistaken for data, and kept for reuse while the
// free list has room.
func (a *Array) releasePayload(idx int) {
	buf := a.data[idx]
	delete(a.data, idx)
	buf[0] = poison
	for n := 1; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
	if len(a.free) < a.geo.PagesPerBlock {
		a.free = append(a.free, buf)
	}
}

// Program writes data (at most one page, copied and zero-padded to a full
// page) to an erased page. The operation is scheduled on the page's way
// starting no earlier than t and the completion time is returned.
// Programming a non-erased page is an error (flash cannot overwrite in
// place).
func (a *Array) Program(t sim.Time, p PageAddr, data []byte) (sim.Time, error) {
	idx, err := a.pageIndex(p)
	if err != nil {
		return t, err
	}
	if len(data) > a.geo.PageSize {
		return t, fmt.Errorf("nand: program of %d bytes exceeds page size %d", len(data), a.geo.PageSize)
	}
	if a.state[idx] != pageErased {
		return t, fmt.Errorf("%w: %v", ErrNotErased, p)
	}
	if a.faultEvery > 0 && (a.stats.PageWrites.Value()+1)%a.faultEvery == 0 {
		a.stats.PageWrites.Inc() // the attempt still occupies the op slot
		return t, fmt.Errorf("%w: %v", ErrIOFault, p)
	}
	if eff, ok := a.inj.Check(fault.SiteNandProgram, t); ok {
		a.stats.PageWrites.Inc() // the attempt still occupies the op slot
		a.stats.ProgramFaults.Inc()
		return t, faultErr(eff, p)
	}
	stored := a.takePayload()
	clear(stored[copy(stored, data):])
	a.data[idx] = stored
	a.state[idx] = pageProgrammed
	a.stats.PageWrites.Inc()
	a.stats.BytesWritten.Add(int64(a.geo.PageSize)) // NAND programs whole pages
	way := a.wayIndex(p.Channel, p.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Prog)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvProgram, Start: start, End: end, Bytes: int64(a.geo.PageSize), Arg: int64(way)})
	}
	return end, nil
}

// Read returns the contents of a programmed page and the completion time of
// the read operation. Reading an erased page returns a zero-filled page, as
// real flash does.
//
// The returned slice is a read-only, PageSize-long view of the stored
// payload (of a shared zero page for an erased page), valid until the page
// is discarded or its block erased. A caller that keeps the bytes longer, or
// across any call that can discard or erase, copies them. Reading a
// discarded page is ErrDiscarded: its contents no longer exist.
func (a *Array) Read(t sim.Time, p PageAddr) ([]byte, sim.Time, error) {
	data, err := a.View(p)
	if err != nil {
		return nil, t, err
	}
	if eff, ok := a.inj.Check(fault.SiteNandRead, t); ok {
		a.stats.PageReads.Inc() // the attempt still occupies the op slot
		a.stats.ReadFaults.Inc()
		return nil, t, faultErr(eff, p)
	}
	a.stats.PageReads.Inc()
	a.stats.BytesRead.Add(int64(a.geo.PageSize))
	way := a.wayIndex(p.Channel, p.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Read)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvRead, Start: start, End: end, Bytes: int64(a.geo.PageSize), Arg: int64(way)})
	}
	return data, end, nil
}

// View returns the bytes a Read of the page would, without performing the
// flash operation: no counter ticks, the way is not occupied, no trace event
// is emitted and no fault is injected. It is how device DRAM that already
// holds a page's contents is modelled without a host copy of them. The view
// lives exactly as long as a Read's.
func (a *Array) View(p PageAddr) ([]byte, error) {
	idx, err := a.pageIndex(p)
	if err != nil {
		return nil, err
	}
	switch a.state[idx] {
	case pageDiscarded:
		return nil, fmt.Errorf("%w: %v", ErrDiscarded, p)
	case pageErased:
		return a.zero, nil
	}
	return a.data[idx], nil
}

// ZeroPage returns the read-only image of an erased page — what Read returns
// for one — for layers above that answer a read without touching the flash.
func (a *Array) ZeroPage() []byte { return a.zero }

// Payloads reports how many pages currently hold a payload and how many
// released buffers wait on the free list: the array's host memory is
// (held + spare + 1) pages, whatever has been programmed and died since.
func (a *Array) Payloads() (held, spare int) { return len(a.data), len(a.free) }

// Discard declares a programmed page's contents dead: the payload is
// released at once instead of at block erase, while the page itself stays
// unprogrammable until then. The FTL calls it wherever a physical page loses
// its logical mapping. Discarding an erased or already discarded page is a
// no-op.
func (a *Array) Discard(p PageAddr) error {
	idx, err := a.pageIndex(p)
	if err != nil {
		return err
	}
	if a.state[idx] == pageProgrammed {
		a.state[idx] = pageDiscarded
		a.releasePayload(idx)
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
	base := bi * a.geo.PagesPerBlock
	for i := 0; i < a.geo.PagesPerBlock; i++ {
		if a.state[base+i] == pageProgrammed {
			a.releasePayload(base + i)
		}
		a.state[base+i] = pageErased
	}
	a.wear[bi]++
	a.stats.BlockErases.Inc()
	way := a.wayIndex(b.Channel, b.Way)
	start, end := a.ways[way].Schedule(t, a.lat.Erase)
	if a.tr != nil {
		a.tr.Emit(trace.Event{Cat: trace.CatNAND, Name: trace.EvErase, Start: start, End: end, Arg: int64(way)})
	}
	return end, nil
}

// IsErased reports whether the page is in the erased state.
func (a *Array) IsErased(p PageAddr) (bool, error) {
	idx, err := a.pageIndex(p)
	if err != nil {
		return false, err
	}
	return a.state[idx] == pageErased, nil
}

// EraseCount reports how many times a block has been erased (wear).
func (a *Array) EraseCount(b BlockAddr) (int, error) {
	bi, err := a.blockIndex(b)
	if err != nil {
		return 0, err
	}
	return int(a.wear[bi]), nil
}

// MaxWear reports the highest erase count across all blocks.
func (a *Array) MaxWear() int {
	var m int32
	for _, w := range a.wear {
		if w > m {
			m = w
		}
	}
	return int(m)
}

// WayUtilization reports the busy fraction of each way at time now.
func (a *Array) WayUtilization(now sim.Time) []float64 {
	out := make([]float64, len(a.ways))
	for i := range a.ways {
		out[i] = a.ways[i].Utilization(now)
	}
	return out
}

// WayFreeAt reports when the given way becomes idle.
func (a *Array) WayFreeAt(ch, way int) sim.Time {
	return a.ways[a.wayIndex(ch, way)].FreeAt()
}
