// Package ftl implements the page-mapped Flash Translation Layer sitting
// between logical NAND pages (which the vLog and LSM-tree address) and the
// physical flash array. It provides out-of-place updates, allocation striping
// across channels and ways for parallelism, per-block valid-page accounting,
// and greedy garbage collection with valid-page migration.
//
// The vLog of the paper's KV-SSD is "a linear, logical NAND flash address
// space ... mapped to physical NAND pages by the FTL" (§2.1); this package is
// that mapping.
package ftl

import (
	"errors"
	"fmt"

	"bandslim/internal/fault"
	"bandslim/internal/metrics"
	"bandslim/internal/nand"
	"bandslim/internal/sim"
)

const unmapped = int32(-1)

// ErrNoSpace reports that the device has run out of room: every error that
// means "full" anywhere below the controller wraps it, and the controller
// completes the command with the NVMe capacity-exceeded status.
var ErrNoSpace = errors.New("ftl: no space left on device")

// Stats tallies FTL activity, including the GC write amplification the
// device-level WAF includes.
type Stats struct {
	GCWrites      metrics.Counter // page migrations performed by GC
	ProgramFaults metrics.Counter // programs retried due to injected faults
	BadBlocks     metrics.Counter // blocks retired after media failures
}

// Config tunes the FTL.
type Config struct {
	// OverprovisionPct is the fraction of physical blocks withheld from the
	// logical capacity, in percent. Must leave at least one spare block per
	// way for GC.
	OverprovisionPct int
	// GCFreeBlockLow triggers GC on a way when its free-block count drops
	// to this threshold.
	GCFreeBlockLow int
}

// DefaultConfig returns production-typical settings (7% OP).
func DefaultConfig() Config {
	return Config{OverprovisionPct: 7, GCFreeBlockLow: 2}
}

// FTL is the translation layer. It is not safe for concurrent use; the
// device controller serializes access, as firmware does.
type FTL struct {
	flash *nand.Array
	cfg   Config
	geo   nand.Geometry

	l2p        []int32 // logical page -> physical page index
	p2l        []int32 // physical page index -> logical page (or -1)
	validCount []int32 // per physical block: live pages
	freeBlocks [][]int // per way: stack of free block numbers
	bad        []bool  // per physical block: retired after a media failure
	active     []activeBlock
	nextWay    int    // round-robin write striping cursor
	inGC       bool   // guards against re-entrant emergency GC
	gcPage     []byte // the page GC migrates through
	stats      Stats
}

type activeBlock struct {
	block    int // block number within the way, -1 if none
	nextPage int
}

// New builds an FTL over the flash array. The logical capacity is the
// physical page count reduced by overprovisioning.
func New(flash *nand.Array, cfg Config) (*FTL, error) {
	geo := flash.Geometry()
	if cfg.OverprovisionPct < 1 || cfg.OverprovisionPct > 50 {
		return nil, fmt.Errorf("ftl: overprovision %d%% out of range [1,50]", cfg.OverprovisionPct)
	}
	if cfg.GCFreeBlockLow < 1 {
		return nil, fmt.Errorf("ftl: GCFreeBlockLow must be >= 1")
	}
	if geo.BlocksPerWay <= cfg.GCFreeBlockLow+1 {
		return nil, fmt.Errorf("ftl: geometry too small for GC reserve")
	}
	f := &FTL{
		flash:      flash,
		cfg:        cfg,
		geo:        geo,
		l2p:        make([]int32, 0),
		p2l:        make([]int32, geo.Pages()),
		validCount: make([]int32, geo.Blocks()),
		freeBlocks: make([][]int, geo.Ways()),
		bad:        make([]bool, geo.Blocks()),
		active:     make([]activeBlock, geo.Ways()),
		gcPage:     make([]byte, geo.PageSize),
	}
	logicalPages := geo.Pages() * (100 - cfg.OverprovisionPct) / 100
	f.l2p = make([]int32, logicalPages)
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	for i := range f.p2l {
		f.p2l[i] = unmapped
	}
	for w := 0; w < geo.Ways(); w++ {
		f.freeBlocks[w] = make([]int, 0, geo.BlocksPerWay)
		// Push in reverse so blocks are consumed in ascending order.
		for b := geo.BlocksPerWay - 1; b >= 0; b-- {
			f.freeBlocks[w] = append(f.freeBlocks[w], b)
		}
		f.active[w] = activeBlock{block: -1}
	}
	return f, nil
}

// LogicalPages reports the logical capacity in pages.
func (f *FTL) LogicalPages() int { return len(f.l2p) }

// PageSize reports the NAND page size.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Stats exposes the activity tallies.
func (f *FTL) Stats() *Stats { return &f.stats }

func (f *FTL) wayOf(physPage int) int {
	return physPage / (f.geo.BlocksPerWay * f.geo.PagesPerBlock)
}

func (f *FTL) addrOf(physPage int) nand.PageAddr {
	pagesPerWay := f.geo.BlocksPerWay * f.geo.PagesPerBlock
	way := physPage / pagesPerWay
	rem := physPage % pagesPerWay
	return nand.PageAddr{
		Channel: way / f.geo.WaysPerChannel,
		Way:     way % f.geo.WaysPerChannel,
		Block:   rem / f.geo.PagesPerBlock,
		Page:    rem % f.geo.PagesPerBlock,
	}
}

func (f *FTL) physIndex(way, block, page int) int {
	return (way*f.geo.BlocksPerWay+block)*f.geo.PagesPerBlock + page
}

func (f *FTL) blockIndexOf(physPage int) int { return physPage / f.geo.PagesPerBlock }

// allocPage returns the next physical page on the given way, opening a fresh
// block from the free pool when the active block fills. When the pool is
// empty it attempts an emergency GC round before giving up.
func (f *FTL) allocPage(t sim.Time, way int) (int, sim.Time, error) {
	ab := &f.active[way]
	if ab.block < 0 || ab.nextPage >= f.geo.PagesPerBlock {
		if len(f.freeBlocks[way]) == 0 && !f.inGC {
			reclaimed, err := f.gcOnce(t, way)
			if err != nil {
				return 0, t, err
			}
			if !reclaimed {
				return 0, t, fmt.Errorf("ftl: way %d out of free blocks and GC found no victim: %w", way, ErrNoSpace)
			}
		}
		if len(f.freeBlocks[way]) == 0 {
			return 0, t, fmt.Errorf("ftl: way %d out of free blocks: %w", way, ErrNoSpace)
		}
		// FIFO consumption rotates every free block through service, so
		// erases spread across the way instead of recycling one block.
		ab.block = f.freeBlocks[way][0]
		f.freeBlocks[way] = f.freeBlocks[way][1:]
		ab.nextPage = 0
	}
	p := f.physIndex(way, ab.block, ab.nextPage)
	ab.nextPage++
	return p, t, nil
}

// Write stores one logical page out-of-place and returns the program
// completion time. Data shorter than a page is zero-padded by the flash.
func (f *FTL) Write(t sim.Time, lpn int, data []byte) (sim.Time, error) {
	if lpn < 0 || lpn >= len(f.l2p) {
		return t, fmt.Errorf("ftl: logical page %d out of range [0,%d)", lpn, len(f.l2p))
	}
	end, phys, err := f.program(t, data)
	if err != nil {
		return t, err
	}
	if err := f.remap(lpn, phys); err != nil {
		return end, err
	}
	if err := f.maybeGC(t, f.wayOf(phys)); err != nil {
		return end, err
	}
	return end, nil
}

// program places a page on the way with the most erased capacity (ties
// broken by a rotating cursor, so balanced ways stripe round-robin) and
// programs it. Free-space-aware placement keeps any single way from filling
// with live data while others hold all the dead pages.
func (f *FTL) program(t sim.Time, data []byte) (sim.Time, int, error) {
	way, bestSlots := f.nextWay, -1
	for i := 0; i < f.geo.Ways(); i++ {
		w := (f.nextWay + i) % f.geo.Ways()
		if s := f.availableSlots(w); s > bestSlots {
			way, bestSlots = w, s
		}
	}
	f.nextWay = (way + 1) % f.geo.Ways()
	return f.programOnWay(t, way, data)
}

// maxProgramRetries bounds write redirection: a media failure retires the
// active block and redirects the write into a fresh one; after this many
// consecutive retirements the failure is reported as persistent.
const maxProgramRetries = 4

// programOnWay programs a page on a specific way. GC uses this to migrate a
// victim's live pages within the victim's own way, which guarantees each GC
// round frees at least the victim's dead-page count.
//
// A media failure retires the active block (grown bad block) and redirects
// the write into a freshly opened block. Power cuts and transient faults
// propagate untouched: neither indicts the block.
func (f *FTL) programOnWay(t sim.Time, way int, data []byte) (sim.Time, int, error) {
	for attempt := 0; ; attempt++ {
		phys, _, err := f.allocPage(t, way)
		if err != nil {
			return t, 0, err
		}
		end, err := f.flash.Program(t, f.addrOf(phys), data)
		if err == nil {
			return end, phys, nil
		}
		if errors.Is(err, fault.ErrPowerCut) || errors.Is(err, fault.ErrTransient) {
			return t, 0, err
		}
		f.stats.ProgramFaults.Inc()
		f.retireActive(way)
		if attempt >= maxProgramRetries {
			return t, 0, fmt.Errorf("ftl: persistent program failure on way %d: %w", way, err)
		}
	}
}

// retireActive marks the way's active block as grown-bad and closes it, so
// the next allocation opens a fresh block. Live pages already programmed in
// the retired block stay mapped and readable; they die naturally as they are
// overwritten or trimmed (the block is excluded from GC and reuse).
func (f *FTL) retireActive(way int) {
	ab := &f.active[way]
	if ab.block < 0 {
		return
	}
	f.bad[way*f.geo.BlocksPerWay+ab.block] = true
	f.stats.BadBlocks.Inc()
	ab.block = -1
}

// remap points lpn at phys, invalidating any prior mapping.
func (f *FTL) remap(lpn, phys int) error {
	if old := f.l2p[lpn]; old != unmapped {
		if err := f.invalidate(int(old)); err != nil {
			return err
		}
	}
	f.l2p[lpn] = int32(phys)
	f.p2l[phys] = int32(lpn)
	f.validCount[f.blockIndexOf(phys)]++
	return nil
}

// invalidate takes a physical page out of the map: its block loses a valid
// page and the flash drops the payload nothing can address any more, instead
// of holding it until GC gets round to erasing the block.
func (f *FTL) invalidate(phys int) error {
	f.p2l[phys] = unmapped
	f.validCount[f.blockIndexOf(phys)]--
	return f.flash.Discard(f.addrOf(phys))
}

// lookup returns the physical page lpn maps to, or unmapped.
func (f *FTL) lookup(lpn int) (int32, error) {
	if lpn < 0 || lpn >= len(f.l2p) {
		return unmapped, fmt.Errorf("ftl: logical page %d out of range", lpn)
	}
	return f.l2p[lpn], nil
}

// Read fetches a logical page. Unmapped pages read as zeros (like an
// unwritten LBA on a block SSD). The result is the flash's read-only view
// (see nand.Array.Read): the page's first len(view) bytes, the rest zeros,
// or nand.ErrSparsePage for a page with gaps (read it with ReadAt). The view
// dies when the logical page is next written or trimmed and when GC migrates
// it, so a caller keeping the bytes across any FTL call copies them.
func (f *FTL) Read(t sim.Time, lpn int) ([]byte, sim.Time, error) {
	phys, err := f.lookup(lpn)
	switch {
	case err != nil:
		return nil, t, err
	case phys == unmapped:
		return f.flash.ZeroPage(), t, nil
	}
	return f.flash.Read(t, f.addrOf(int(phys)))
}

// ReadAt copies bytes [off, off+len(dst)) of a logical page into dst (see
// nand.Array.ReadAt) and returns the read's completion time; an unmapped
// page reads as zeros.
func (f *FTL) ReadAt(t sim.Time, lpn int, dst []byte, off int) (sim.Time, error) {
	phys, err := f.lookup(lpn)
	switch {
	case err != nil:
		return t, err
	case phys == unmapped:
		clear(dst)
		return t, nil
	}
	return f.flash.ReadAt(t, f.addrOf(int(phys)), dst, off)
}

// View returns the bytes a Read of the logical page would, found through the
// map at call time and without the flash operation (see nand.Array.View):
// nothing is counted, scheduled, traced or faulted. The view dies when a
// Read's would.
func (f *FTL) View(lpn int) ([]byte, error) {
	phys, err := f.lookup(lpn)
	switch {
	case err != nil:
		return nil, err
	case phys == unmapped:
		return f.flash.ZeroPage(), nil
	}
	return f.flash.View(f.addrOf(int(phys)))
}

// ViewAt copies what a ReadAt of the logical page would into dst, found
// through the map at call time and without the flash operation.
func (f *FTL) ViewAt(lpn int, dst []byte, off int) error {
	phys, err := f.lookup(lpn)
	switch {
	case err != nil:
		return err
	case phys == unmapped:
		clear(dst)
		return nil
	}
	return f.flash.ViewAt(f.addrOf(int(phys)), dst, off)
}

// Trim drops the mapping of a logical page, freeing its physical page for GC.
func (f *FTL) Trim(lpn int) error {
	old, err := f.lookup(lpn)
	if err != nil || old == unmapped {
		return err
	}
	f.l2p[lpn] = unmapped
	return f.invalidate(int(old))
}

// maybeGC reclaims blocks on a way whose free pool has run low, using a
// greedy victim policy (fewest valid pages first). A way whose data is all
// live simply stays low until overwrites create dead pages; that is not an
// error.
func (f *FTL) maybeGC(t sim.Time, way int) error {
	for len(f.freeBlocks[way]) < f.cfg.GCFreeBlockLow {
		reclaimed, err := f.gcOnce(t, way)
		if err != nil {
			return err
		}
		if !reclaimed {
			return nil
		}
	}
	return nil
}

// availableSlots reports how many erased pages the way can still program
// (free pool plus the remainder of the active block).
func (f *FTL) availableSlots(way int) int {
	slots := len(f.freeBlocks[way]) * f.geo.PagesPerBlock
	if ab := f.active[way]; ab.block >= 0 {
		slots += f.geo.PagesPerBlock - ab.nextPage
	}
	return slots
}

// gcOnce migrates the way's best victim block and erases it. It reports
// whether a block was reclaimed; no eligible victim (every block fully live,
// or migration would not fit in the remaining slots) is reported as false.
//
// Victim selection is greedy by valid-page count with wear-aware
// tie-breaking: among equally dead blocks the least-erased one is reclaimed
// first, spreading erases across the way.
func (f *FTL) gcOnce(t sim.Time, way int) (bool, error) {
	victim := -1
	best := int32(f.geo.PagesPerBlock) // require at least one dead page
	bestWear := 0
	activeBlk := f.active[way].block
	slots := int32(f.availableSlots(way))
	for b := 0; b < f.geo.BlocksPerWay; b++ {
		if b == activeBlk || f.bad[way*f.geo.BlocksPerWay+b] || f.isFree(way, b) {
			continue
		}
		v := f.validCount[way*f.geo.BlocksPerWay+b]
		if v > slots || v > best {
			continue
		}
		wear, err := f.flash.EraseCount(nand.BlockAddr{
			Channel: way / f.geo.WaysPerChannel,
			Way:     way % f.geo.WaysPerChannel,
			Block:   b,
		})
		if err != nil {
			return false, err
		}
		if v < best || (v == best && wear < bestWear) {
			best = v
			bestWear = wear
			victim = b
		}
	}
	if victim < 0 {
		return false, nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()
	// Migrate live pages within the same way so reclamation is local.
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		phys := f.physIndex(way, victim, p)
		lpn := f.p2l[phys]
		if lpn == unmapped {
			continue
		}
		// Copy the page out up to its extent, so the new copy keeps exactly
		// the bytes the old one did and every view of it stays as long.
		addr := f.addrOf(phys)
		n, err := f.flash.Extent(addr)
		if err == nil {
			_, err = f.flash.ReadAt(t, addr, f.gcPage[:n], 0)
		}
		if err != nil {
			return false, fmt.Errorf("ftl: GC read: %w", err)
		}
		_, newPhys, err := f.programOnWay(t, way, f.gcPage[:n])
		if err != nil {
			return false, fmt.Errorf("ftl: GC program: %w", err)
		}
		if err := f.remap(int(lpn), newPhys); err != nil {
			return false, err
		}
		f.stats.GCWrites.Inc()
	}
	addr := nand.BlockAddr{
		Channel: way / f.geo.WaysPerChannel,
		Way:     way % f.geo.WaysPerChannel,
		Block:   victim,
	}
	if _, err := f.flash.Erase(t, addr); err != nil {
		if errors.Is(err, fault.ErrPowerCut) || errors.Is(err, fault.ErrTransient) {
			return false, fmt.Errorf("ftl: GC erase: %w", err)
		}
		// Erase media failure: retire the victim instead of returning it to
		// the free pool. Its live pages were already migrated, so reporting
		// the round as productive lets the caller try another victim.
		f.bad[way*f.geo.BlocksPerWay+victim] = true
		f.stats.BadBlocks.Inc()
		return true, nil
	}
	f.freeBlocks[way] = append(f.freeBlocks[way], victim)
	return true, nil
}

func (f *FTL) isFree(way, block int) bool {
	for _, b := range f.freeBlocks[way] {
		if b == block {
			return true
		}
	}
	return false
}
