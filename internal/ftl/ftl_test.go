package ftl

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bandslim/internal/fault"
	"bandslim/internal/nand"
	"bandslim/internal/sim"
)

func smallFlash(t *testing.T) *nand.Array {
	t.Helper()
	geo := nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 8, PagesPerBlock: 8, PageSize: 4096}
	a, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// failPrograms makes every n-th program of fl from now on fail with a media
// fault.
func failPrograms(fl *nand.Array, n int) {
	fl.SetInjector(fault.NewInjector(&fault.Plan{Rules: []fault.Rule{{Site: fault.SiteNandProgram, Effect: fault.EffectMedia, Every: n}}}, 0))
}

func newFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(smallFlash(t), Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	fl := smallFlash(t)
	if _, err := New(fl, Config{OverprovisionPct: 0, GCFreeBlockLow: 2}); err == nil {
		t.Fatal("0% OP accepted")
	}
	if _, err := New(fl, Config{OverprovisionPct: 60, GCFreeBlockLow: 2}); err == nil {
		t.Fatal("60% OP accepted")
	}
	if _, err := New(fl, Config{OverprovisionPct: 10, GCFreeBlockLow: 0}); err == nil {
		t.Fatal("GCFreeBlockLow=0 accepted")
	}
	if _, err := New(fl, DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// 2^31 physical pages do not fit the map's int32 page numbers.
	huge, err := nand.New(nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 4, PagesPerBlock: 1 << 29, PageSize: 512}, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(huge, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("2^31 physical pages: %v, want an error naming the count", err)
	}
}

func TestLogicalCapacityReflectsOverprovision(t *testing.T) {
	f := newFTL(t)
	// 2*2*8*8 = 256 physical pages, 25% OP -> 192 logical.
	if got := f.LogicalPages(); got != 192 {
		t.Fatalf("LogicalPages = %d, want 192", got)
	}
	if f.PageSize() != 4096 {
		t.Fatalf("PageSize = %d", f.PageSize())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL(t)
	data := bytes.Repeat([]byte{0x5A}, 4096)
	if _, err := f.Write(0, 10, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestUnmappedReadsZero(t *testing.T) {
	f := newFTL(t)
	got, _, err := f.Read(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped page read non-zero")
		}
	}
}

func TestOutOfRangeOps(t *testing.T) {
	f := newFTL(t)
	if _, err := f.Write(0, -1, nil); err == nil {
		t.Fatal("negative lpn accepted")
	}
	if _, err := f.Write(0, f.LogicalPages(), nil); err == nil {
		t.Fatal("lpn == capacity accepted")
	}
	if _, _, err := f.Read(0, -1); err == nil {
		t.Fatal("negative read accepted")
	}
	if err := f.Trim(99999); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

// View follows the map like Read — current mapping, the bytes written with a
// zero tail, the zero page when unmapped, range checked — without reading the
// flash, and ViewAt copies the same bytes by range, gaps included.
func TestViewFollowsTheMapUncharged(t *testing.T) {
	f := newFTL(t)
	f.Write(0, 3, []byte{1})
	f.Write(0, 3, []byte{2})
	reads := f.flash.Stats().PageReads.Value()
	if got, err := f.View(3); err != nil || !bytes.Equal(got, []byte{2}) {
		t.Fatalf("View after an overwrite: %v, %v; want the byte written", err, got)
	}
	if got, err := f.View(5); err != nil || &got[0] != &f.flash.ZeroPage()[0] {
		t.Fatalf("View of an unmapped page: %v; want the zero page", err)
	}
	sparse := make([]byte, f.PageSize())
	sparse[0], sparse[f.PageSize()-1] = 7, 8 // one byte at each end of the sector
	f.Write(0, 6, sparse)
	got := make([]byte, f.PageSize())
	if err := f.ViewAt(6, got, 0); err != nil || !bytes.Equal(got, sparse) {
		t.Fatalf("ViewAt of a page with a gap: %v", err)
	}
	if err := f.ViewAt(5, got[:10], 3); err != nil || !bytes.Equal(got[:10], make([]byte, 10)) {
		t.Fatalf("ViewAt of an unmapped page: %v, %v; want zeros", err, got[:10])
	}
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if got, err := f.View(3); err != nil || got[0] != 0 {
		t.Fatalf("View of a trimmed page: %v, first byte %d", err, got[0])
	}
	for _, lpn := range []int{-1, f.LogicalPages()} {
		if _, err := f.View(lpn); err == nil {
			t.Fatalf("View of logical page %d accepted", lpn)
		}
		if err := f.ViewAt(lpn, got, 0); err == nil {
			t.Fatalf("ViewAt of logical page %d accepted", lpn)
		}
	}
	if n := f.flash.Stats().PageReads.Value() - reads; n != 0 {
		t.Fatalf("View read the flash %d times", n)
	}
}

func TestOverwriteRemapsOutOfPlace(t *testing.T) {
	f := newFTL(t)
	f.Write(0, 3, []byte{1})
	f.Write(0, 3, []byte{2})
	got, _, err := f.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("after overwrite, read %d", got[0])
	}
	if n := f.flash.Stats().PageWrites.Value(); n != 2 {
		t.Fatalf("overwrite programmed %d pages, want 2", n)
	}
}

func TestTrimThenReadZero(t *testing.T) {
	f := newFTL(t)
	f.Write(0, 7, []byte{9})
	if err := f.Trim(7); err != nil {
		t.Fatal(err)
	}
	got, _, _ := f.Read(0, 7)
	if got[0] != 0 {
		t.Fatal("trimmed page still readable")
	}
	// Trimming an unmapped page is a no-op.
	if err := f.Trim(7); err != nil {
		t.Fatal(err)
	}
}

func TestWritesStripeAcrossWays(t *testing.T) {
	f := newFTL(t)
	for i := 0; i < 4; i++ {
		if _, err := f.Write(0, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// 4 writes over 4 ways: each way consumed exactly one active block.
	for w := range f.freeBlocks {
		if free := len(f.freeBlocks[w]); free != 7 {
			t.Fatalf("way %d free blocks = %d, want 7", w, free)
		}
	}
}

func TestGCReclaimsOverwrittenSpace(t *testing.T) {
	f := newFTL(t)
	// Hammer one logical page far beyond physical block capacity; GC must
	// keep reclaiming the dead versions or allocation would fail.
	for i := 0; i < 2000; i++ {
		if _, err := f.Write(0, 0, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.flash.Stats().BlockErases.Value() == 0 {
		t.Fatal("GC never ran")
	}
	got, _, err := f.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != byte(1999%256) {
		t.Fatalf("latest value lost: %d", got[0])
	}
}

func TestGCPreservesLiveData(t *testing.T) {
	f := newFTL(t)
	n := f.LogicalPages()
	// Fill the whole logical space so every block holds live data.
	for i := 0; i < n; i++ {
		if _, err := f.Write(0, i, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	// Churn every 4th page so victim blocks mix live and dead pages and GC
	// must migrate the live ones.
	for round := 0; round < 20; round++ {
		for i := 0; i < n; i += 4 {
			if _, err := f.Write(0, i, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatalf("churn round %d page %d: %v", round, i, err)
			}
		}
	}
	for i := 0; i < n; i++ {
		got, _, err := f.Read(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted by GC: %x", i, got[:2])
		}
	}
	if f.Stats().GCWrites.Value() == 0 {
		t.Fatal("expected GC migrations")
	}
}

func TestFaultRetryDuringWrite(t *testing.T) {
	fl := smallFlash(t)
	failPrograms(fl, 5)
	f, err := New(fl, Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := f.Write(0, i%4, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d under fault injection: %v", i, err)
		}
	}
	if f.Stats().ProgramFaults.Value() == 0 {
		t.Fatal("no faults recorded despite injection")
	}
	got, _, _ := f.Read(0, 3)
	if got[0] != 19 {
		t.Fatalf("value after retries: %d", got[0])
	}
}

// nandBlock builds a BlockAddr for way w, block b.
func nandBlock(w int, geo nand.Geometry, b int) nand.BlockAddr {
	return nand.BlockAddr{Channel: w / geo.WaysPerChannel, Way: w % geo.WaysPerChannel, Block: b}
}

// Wear-aware GC spreads erases: after heavy single-page churn, the gap
// between the most- and least-worn blocks stays small relative to total
// erase activity.
func TestGCWearSpreadBounded(t *testing.T) {
	fl := smallFlash(t)
	f, err := New(fl, Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := f.Write(0, i%4, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if n := fl.Stats().BlockErases.Value(); n < 100 {
		t.Fatalf("only %d erases; churn too light", n)
	}
	// Collect wear across every block of way 0.
	geo := fl.Geometry()
	minW, maxW := 1<<30, 0
	for b := 0; b < geo.BlocksPerWay; b++ {
		w, err := fl.EraseCount(nandBlock(0, geo, b))
		if err != nil {
			t.Fatal(err)
		}
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		t.Fatal("no erases on way 0")
	}
	// With wear-aware tie-breaking the spread stays within a small
	// multiple of the mean; a pathological policy concentrates all erases
	// on one block (spread ≈ max).
	if maxW-minW > maxW/2+2 {
		t.Fatalf("wear spread %d..%d too wide", minW, maxW)
	}
}

// Property: a random sequence of writes over a small logical space always
// leaves every page readable with its most recent contents, regardless of
// how much GC ran.
func TestRandomWritesConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fl := smallFlash(t)
		ftl, err := New(fl, Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
		if err != nil {
			return false
		}
		const space = 16
		want := make(map[int]byte)
		for i, op := range ops {
			lpn := int(op) % space
			val := byte(i)
			if _, err := ftl.Write(0, lpn, []byte{val}); err != nil {
				return false
			}
			want[lpn] = val
		}
		for lpn, val := range want {
			got, _, err := ftl.Read(0, lpn)
			if err != nil || got[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Payloads follow the map: every way a physical page can lose its mapping —
// overwrite, Trim, GC migration — gives back exactly that page's buffer, so
// the flash holds one payload per mapped logical page at all times, and a
// view of the old page shows poison, not the old data.
func TestPayloadsFollowTheMap(t *testing.T) {
	f := newFTL(t)
	mapped := make(map[int]bool)
	check := func(when string) {
		t.Helper()
		if held, _, _ := f.flash.Payloads(); held != len(mapped) {
			t.Fatalf("%s: flash holds %d payloads for %d mapped pages", when, held, len(mapped))
		}
	}
	page := func(lpn, ver int) []byte { return bytes.Repeat([]byte{byte(lpn), byte(ver)}, 2048) }
	write := func(lpn, ver int) {
		t.Helper()
		if _, err := f.Write(0, lpn, page(lpn, ver)); err != nil {
			t.Fatal(err)
		}
		mapped[lpn] = true
	}

	write(3, 0)
	old, _, _ := f.Read(0, 3)
	_, spare0, _ := f.flash.Payloads()
	write(3, 1)
	check("overwrite")
	if _, spare, _ := f.flash.Payloads(); spare != spare0+1 {
		t.Fatalf("overwrite returned %d buffers, want 1", spare-spare0)
	}
	if old[0] <= 16 {
		t.Fatalf("stale view starts with %#x: it would parse as a key length", old[0])
	}

	write(4, 0)
	old, _, _ = f.Read(0, 4)
	_, spare0, _ = f.flash.Payloads()
	if err := f.Trim(4); err != nil {
		t.Fatal(err)
	}
	delete(mapped, 4)
	check("trim")
	if _, spare, _ := f.flash.Payloads(); spare != spare0+1 {
		t.Fatalf("trim returned %d buffers, want 1", spare-spare0)
	}
	if old[0] <= 16 {
		t.Fatal("view of a trimmed page still shows its data")
	}
	if err := f.Trim(4); err != nil { // already unmapped: nothing to release
		t.Fatal(err)
	}
	check("second trim")

	// Churn a small hot set with a cold page dropped in now and then, so the
	// blocks GC picks hold live data it has to migrate; the cold pages must
	// survive every move.
	for i := 0; i < 2000; i++ {
		write(100+i%7, i)
		if i%50 == 0 {
			write(10+i/50, 0)
		}
		check("churn")
	}
	if f.Stats().GCWrites.Value() == 0 || f.flash.Stats().BlockErases.Value() == 0 {
		t.Fatalf("churn never migrated (%d) or erased (%d)", f.Stats().GCWrites.Value(), f.flash.Stats().BlockErases.Value())
	}
	for lpn := 10; lpn < 50; lpn++ {
		got, _, err := f.Read(0, lpn)
		if err != nil || !bytes.Equal(got, page(lpn, 0)) {
			t.Fatalf("lpn %d after GC: err %v", lpn, err)
		}
	}
	if _, spare, _ := f.flash.Payloads(); spare > f.geo.PagesPerBlock {
		t.Fatalf("free list grew to %d buffers", spare)
	}
}

// GC moves a page's payload as it is: the new page keeps what the old page
// kept, so a page stored as one run keeps a view exactly as long — the zero
// bytes an SSTable page's last entry ends with included — and a page with
// gaps still has none and reads back the same by range.
func TestGCMigratesPagesByteForByte(t *testing.T) {
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 8, PagesPerBlock: 8, PageSize: 16 * 1024}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fl, Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	table := append(bytes.Repeat([]byte{0x11}, 5000), make([]byte, 10)...)
	sparse := make([]byte, geo.PageSize)
	copy(sparse, "a value")
	copy(sparse[8192:], "another value")
	write := func(lpn int, data []byte) {
		t.Helper()
		if _, err := f.Write(0, lpn, data); err != nil {
			t.Fatal(err)
		}
	}
	// The two pages open a block on each way; the 14 pages written next
	// fill both blocks and then die, and fresh pages fill the rest of the
	// device with live data, so GC's victims are the two blocks.
	write(0, table)
	write(1, sparse)
	mapped := func(lpn int) int32 {
		phys, err := f.lookup(lpn)
		if err != nil {
			t.Fatal(err)
		}
		return phys
	}
	phys0, phys1 := mapped(0), mapped(1)
	for round := 0; round < 2; round++ {
		for lpn := 2; lpn < 16; lpn++ {
			write(lpn, []byte{byte(lpn)})
		}
	}
	for lpn := 16; mapped(0) == phys0 || mapped(1) == phys1; lpn++ {
		if lpn == f.LogicalPages() {
			t.Fatal("device full and GC never migrated both pages")
		}
		write(lpn, []byte{byte(lpn)})
	}
	if got, err := f.View(0); err != nil || !bytes.Equal(got, table) {
		t.Fatalf("migrated one-run page: %d-byte view, %v; want the %d bytes written", len(got), err, len(table))
	}
	if _, err := f.View(1); !errors.Is(err, nand.ErrSparsePage) {
		t.Fatalf("View of the migrated page with gaps: %v, want nand.ErrSparsePage", err)
	}
	got := make([]byte, geo.PageSize)
	if _, err := f.ReadAt(0, 1, got, 0); err != nil || !bytes.Equal(got, sparse) {
		t.Fatalf("ReadAt of the migrated page with gaps: %v", err)
	}
}

// inject makes the nth check of site on fl from now on fail with eff.
func inject(fl *nand.Array, site fault.Site, eff fault.Effect, nth int) {
	fl.SetInjector(fault.NewInjector(&fault.Plan{Rules: []fault.Rule{{Site: site, Effect: eff, Nth: nth}}}, 0))
}

// gcFixture is a one-way flash of 8 blocks of 4 pages holding lpn 0's data
// and three pages that died beside it in one block; the next block is open
// with three pages written, so gcOnce's one victim is the first block and
// its one live page is lpn 0.
func gcFixture(t *testing.T, data []byte) (*FTL, *nand.Array) {
	t.Helper()
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 8, PagesPerBlock: 4, PageSize: 4096}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fl, Config{OverprovisionPct: 25, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, lpn := range []int{0, 1, 2, 3, 1, 2, 3} {
		page := []byte{byte(i)}
		if lpn == 0 {
			page = data
		}
		if _, err := f.Write(0, lpn, page); err != nil {
			t.Fatal(err)
		}
	}
	if f.active[0].nextPage != 3 || f.blocks[7].valid != 1 {
		t.Fatalf("fixture: active block at page %d, first block %d valid pages; want 3 and 1", f.active[0].nextPage, f.blocks[7].valid)
	}
	return f, fl
}

// GC moves a live page's payload instead of copying it: a view taken before
// gcOnce reads the same bytes, at the same address, after it — the victim's
// erase does not poison it — while the page is charged one read and one
// program as before. A relocation whose program hits a media fault retires
// the block and moves the page into a fresh one, reading it only once.
func TestGCMovesThePayloadItsViewsRead(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		data := bytes.Repeat([]byte{0x42}, 3000)
		f, fl := gcFixture(t, data)
		view, err := f.View(0)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := f.lookup(0)
		reads, writes := fl.Stats().PageReads.Value(), fl.Stats().PageWrites.Value()
		if faulted {
			inject(fl, fault.SiteNandProgram, fault.EffectMedia, 1)
		}
		if ok, err := f.gcOnce(0, 0); !ok || err != nil {
			t.Fatalf("faulted=%v: gcOnce = %v, %v", faulted, ok, err)
		}
		after, _ := f.lookup(0)
		now, err := f.View(0)
		if after == before || err != nil || &now[0] != &view[0] || !bytes.Equal(view, data) {
			t.Fatalf("faulted=%v: lpn 0 at %d then %d; the view taken before GC no longer reads its page (%v)", faulted, before, after, err)
		}
		fails := int64(0)
		if faulted {
			fails = 1
		}
		if r, w := fl.Stats().PageReads.Value()-reads, fl.Stats().PageWrites.Value()-writes; r != 1 || w != 1+fails {
			t.Fatalf("faulted=%v: the migration made %d reads and %d programs, want 1 and %d", faulted, r, w, 1+fails)
		}
		if s := f.Stats(); s.GCWrites.Value() != 1 || s.ProgramFaults.Value() != fails || s.BadBlocks.Value() != fails {
			t.Fatalf("faulted=%v: %d GC writes, %d program faults, %d bad blocks", faulted, s.GCWrites.Value(), s.ProgramFaults.Value(), s.BadBlocks.Value())
		}
	}
}

// GC declines a victim whose live pages would not fit where it can move
// them: here every block but one is wholly live, and the one holding a dead
// page has three live ones with two erased pages left on its way, so the
// write that finds the way short of free blocks goes ahead without a
// migration rather than failing one halfway.
func TestGCDeclinesAVictimThatDoesNotFit(t *testing.T) {
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 4, PagesPerBlock: 4, PageSize: 4096}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fl, Config{OverprovisionPct: 10, GCFreeBlockLow: 1})
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn <= 12; lpn++ { // three blocks, and the last one opened
		if _, err := f.Write(0, lpn, []byte{byte(lpn)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Trim(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 13, []byte{13}); err != nil {
		t.Fatalf("a write with a victim too big to move: %v", err)
	}
	if n := f.Stats().GCWrites.Value(); n != 0 || f.availableSlots(0) != 2 {
		t.Fatalf("%d pages migrated, %d slots left; want 0 and 2", n, f.availableSlots(0))
	}
}

// A transient fault or a power cut says nothing of the media: a program or
// a GC erase that meets one fails the write with that fault's identity and
// retires no block, where a media failure would retire it.
func TestTransientFaultsIndictNoBlock(t *testing.T) {
	for _, eff := range []fault.Effect{fault.EffectTransient, fault.EffectPowerCut} {
		want := fault.ErrTransient
		if eff == fault.EffectPowerCut {
			want = fault.ErrPowerCut
		}
		f := newFTL(t)
		inject(f.flash, fault.SiteNandProgram, eff, 1)
		if _, err := f.Write(0, 0, []byte{1}); !errors.Is(err, want) {
			t.Fatalf("%v program: %v, want %v", eff, err, want)
		}
		if s := f.Stats(); s.ProgramFaults.Value() != 0 || s.BadBlocks.Value() != 0 {
			t.Fatalf("%v program: %d program faults, %d bad blocks; want none", eff, s.ProgramFaults.Value(), s.BadBlocks.Value())
		}

		f, _ = gcFixture(t, []byte{1})
		inject(f.flash, fault.SiteNandErase, eff, 1)
		if ok, err := f.gcOnce(0, 0); ok || !errors.Is(err, want) {
			t.Fatalf("%v GC erase: gcOnce = %v, %v; want false, %v", eff, ok, err, want)
		}
		if f.Stats().BadBlocks.Value() != 0 || f.blocks[7].bad {
			t.Fatalf("%v GC erase retired the victim", eff)
		}
	}
}

// Running out of blocks is a typed answer: every program fails here, each
// failure retires a block, and once none are left the write reports
// ErrNoSpace instead of an anonymous error.
func TestOutOfBlocksIsErrNoSpace(t *testing.T) {
	f := newFTL(t)
	failPrograms(f.flash, 1)
	var err error
	for i := 0; i < 100 && !errors.Is(err, ErrNoSpace); i++ {
		if _, err = f.Write(0, i, []byte{1}); err == nil {
			t.Fatal("a write succeeded on a flash whose every program fails")
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("last error %v, want ErrNoSpace", err)
	}
}

// denseFTL is the FTL as it was before its map was built as it is written:
// a dense logical-to-physical table, a dense reverse map, a valid count per
// block and a free-pool scan for GC's victims, over a flash of its own. It
// keeps the FTL's placement and GC policy (fault handling aside: FuzzFTL
// injects none), so given the same calls the FTL must map every logical page
// to the same physical page, and pool, open and erase the same blocks. It
// migrates a page the way the FTL did before it moved payloads: a copy of the
// page's first Extent bytes, programmed anew, which must read as the moved
// payload does.
type denseFTL struct {
	flash      *nand.Array
	geo        nand.Geometry
	low        int // GCFreeBlockLow
	l2p, p2l   []int32
	validCount []int32
	freeBlocks [][]int
	active     []activeBlock
	nextWay    int
	inGC       bool
	gcPage     []byte
}

func newDenseFTL(flash *nand.Array, cfg Config) *denseFTL {
	geo := flash.Geometry()
	d := &denseFTL{
		flash:      flash,
		geo:        geo,
		low:        cfg.GCFreeBlockLow,
		l2p:        unmappedTable(geo.Pages() * (100 - cfg.OverprovisionPct) / 100),
		p2l:        unmappedTable(geo.Pages()),
		validCount: make([]int32, geo.Blocks()),
		freeBlocks: make([][]int, geo.Ways()),
		active:     make([]activeBlock, geo.Ways()),
		gcPage:     make([]byte, geo.PageSize),
	}
	for w := range d.freeBlocks {
		for b := geo.BlocksPerWay - 1; b >= 0; b-- {
			d.freeBlocks[w] = append(d.freeBlocks[w], b)
		}
		d.active[w].block = -1
	}
	return d
}

func (d *denseFTL) addr(phys int) nand.PageAddr {
	perWay := d.geo.BlocksPerWay * d.geo.PagesPerBlock
	way, rem := phys/perWay, phys%perWay
	return nand.PageAddr{
		Channel: way / d.geo.WaysPerChannel,
		Way:     way % d.geo.WaysPerChannel,
		Block:   rem / d.geo.PagesPerBlock,
		Page:    rem % d.geo.PagesPerBlock,
	}
}

func (d *denseFTL) blockAddr(way, block int) nand.BlockAddr {
	return nand.BlockAddr{Channel: way / d.geo.WaysPerChannel, Way: way % d.geo.WaysPerChannel, Block: block}
}

func (d *denseFTL) slots(way int) int {
	slots := len(d.freeBlocks[way]) * d.geo.PagesPerBlock
	if ab := d.active[way]; ab.block >= 0 {
		slots += d.geo.PagesPerBlock - ab.nextPage
	}
	return slots
}

func (d *denseFTL) write(lpn int, data []byte) error {
	way, best := d.nextWay, -1
	for i := range d.freeBlocks {
		w := (d.nextWay + i) % len(d.freeBlocks)
		if s := d.slots(w); s > best {
			way, best = w, s
		}
	}
	d.nextWay = (way + 1) % len(d.freeBlocks)
	phys, err := d.programOnWay(way, data)
	if err != nil {
		return err
	}
	d.remap(lpn, phys)
	for len(d.freeBlocks[way]) < d.low {
		if ok, err := d.gcOnce(way); err != nil || !ok {
			return err
		}
	}
	return nil
}

func (d *denseFTL) programOnWay(way int, data []byte) (int, error) {
	ab := &d.active[way]
	if ab.block < 0 || ab.nextPage >= d.geo.PagesPerBlock {
		if len(d.freeBlocks[way]) == 0 && !d.inGC {
			if ok, err := d.gcOnce(way); err != nil || !ok {
				return 0, errors.Join(ErrNoSpace, err)
			}
		}
		if len(d.freeBlocks[way]) == 0 {
			return 0, ErrNoSpace
		}
		ab.block, d.freeBlocks[way] = d.freeBlocks[way][0], d.freeBlocks[way][1:]
		ab.nextPage = 0
	}
	phys := (way*d.geo.BlocksPerWay+ab.block)*d.geo.PagesPerBlock + ab.nextPage
	ab.nextPage++
	_, err := d.flash.Program(0, d.addr(phys), data)
	return phys, err
}

func (d *denseFTL) remap(lpn, phys int) {
	if old := d.l2p[lpn]; old != unmapped {
		d.invalidate(int(old))
	}
	d.l2p[lpn], d.p2l[phys] = int32(phys), int32(lpn)
	d.validCount[phys/d.geo.PagesPerBlock]++
}

func (d *denseFTL) invalidate(phys int) {
	d.p2l[phys] = unmapped
	d.validCount[phys/d.geo.PagesPerBlock]--
	if err := d.flash.Discard(d.addr(phys)); err != nil {
		panic(err)
	}
}

func (d *denseFTL) trim(lpn int) {
	if old := d.l2p[lpn]; old != unmapped {
		d.l2p[lpn] = unmapped
		d.invalidate(int(old))
	}
}

func (d *denseFTL) isFree(way, block int) bool {
	for _, b := range d.freeBlocks[way] {
		if b == block {
			return true
		}
	}
	return false
}

func (d *denseFTL) gcOnce(way int) (bool, error) {
	victim, best, bestWear := -1, int32(d.geo.PagesPerBlock), 0
	slots := int32(d.slots(way))
	for b := 0; b < d.geo.BlocksPerWay; b++ {
		if b == d.active[way].block || d.isFree(way, b) {
			continue
		}
		v := d.validCount[way*d.geo.BlocksPerWay+b]
		if v > slots || v > best {
			continue
		}
		wear, err := d.flash.EraseCount(d.blockAddr(way, b))
		if err != nil {
			return false, err
		}
		if v < best || (v == best && wear < bestWear) {
			victim, best, bestWear = b, v, wear
		}
	}
	if victim < 0 {
		return false, nil
	}
	d.inGC = true
	defer func() { d.inGC = false }()
	for p := 0; p < d.geo.PagesPerBlock; p++ {
		phys := (way*d.geo.BlocksPerWay+victim)*d.geo.PagesPerBlock + p
		lpn := d.p2l[phys]
		if lpn == unmapped {
			continue
		}
		addr := d.addr(phys)
		n, err := d.flash.Extent(addr)
		if err == nil {
			_, err = d.flash.ReadAt(0, addr, d.gcPage[:n], 0)
		}
		if err != nil {
			return false, err
		}
		newPhys, err := d.programOnWay(way, d.gcPage[:n])
		if err != nil {
			return false, err
		}
		d.remap(int(lpn), newPhys)
	}
	if _, err := d.flash.Erase(0, d.blockAddr(way, victim)); err != nil {
		return false, err
	}
	d.freeBlocks[way] = append(d.freeBlocks[way], victim)
	return true, nil
}

// view and viewAt read lpn through the dense map, without a flash operation.
func (d *denseFTL) view(lpn int) ([]byte, error) {
	if phys := d.l2p[lpn]; phys != unmapped {
		return d.flash.View(d.addr(int(phys)))
	}
	return d.flash.ZeroPage(), nil
}

func (d *denseFTL) viewAt(lpn int, dst []byte) {
	phys := d.l2p[lpn]
	if phys == unmapped {
		clear(dst)
		return
	}
	if err := d.flash.ViewAt(d.addr(int(phys)), dst, 0); err != nil {
		panic(err)
	}
}

// fuzzGeometry spans four map chunks of logical pages (4096 physical pages,
// 20% overprovisioned: 3276 logical) over two ways of eight blocks, so a few
// thousand writes reach GC. Its pages hold two 4 KiB sectors, so a page can
// be stored with a gap.
var (
	fuzzGeometry = nand.Geometry{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 8, PagesPerBlock: 256, PageSize: 8192}
	fuzzConfig   = Config{OverprovisionPct: 20, GCFreeBlockLow: 2}
)

// fuzzPage is what FuzzFTL writes to lpn as its ver-th write, built in buf
// (a page long), with where its bytes end in each sector: a few non-zero
// bytes, and for every third page a few more at the start of the second
// sector, which leaves a gap.
func fuzzPage(buf []byte, ends []uint16, lpn, ver int) []byte {
	n := 1 + (7*lpn+ver)%61
	p := buf[:n]
	ends[0], ends[1] = uint16(n), 0
	if (lpn+ver)%3 == 0 {
		p = buf[:4096+n]
		clear(p)
		for i := 0; i < n; i++ {
			p[4096+i] = byte(lpn-ver+i) | 1
		}
		ends[1] = uint16(n)
	}
	for i := 0; i < n; i++ {
		p[i] = byte(lpn+ver+i) | 1
	}
	return p
}

// runFTLOps plays ops against an FTL and a denseFTL in lockstep, four bytes
// per call: a kind, a logical page (two bytes, big-endian, modulo the
// capacity) and a count or offset. After every call, checkAgainstDense holds
// the two to the same map, block pools and payload count, and to the same
// contents of every page the call remapped — written, trimmed or moved by
// GC; after the last call, to the same contents of every page.
func runFTLOps(tb testing.TB, ops []byte) *FTL {
	tb.Helper()
	newFlash := func() *nand.Array {
		fl, err := nand.New(fuzzGeometry, nand.DefaultLatency(), sim.NewClock())
		if err != nil {
			tb.Fatal(err)
		}
		return fl
	}
	f, err := New(newFlash(), fuzzConfig)
	if err != nil {
		tb.Fatal(err)
	}
	d := newDenseFTL(newFlash(), fuzzConfig)
	versions := make(map[int]int)
	got, want := make([]byte, fuzzGeometry.PageSize), make([]byte, fuzzGeometry.PageSize)
	page, ends := make([]byte, fuzzGeometry.PageSize), make([]uint16, 2)
	// seen is each logical page's mapping at the last check, which only
	// compares the contents of the pages mapped elsewhere since.
	seen := unmappedTable(f.LogicalPages())
	// An input's calls stop once they have made maxWrites writes: a few times
	// the device's capacity, past the churn seed's 12 400, so that no input
	// costs the fuzzer more than a fraction of a second.
	const maxWrites = 1 << 14
	writes := 0
ops:
	for i := 0; i+3 < len(ops) && writes < maxWrites; i += 4 {
		lpn := (int(ops[i+1])<<8 | int(ops[i+2])) % f.LogicalPages()
		arg := int(ops[i+3])
		switch ops[i] % 6 {
		case 0, 1: // a run of 2 to 512 writes from lpn on
			for n := 0; n <= 2*arg+1; n++ {
				writes++
				l := (lpn + n) % f.LogicalPages()
				data := fuzzPage(page, ends, l, versions[l])
				versions[l]++
				// The FTL takes the sector ends, the reference finds them.
				_, errF := f.WriteSectors(0, l, data, ends)
				errD := d.write(l, data)
				if (errF == nil) != (errD == nil) {
					tb.Fatalf("write of lpn %d: FTL %v, dense reference %v", l, errF, errD)
				}
				if errF != nil {
					break ops
				}
			}
		case 2: // a run of 1 to 64 trims from lpn on
			for n := 0; n <= arg%64; n++ {
				l := (lpn + n) % f.LogicalPages()
				if err := f.Trim(l); err != nil {
					tb.Fatal(err)
				}
				d.trim(l)
			}
		case 3:
			gotV, _, errF := f.Read(0, lpn)
			wantV, errD := d.view(lpn)
			if (errF == nil) != (errD == nil) || !bytes.Equal(gotV, wantV) {
				tb.Fatalf("Read of lpn %d: %d bytes, %v; dense reference %d bytes, %v", lpn, len(gotV), errF, len(wantV), errD)
			}
		case 4:
			off := arg * 32
			n := min(len(got)-off, 1+arg*29)
			if _, err := f.ReadAt(0, lpn, got[:n], off); err != nil {
				tb.Fatalf("ReadAt of lpn %d: %v", lpn, err)
			}
			d.viewAt(lpn, want)
			if !bytes.Equal(got[:n], want[off:off+n]) {
				tb.Fatalf("ReadAt of lpn %d, bytes [%d,%d) differ from the dense reference", lpn, off, off+n)
			}
		case 5:
			gotV, errF := f.View(lpn)
			wantV, errD := d.view(lpn)
			if (errF == nil) != (errD == nil) || !bytes.Equal(gotV, wantV) {
				tb.Fatalf("View of lpn %d: %d bytes, %v; dense reference %d bytes, %v", lpn, len(gotV), errF, len(wantV), errD)
			}
		}
		checkAgainstDense(tb, f, d, got, want, seen)
	}
	checkAgainstDense(tb, f, d, got, want, nil)
	return f
}

// checkAgainstDense compares every logical page's mapping with the dense
// reference, and the block pools, and walks the FTL's invariants: each
// block's valid count is the number of mapped pages it holds and its reverse
// map names them; the flash holds one payload per mapped page; a block is
// flagged free exactly when it sits in its way's pool, and a free block holds
// no mapped page. It compares the contents of every mapped page whose mapping
// differs from seen, which it then updates, or of every one with seen nil.
func checkAgainstDense(tb testing.TB, f *FTL, d *denseFTL, got, want []byte, seen []int32) {
	tb.Helper()
	holds := make([]int32, len(f.blocks))
	mapped := 0
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		phys, err := f.lookup(lpn)
		if err != nil || phys != d.l2p[lpn] {
			tb.Fatalf("lpn %d maps to %d (%v); dense reference %d", lpn, phys, err, d.l2p[lpn])
		}
		remapped := seen == nil || seen[lpn] != phys
		if seen != nil {
			seen[lpn] = phys
		}
		if phys == unmapped {
			continue
		}
		mapped++
		blk, pg := f.blockOf(int(phys))
		holds[int(phys)/f.geo.PagesPerBlock]++
		if blk.p2l == nil || blk.p2l[pg] != int32(lpn) {
			tb.Fatalf("lpn %d maps to page %d, whose reverse map does not name it", lpn, phys)
		}
		if !remapped {
			continue
		}
		// Past the kept bytes' end every byte reads as zero on both sides,
		// so bytes are compared up to it.
		n, errF := f.flash.Extent(f.addrOf(int(phys)))
		nD, errD := d.flash.Extent(d.addr(int(phys)))
		if errF != nil || errD != nil || n != nD {
			tb.Fatalf("lpn %d keeps %d bytes (%v); dense reference %d (%v)", lpn, n, errF, nD, errD)
		}
		gotV, errF := f.View(lpn)
		wantV, errD := d.view(lpn)
		if errors.Is(errF, nand.ErrSparsePage) && errors.Is(errD, nand.ErrSparsePage) {
			errF = f.ViewAt(lpn, got[:n], 0)
			d.viewAt(lpn, want[:n])
			gotV, wantV, errD = got[:n], want[:n], nil
		}
		if errF != nil || errD != nil || !bytes.Equal(gotV, wantV) {
			tb.Fatalf("lpn %d reads %d bytes (%v); dense reference %d bytes (%v)", lpn, len(gotV), errF, len(wantV), errD)
		}
	}
	for bi := range f.blocks {
		blk := &f.blocks[bi]
		reverse := int32(0)
		for _, lpn := range blk.p2l {
			if lpn != unmapped {
				reverse++
			}
		}
		if blk.valid != holds[bi] || reverse != holds[bi] || d.validCount[bi] != holds[bi] {
			tb.Fatalf("block %d holds %d mapped pages; valid count %d, reverse map %d, dense reference %d", bi, holds[bi], blk.valid, reverse, d.validCount[bi])
		}
		way, b := bi/f.geo.BlocksPerWay, bi%f.geo.BlocksPerWay
		if pooled := slices.Contains(f.freeBlocks[way], b); blk.free != pooled || (blk.free && holds[bi] > 0) {
			tb.Fatalf("block %d: free flag %v, in the pool %v, holding %d mapped pages", bi, blk.free, pooled, holds[bi])
		}
	}
	if held, _, _ := f.flash.Payloads(); held != mapped {
		tb.Fatalf("flash holds %d payloads for %d mapped pages", held, mapped)
	}
	for w := range f.freeBlocks {
		if !slices.Equal(f.freeBlocks[w], d.freeBlocks[w]) || f.active[w] != d.active[w] {
			tb.Fatalf("way %d: pool %v, active %+v; dense reference %v, %+v", w, f.freeBlocks[w], f.active[w], d.freeBlocks[w], d.active[w])
		}
	}
}

// fuzzRun is the four bytes of one FuzzFTL call.
func fuzzRun(kind byte, lpn int, arg byte) []byte {
	return []byte{kind, byte(lpn >> 8), byte(lpn), arg}
}

// FuzzFTL plays random Write, Trim, Read, ReadAt and View calls against the
// FTL and denseFTL, the map in its dense form, in lockstep (see runFTLOps and
// checkAgainstDense). The first seed churns a hot range, dropping cold pages
// in between, until GC has migrated live pages and erased blocks many times
// over, with trims and reads between.
func FuzzFTL(f *testing.F) {
	var churn []byte
	for i := 0; i < 24; i++ {
		churn = slices.Concat(churn, fuzzRun(0, 600*(i%3), 255), fuzzRun(1, 2000+37*i, 3), fuzzRun(2, 97*i, byte(i)),
			fuzzRun(3, 600*(i%3)+i, 0), fuzzRun(4, 1000+i, byte(7*i)), fuzzRun(5, 2900+i, 0))
	}
	if ftl := runFTLOps(f, churn); ftl.Stats().GCWrites.Value() == 0 || ftl.flash.Stats().BlockErases.Value() < 20 {
		f.Fatalf("the churn seed migrated %d pages and erased %d blocks; it must do both", ftl.Stats().GCWrites.Value(), ftl.flash.Stats().BlockErases.Value())
	}
	f.Add(churn)
	f.Add(fuzzRun(0, 0, 0))
	f.Add(append(fuzzRun(0, 3270, 20), fuzzRun(5, 3275, 0)...))
	f.Fuzz(func(t *testing.T, ops []byte) { runFTLOps(t, ops) })
}
