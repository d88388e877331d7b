package ftl

import (
	"bytes"
	"errors"
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

// GC moves a page's payload byte for byte: the copy keeps what the old page
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
	phys0, phys1 := f.l2p[0], f.l2p[1]
	for round := 0; round < 2; round++ {
		for lpn := 2; lpn < 16; lpn++ {
			write(lpn, []byte{byte(lpn)})
		}
	}
	for lpn := 16; f.l2p[0] == phys0 || f.l2p[1] == phys1; lpn++ {
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
