package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"bandslim/internal/fault"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

func testArray(t *testing.T) *Array {
	t.Helper()
	geo := Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 4, PagesPerBlock: 8, PageSize: 16 * 1024}
	a, err := New(geo, DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pageOf is the address of page i of block b.
func pageOf(b BlockAddr, i int) PageAddr {
	return PageAddr{Channel: b.Channel, Way: b.Way, Block: b.Block, Page: i}
}

// isErased reports whether page p is in the erased state.
func isErased(a *Array, p PageAddr) bool {
	blk, err := a.locate(p)
	return err == nil && blk.state(p.Page) == pageErased
}

// failPrograms makes every n-th program from now on fail with a media fault.
func failPrograms(a *Array, n int) {
	a.SetInjector(fault.NewInjector(&fault.Plan{Rules: []fault.Rule{{Site: fault.SiteNandProgram, Effect: fault.EffectMedia, Every: n}}}, 0))
}

func TestGeometryMath(t *testing.T) {
	g := DefaultGeometry()
	if g.Ways() != 32 {
		t.Fatalf("Ways = %d", g.Ways())
	}
	if g.Blocks() != 32*256 {
		t.Fatalf("Blocks = %d", g.Blocks())
	}
	if g.Pages() != 32*256*256 {
		t.Fatalf("Pages = %d", g.Pages())
	}
	if g.CapacityBytes() != int64(g.Pages())*16*1024 {
		t.Fatalf("CapacityBytes = %d", g.CapacityBytes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := Geometry{Channels: 0, WaysPerChannel: 1, BlocksPerWay: 1, PagesPerBlock: 1, PageSize: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-channel geometry validated")
	}
	if _, err := New(bad, DefaultLatency(), sim.NewClock()); err == nil {
		t.Fatal("New accepted invalid geometry")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := testArray(t)
	p := PageAddr{Channel: 1, Way: 1, Block: 2, Page: 3}
	data := bytes.Repeat([]byte{0xAB}, 100)
	end, err := a.Program(0, p, data)
	if err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(a.lat.Prog) {
		t.Fatalf("program completed at %v, want %v", end, a.lat.Prog)
	}
	got, _, err := a.Read(end, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], data) {
		t.Fatal("read-back mismatch")
	}
	// Rest of the page reads as zeros.
	for _, b := range got[100:] {
		if b != 0 {
			t.Fatal("page tail not zero-filled")
		}
	}
}

func TestProgramRejectsOverwrite(t *testing.T) {
	a := testArray(t)
	p := PageAddr{}
	if _, err := a.Program(0, p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(0, p, []byte{2}); !errors.Is(err, ErrNotErased) {
		t.Fatalf("overwrite err = %v, want ErrNotErased", err)
	}
}

func TestProgramRejectsOversized(t *testing.T) {
	a := testArray(t)
	if _, err := a.Program(0, PageAddr{}, make([]byte, 16*1024+1)); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestBadAddresses(t *testing.T) {
	a := testArray(t)
	bads := []PageAddr{
		{Channel: -1}, {Channel: 2}, {Way: 2}, {Block: 4}, {Page: 8},
	}
	for _, p := range bads {
		if _, err := a.Program(0, p, nil); !errors.Is(err, ErrBadAddr) {
			t.Errorf("Program(%v) err = %v, want ErrBadAddr", p, err)
		}
		if _, _, err := a.Read(0, p); !errors.Is(err, ErrBadAddr) {
			t.Errorf("Read(%v) err = %v, want ErrBadAddr", p, err)
		}
		if _, err := a.View(p); !errors.Is(err, ErrBadAddr) {
			t.Errorf("View(%v) err = %v, want ErrBadAddr", p, err)
		}
	}
	if _, err := a.Erase(0, BlockAddr{Block: 99}); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("Erase err = %v", err)
	}
	if _, err := a.EraseCount(BlockAddr{Channel: 9}); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("EraseCount err = %v", err)
	}
}

func TestEraseResetsPagesAndWear(t *testing.T) {
	a := testArray(t)
	b := BlockAddr{Channel: 0, Way: 1, Block: 2}
	for i := 0; i < 3; i++ {
		if _, err := a.Program(0, pageOf(b, i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Erase(0, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !isErased(a, pageOf(b, i)) {
			t.Fatalf("page %d not erased", i)
		}
	}
	if n, _ := a.EraseCount(b); n != 1 {
		t.Fatalf("EraseCount = %d", n)
	}
	if a.MaxWear() != 1 {
		t.Fatalf("MaxWear = %d", a.MaxWear())
	}
	// MaxWear is the highest count, not the last or the sum: another block
	// (never programmed) erased twice leads, and a third erased once does
	// not take the lead from it.
	other, third := BlockAddr{Channel: 1, Way: 0, Block: 3}, BlockAddr{Channel: 1, Way: 1, Block: 0}
	for _, e := range []BlockAddr{other, other, third} {
		if _, err := a.Erase(0, e); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := a.EraseCount(other); n != 2 || a.MaxWear() != 2 {
		t.Fatalf("after erasing %v twice: EraseCount = %d, MaxWear = %d, want 2 and 2", other, n, a.MaxWear())
	}
	for i := 0; i < 8; i++ {
		if !isErased(a, pageOf(other, i)) {
			t.Fatalf("page %d of a never-programmed block not erased after Erase", i)
		}
	}
	// Reprogramming after erase works.
	if _, err := a.Program(0, pageOf(b, 0), []byte{7}); err != nil {
		t.Fatal(err)
	}
}

func TestReadErasedPageIsZeros(t *testing.T) {
	a := testArray(t)
	got, _, err := a.Read(0, PageAddr{Page: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("erased page read non-zero")
		}
	}
}

func TestWayParallelismAndSerialization(t *testing.T) {
	a := testArray(t)
	prog := a.lat.Prog
	// Two programs to the same way serialize.
	end1, _ := a.Program(0, PageAddr{Block: 0, Page: 0}, []byte{1})
	end2, _ := a.Program(0, PageAddr{Block: 0, Page: 1}, []byte{2})
	if end1 != sim.Time(prog) || end2 != sim.Time(2*prog) {
		t.Fatalf("same-way programs ended at %v, %v", end1, end2)
	}
	// A program to a different way proceeds in parallel.
	end3, _ := a.Program(0, PageAddr{Channel: 1, Block: 0, Page: 0}, []byte{3})
	if end3 != sim.Time(prog) {
		t.Fatalf("cross-way program ended at %v, want %v", end3, prog)
	}
	// The next program on the first way queues behind the second.
	if end4, _ := a.Program(0, PageAddr{Block: 0, Page: 2}, []byte{4}); end4 != end2.Add(prog) {
		t.Fatalf("third same-way program ended at %v, want %v", end4, end2.Add(prog))
	}
}

func TestStatsAccounting(t *testing.T) {
	a := testArray(t)
	rec := trace.NewRecorder(16)
	a.SetTracer(rec)
	a.Program(0, PageAddr{}, []byte{1})
	a.Read(0, PageAddr{})
	a.Erase(0, BlockAddr{Block: 1})
	s := a.Stats()
	if s.PageWrites.Value() != 1 || s.PageReads.Value() != 1 || s.BlockErases.Value() != 1 {
		t.Fatalf("stats = %d/%d/%d", s.PageWrites.Value(), s.PageReads.Value(), s.BlockErases.Value())
	}
	// NAND moves whole pages regardless of payload size.
	for _, ev := range rec.Events() {
		if ev.Name != trace.EvErase && ev.Bytes != 16*1024 {
			t.Fatalf("%s event moved %d bytes, want a whole page", ev.Name, ev.Bytes)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	a := testArray(t)
	failPrograms(a, 2)
	if _, err := a.Program(0, PageAddr{Page: 0}, []byte{1}); err != nil {
		t.Fatalf("first program failed: %v", err)
	}
	if _, err := a.Program(0, PageAddr{Page: 1}, []byte{1}); !errors.Is(err, ErrIOFault) {
		t.Fatalf("second program err = %v, want ErrIOFault", err)
	}
	// Faulted page stays erased and can be retried at another address.
	if !isErased(a, PageAddr{Page: 1}) {
		t.Fatal("faulted page left programmed")
	}
}

func TestWayUtilization(t *testing.T) {
	a := testArray(t)
	end, _ := a.Program(0, PageAddr{}, []byte{1})
	if u := a.ways[0].Utilization(end); u != 1.0 {
		t.Fatalf("way0 utilization = %v", u)
	}
	if u := a.ways[1].Utilization(end); u != 0 {
		t.Fatalf("way1 utilization = %v", u)
	}
}

// Property: data written to distinct pages is returned intact for each page
// (no cross-page aliasing), and the data stored is a copy (caller mutation
// after Program does not corrupt flash contents).
func TestProgramIsolationProperty(t *testing.T) {
	f := func(vals []byte) bool {
		a := testArray(t)
		n := len(vals)
		if n > 8 {
			n = 8
		}
		bufs := make([][]byte, n)
		for i := 0; i < n; i++ {
			buf := []byte{vals[i], byte(i)}
			bufs[i] = buf
			if _, err := a.Program(0, PageAddr{Page: i}, buf); err != nil {
				return false
			}
			buf[0] ^= 0xFF // mutate after program; flash must keep the copy
		}
		for i := 0; i < n; i++ {
			got, _, err := a.Read(0, PageAddr{Page: i})
			if err != nil {
				return false
			}
			if got[0] != vals[i]^0xFF^0xFF || got[1] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fullPage is a page-sized image of b, one that keeps every byte.
func fullPage(a *Array, b byte) []byte { return bytes.Repeat([]byte{b}, a.Geometry().PageSize) }

// Read lends the stored bytes instead of copying them: same backing array on
// every read, exactly the bytes written (the page's tail reads as zero), and
// one shared full-page zero image for everything erased.
func TestReadReturnsView(t *testing.T) {
	a := testArray(t)
	p := PageAddr{Block: 1, Page: 2}
	if _, err := a.Program(0, p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v1, _, err1 := a.Read(0, p)
	v2, _, err2 := a.Read(0, p)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(v1, []byte{1, 2, 3}) || &v1[0] != &v2[0] {
		t.Fatalf("two reads of one page: %v at %p and %v at %p, want one view of the 3 bytes written", v1, &v1[0], v2, &v2[0])
	}
	if n, err := a.Extent(p); err != nil || n != len(v1) {
		t.Fatalf("Extent = %d, %v; want the view's length %d", n, err, len(v1))
	}
	z1, _, _ := a.Read(0, PageAddr{Page: 7})
	z2, _, _ := a.Read(0, PageAddr{Channel: 1, Page: 1})
	if len(z1) != a.Geometry().PageSize || &z1[0] != &z2[0] || &z1[0] != &a.ZeroPage()[0] {
		t.Fatal("erased pages do not share the zero page")
	}
	if !bytes.Equal(z1, make([]byte, len(z1))) {
		t.Fatal("zero page is not zero")
	}
}

// Program keeps each whole 4 KiB sector up to a zero tail of 64 bytes or
// more and drops the tail; a page so stored with a gap has no view (Read and
// View refuse it uncharged) and is read by range, zeros in the gaps, charged
// as one page read.
func TestProgramKeepsSectorPrefixes(t *testing.T) {
	a := testArray(t)
	page := make([]byte, a.Geometry().PageSize)
	copy(page[0:], bytes.Repeat([]byte{1}, 100))           // sector 0: 100 bytes, then 3996 zeros
	copy(page[sectorSize:], bytes.Repeat([]byte{2}, 4033)) // sector 1: a 63-byte zero tail stays
	copy(page[3*sectorSize:], []byte{3})                   // sector 2 empty, sector 3: one byte
	p := PageAddr{Way: 1, Page: 1}
	free, err := a.Program(0, p, page)
	if err != nil {
		t.Fatal(err)
	}
	if held, _, stored := a.Payloads(); held != 1 || stored != 100+sectorSize+1 {
		t.Fatalf("payloads: %d held, %d bytes stored; want 1 and %d", held, stored, 100+sectorSize+1)
	}
	if n, _ := a.Extent(p); n != 3*sectorSize+1 {
		t.Fatalf("Extent = %d, want %d", n, 3*sectorSize+1)
	}
	if _, _, err := a.Read(0, p); !errors.Is(err, ErrSparsePage) {
		t.Fatalf("Read of a page with gaps: %v, want ErrSparsePage", err)
	}
	_, err = a.View(p)
	if !errors.Is(err, ErrSparsePage) {
		t.Fatalf("View of a page with gaps: %v, want ErrSparsePage", err)
	}
	if want := ErrSparsePage.Error() + ": " + p.String(); err.Error() != want {
		t.Fatalf("View's error reads %q, want %q", err, want)
	}
	if n := a.Stats().PageReads.Value(); n != 0 {
		t.Fatalf("refused reads charged %d flash reads", n)
	}
	got := make([]byte, len(page))
	for i := range got {
		got[i] = 0xEE // ReadAt must overwrite the gaps too
	}
	end, err := a.ReadAt(0, p, got, 0)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("ReadAt of the whole page: %v, equal %v", err, bytes.Equal(got, page))
	}
	if end != free.Add(a.lat.Read) || a.Stats().PageReads.Value() != 1 {
		t.Fatalf("ReadAt ended at %v after %d reads; want one page read", end, a.Stats().PageReads.Value())
	}
	part := make([]byte, 200)
	if err := a.ViewAt(p, part, sectorSize-100); err != nil || !bytes.Equal(part, page[sectorSize-100:sectorSize+100]) {
		t.Fatalf("ViewAt across a gap: %v", err)
	}
	if err := a.ViewAt(p, part, len(page)-100); err == nil {
		t.Fatal("ViewAt past the end of the page accepted")
	}
	// A page that ends inside a sector keeps all of it, zero tail included:
	// the tail is not at a 4 KiB boundary.
	short := append(bytes.Repeat([]byte{4}, 10), make([]byte, 500)...)
	if _, err := a.Program(0, PageAddr{Way: 1, Page: 2}, short); err != nil {
		t.Fatal(err)
	}
	if v, err := a.View(PageAddr{Way: 1, Page: 2}); err != nil || !bytes.Equal(v, short) {
		t.Fatalf("View of a short page: %d bytes, %v; want the %d bytes written", len(v), err, len(short))
	}
	// A page a few bytes short of full leaves no room for the sector table,
	// so it is kept whole, zero-padded: a full-page buffer like any other.
	nearly := bytes.Repeat([]byte{5}, a.Geometry().PageSize-3)
	_, _, before := a.Payloads()
	if _, err := a.Program(0, PageAddr{Way: 1, Page: 3}, nearly); err != nil {
		t.Fatal(err)
	}
	v, err := a.View(PageAddr{Way: 1, Page: 3})
	if _, _, after := a.Payloads(); err != nil || len(v) != a.Geometry().PageSize || after-before != int64(len(v)) ||
		!bytes.Equal(v[:len(nearly)], nearly) || !bytes.Equal(v[len(nearly):], make([]byte, 3)) {
		t.Fatalf("View of a nearly full page: %d bytes, %v; want the page, zero-padded", len(v), err)
	}
}

// View answers what Read answers — the same view of a programmed page, the
// zero page, ErrSparsePage, ErrDiscarded, a bad address — and ViewAt what
// ReadAt answers, but neither is a flash operation: with every read set to
// fault and a tracer attached, they count nothing, occupy no way, emit
// nothing and are not fault sites.
func TestViewIsAReadWithoutTheOperation(t *testing.T) {
	a := testArray(t)
	p := PageAddr{Way: 1, Block: 2, Page: 3}
	if _, err := a.Program(0, p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sparse := PageAddr{Way: 1, Block: 2, Page: 4}
	img := make([]byte, 2*sectorSize)
	img[0], img[sectorSize] = 5, 6
	if _, err := a.Program(0, sparse, img); err != nil {
		t.Fatal(err)
	}
	read, _, err := a.Read(0, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(16)
	a.SetTracer(rec)
	a.SetInjector(fault.NewInjector(&fault.Plan{Rules: []fault.Rule{{Site: fault.SiteNandRead, Effect: fault.EffectMedia, Nth: 1}}}, 0))
	before, busy := *a.Stats(), a.ways[a.wayIndex(0, 1)]

	view, err := a.View(p)
	if err != nil || len(view) != len(read) || &view[0] != &read[0] {
		t.Fatalf("View of a programmed page: %d bytes, err %v; want Read's view", len(view), err)
	}
	if zero, err := a.View(PageAddr{Page: 7}); err != nil || &zero[0] != &a.ZeroPage()[0] {
		t.Fatalf("View of an erased page: err %v; want the zero page", err)
	}
	if _, err := a.View(sparse); !errors.Is(err, ErrSparsePage) {
		t.Fatalf("View of a page with gaps: %v, want ErrSparsePage", err)
	}
	got := make([]byte, len(img))
	if err := a.ViewAt(sparse, got, 0); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("ViewAt of a page with gaps: %v", err)
	}
	if _, err := a.View(PageAddr{Channel: 9}); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("View of a bad address: %v", err)
	}
	if err := a.Discard(p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.View(p); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("View of a discarded page: %v, want ErrDiscarded", err)
	}
	if err := a.ViewAt(p, got[:1], 0); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("ViewAt of a discarded page: %v, want ErrDiscarded", err)
	}
	if *a.Stats() != before || a.ways[a.wayIndex(0, 1)] != busy || rec.Len() != 0 {
		t.Fatalf("View left a trace: stats %+v (were %+v), way %+v (was %+v), %d events",
			*a.Stats(), before, a.ways[a.wayIndex(0, 1)], busy, rec.Len())
	}
	// The first read's fault is still armed: no View consumed it.
	if _, _, err := a.Read(0, PageAddr{Page: 7}); !errors.Is(err, ErrIOFault) {
		t.Fatalf("first Read after the Views: %v, want the injected fault", err)
	}
}

// Discard ends a payload's life at once: the bytes are poisoned, the page
// reads as ErrDiscarded (never as zeros or old data) and still needs an
// erase, and a view taken earlier shows the poison. A full-page buffer goes
// to the free list for the next Program of more than half a page; a small
// payload's slab chunk goes back to its size class, where the next payload
// of that class takes it.
func TestDiscardReleasesPayload(t *testing.T) {
	a := testArray(t)
	p := PageAddr{Way: 1, Block: 3, Page: 4}
	if _, err := a.Program(0, p, fullPage(a, 7)); err != nil {
		t.Fatal(err)
	}
	view, _, _ := a.Read(0, p)
	reads := a.Stats().PageReads.Value()
	if err := a.Discard(p); err != nil {
		t.Fatal(err)
	}
	if held, spare, stored := a.Payloads(); held != 0 || spare != 1 || stored != 0 {
		t.Fatalf("after Discard: %d held, %d spare, %d bytes stored; want 0, 1, 0", held, spare, stored)
	}
	if _, _, err := a.Read(0, p); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("read of a discarded page: %v, want ErrDiscarded", err)
	}
	if _, err := a.ReadAt(0, p, make([]byte, 8), 0); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("ReadAt of a discarded page: %v, want ErrDiscarded", err)
	}
	if a.Stats().PageReads.Value() != reads {
		t.Fatal("a refused read was charged as a flash operation")
	}
	for i, b := range view {
		if b != poison {
			t.Fatalf("stale view byte %d = %#x, want poison", i, b)
		}
	}
	if isErased(a, p) {
		t.Fatal("discarded page reports erased")
	}
	if _, err := a.Program(0, p, []byte{1}); !errors.Is(err, ErrNotErased) {
		t.Fatalf("program of a discarded page: %v, want ErrNotErased", err)
	}
	// Idempotent, a no-op on erased pages, and address-checked.
	for _, q := range []PageAddr{p, {Page: 1}} {
		if err := a.Discard(q); err != nil {
			t.Fatal(err)
		}
	}
	if held, spare, _ := a.Payloads(); held != 0 || spare != 1 {
		t.Fatalf("after repeated Discard: %d held, %d spare", held, spare)
	}
	if err := a.Discard(PageAddr{Block: 99}); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("Discard out of range: %v", err)
	}
	// A small payload is poisoned too, and its chunk serves the next one.
	small := PageAddr{Page: 2}
	if _, err := a.Program(0, small, bytes.Repeat([]byte{3}, 64)); err != nil {
		t.Fatal(err)
	}
	smallView, _, _ := a.Read(0, small)
	a.Discard(small)
	if _, spare, _ := a.Payloads(); spare != 1 || smallView[0] != poison || smallView[63] != poison {
		t.Fatalf("after discarding a small payload: %d spare, view %#x…%#x; want 1 and poison", spare, smallView[0], smallView[63])
	}
	if _, err := a.Program(0, PageAddr{Page: 3}, bytes.Repeat([]byte{4}, 60)); err != nil {
		t.Fatal(err)
	}
	if smallView[0] != 4 || smallView[59] != 4 {
		t.Fatalf("a payload of the same class did not take the released chunk: stale view %#x…%#x", smallView[0], smallView[59])
	}
	a.Discard(PageAddr{Page: 3})
	// Erase makes it programmable again, from the released buffer, and the
	// poison does not leak into the new page's zero tail.
	if _, err := a.Erase(0, BlockAddr{Way: 1, Block: 3}); err != nil {
		t.Fatal(err)
	}
	half := bytes.Repeat([]byte{9}, a.Geometry().PageSize/2+1)
	if _, err := a.Program(0, p, half); err != nil {
		t.Fatal(err)
	}
	if held, spare, _ := a.Payloads(); held != 1 || spare != 0 {
		t.Fatalf("after reprogram: %d held, %d spare; want 1, 0", held, spare)
	}
	got := make([]byte, a.Geometry().PageSize)
	if _, err := a.ReadAt(0, p, got, 0); err != nil || !bytes.Equal(got[:len(half)], half) || !bytes.Equal(got[len(half):], make([]byte, len(got)-len(half))) {
		t.Fatalf("reused payload not zero-padded: %v", err)
	}
}

// Erase returns whatever payloads the block still held — exactly those — and
// the free list never grows past one block's worth.
func TestEraseReleasesTheRest(t *testing.T) {
	a := testArray(t)
	b := BlockAddr{Channel: 1, Block: 2}
	for i := 0; i < 5; i++ {
		if _, err := a.Program(0, pageOf(b, i), fullPage(a, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	a.Discard(pageOf(b, 0))
	a.Discard(pageOf(b, 3))
	live, _, _ := a.Read(0, pageOf(b, 1))
	if _, err := a.Erase(0, b); err != nil {
		t.Fatal(err)
	}
	if held, spare, stored := a.Payloads(); held != 0 || spare != 5 || stored != 0 {
		t.Fatalf("after Erase: %d held, %d spare, %d bytes stored; want 0, 5, 0", held, spare, stored)
	}
	if live[0] != poison {
		t.Fatal("view of an erased page still shows its data")
	}
	// Two more blocks' worth of payloads die; the list stops at one block.
	for blk := 0; blk < 2; blk++ {
		for i := 0; i < a.Geometry().PagesPerBlock; i++ {
			if _, err := a.Program(0, PageAddr{Block: blk, Page: i}, fullPage(a, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for blk := 0; blk < 2; blk++ {
		if _, err := a.Erase(0, BlockAddr{Block: blk}); err != nil {
			t.Fatal(err)
		}
	}
	if _, spare, _ := a.Payloads(); spare != a.Geometry().PagesPerBlock {
		t.Fatalf("free list holds %d buffers, bound is %d", spare, a.Geometry().PagesPerBlock)
	}
}

// A program that faults stores nothing, so it must not take a buffer either.
func TestFaultedProgramTakesNoPayload(t *testing.T) {
	a := testArray(t)
	a.Program(0, PageAddr{Page: 0}, fullPage(a, 1))
	a.Discard(PageAddr{Page: 0})
	failPrograms(a, 1)
	if _, err := a.Program(0, PageAddr{Page: 1}, fullPage(a, 1)); !errors.Is(err, ErrIOFault) {
		t.Fatalf("err = %v, want ErrIOFault", err)
	}
	if held, spare, stored := a.Payloads(); held != 0 || spare != 1 || stored != 0 {
		t.Fatalf("after a faulted program: %d held, %d spare, %d bytes stored; want 0, 1, 0", held, spare, stored)
	}
}

// Move hands a payload to another page without copying it: the view lent
// before reads the same bytes after, now as the new page's, the old page is
// discarded, the kept bytes stay counted once, and the move is charged,
// counted and traced as a program of the new page.
func TestMoveHandsOverThePayload(t *testing.T) {
	a := testArray(t)
	rec := trace.NewRecorder(16)
	a.SetTracer(rec)
	src, dst := PageAddr{Block: 1, Page: 0}, PageAddr{Channel: 1, Way: 1, Block: 2, Page: 0}
	data := bytes.Repeat([]byte{7}, 5000)
	if _, err := a.Program(0, src, data); err != nil {
		t.Fatal(err)
	}
	lent, err := a.View(src)
	if err != nil {
		t.Fatal(err)
	}
	held, _, stored := a.Payloads()
	writes := a.Stats().PageWrites.Value()
	end, err := a.Move(10, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(10).Add(a.lat.Prog); end != want {
		t.Fatalf("move ended at %v, want a program's %v", end, want)
	}
	moved, err := a.View(dst)
	if err != nil || &moved[0] != &lent[0] || !bytes.Equal(lent, data) {
		t.Fatalf("the moved page's view (%v) is not the payload lent before, reading the same bytes", err)
	}
	if _, err := a.View(src); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("View of the moved-from page: %v, want ErrDiscarded", err)
	}
	if h, _, s := a.Payloads(); h != held || s != stored {
		t.Fatalf("after the move: %d held, %d bytes stored; want %d and %d", h, s, held, stored)
	}
	if got := a.Stats().PageWrites.Value() - writes; got != 1 {
		t.Fatalf("the move counted %d page writes, want 1", got)
	}
	if evs := rec.Events(); len(evs) != 2 || evs[1].Name != trace.EvProgram || evs[1].Start != 10 || evs[1].Arg != int64(a.wayIndex(dst.Channel, dst.Way)) {
		t.Fatalf("trace %+v: want the source's program, then the move's on the destination's way", evs)
	}
	if _, err := a.Move(0, src, PageAddr{Page: 3}); err == nil {
		t.Fatal("a move from a discarded page succeeded")
	}
	if _, err := a.Move(0, dst, dst); !errors.Is(err, ErrNotErased) {
		t.Fatalf("a move onto a programmed page: %v, want ErrNotErased", err)
	}
}

// A move whose program faults leaves the payload with the source page: it
// still reads, through the view lent before, and the destination stays
// erased for no payload; the attempt counts as a faulted program.
func TestFaultedMoveKeepsThePayload(t *testing.T) {
	a := testArray(t)
	src, dst := PageAddr{Page: 0}, PageAddr{Page: 1}
	if _, err := a.Program(0, src, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	lent, _ := a.View(src)
	held, spare, stored := a.Payloads()
	failPrograms(a, 1)
	if _, err := a.Move(0, src, dst); !errors.Is(err, ErrIOFault) {
		t.Fatalf("err = %v, want ErrIOFault", err)
	}
	if got, err := a.View(src); err != nil || &got[0] != &lent[0] || string(got) != "kept" {
		t.Fatalf("the source after a faulted move: %q, %v; want its payload", got, err)
	}
	if !isErased(a, dst) {
		t.Fatal("a faulted move left its destination programmed")
	}
	if h, sp, s := a.Payloads(); h != held || sp != spare || s != stored {
		t.Fatalf("after a faulted move: %d held, %d spare, %d stored; want %d, %d, %d", h, sp, s, held, spare, stored)
	}
	if s := a.Stats(); s.PageWrites.Value() != 2 || s.ProgramFaults.Value() != 1 {
		t.Fatalf("%d page writes, %d program faults; want 2 and 1", s.PageWrites.Value(), s.ProgramFaults.Value())
	}
}

// ProgramSectors takes one end per sector of the page, or none.
func TestProgramSectorsChecksTheEnds(t *testing.T) {
	a := testArray(t)
	if _, err := a.ProgramSectors(0, PageAddr{}, []byte{1}, make([]uint16, 3)); err == nil {
		t.Fatal("three sector ends for a four-sector page were taken")
	}
	if !isErased(a, PageAddr{}) || a.Stats().PageWrites.Value() != 0 {
		t.Fatal("a refused program touched the page")
	}
}
