package pagebuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bandslim/internal/dma"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

// flushRecorder captures flushed pages, and the time each flush was handed
// off at, for inspection. With fail set it fails every flush after the first
// failAfter.
type flushRecorder struct {
	pages     map[int64][]byte
	order     []int64
	at        []sim.Time
	fail      bool
	failAfter int
}

func newRecorder() *flushRecorder {
	return &flushRecorder{pages: make(map[int64][]byte)}
}

func (r *flushRecorder) flush(t sim.Time, pageNo int64, data []byte) (sim.Time, error) {
	if r.fail && len(r.order) >= r.failAfter {
		return t, errFlush
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.pages[pageNo] = cp
	r.order = append(r.order, pageNo)
	r.at = append(r.at, t)
	return t.Add(400 * sim.Microsecond), nil
}

var errFlush = errString("injected flush failure")

type errString string

func (e errString) Error() string { return string(e) }

func newBuf(t *testing.T, policy Policy, maxEntries int) (*Buffer, *flushRecorder) {
	t.Helper()
	rec := newRecorder()
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	b, err := New(Config{PageSize: 16 * 1024, MaxEntries: maxEntries, Policy: policy}, eng, rec.flush)
	if err != nil {
		t.Fatal(err)
	}
	return b, rec
}

func TestConfigValidation(t *testing.T) {
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	bad := []Config{
		{PageSize: 1000, MaxEntries: 4},         // not a 4 KiB multiple
		{PageSize: 0, MaxEntries: 4},            // zero
		{PageSize: 16 * 1024, MaxEntries: 1},    // too few entries
		{PageSize: 3 * 4096 / 2, MaxEntries: 4}, // 6 KiB, not a multiple
		{PageSize: 16 * 1024, MaxEntries: 4, DLTCap: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, eng, nil); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// buffered reads n still-buffered bytes at addr, page by page through
// OpenPage.
func buffered(b *Buffer, addr int64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		pos := addr + int64(len(out))
		p, ok := b.OpenPage(b.pageOf(pos))
		if !ok {
			return nil, fmt.Errorf("byte %d is not buffered", pos)
		}
		in := int(pos % int64(b.cfg.PageSize))
		out = append(out, p[in:min(len(p), in+n-len(out))]...)
	}
	return out, nil
}

func TestPolicyStringsAndParse(t *testing.T) {
	for _, p := range []Policy{PolicyBlock, PolicyAll, PolicySelective, PolicyBackfill} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy parsed")
	}
	if Policy(99).String() != "Policy(99)" {
		t.Fatal("unknown policy String")
	}
}

// Block policy: four 32-byte values fill one 16 KiB entry at 4 KiB stride
// (§2.3 Problem #2) — the 4th placement triggers exactly one flush.
func TestBlockPolicyPageUnitPacking(t *testing.T) {
	b, rec := newBuf(t, PolicyBlock, 8)
	var addrs []int64
	for i := 0; i < 4; i++ {
		addr, _, err := b.PlaceDMA(0, bytes.Repeat([]byte{byte(i + 1)}, 32))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	want := []int64{0, 4096, 8192, 12288}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("placement %d at %d, want %d", i, addrs[i], want[i])
		}
	}
	if len(rec.order) != 1 || rec.order[0] != 0 {
		t.Fatalf("flushes = %v, want [0]", rec.order)
	}
	// The flushed page holds each value at its 4 KiB slot.
	page := rec.pages[0]
	for i := 0; i < 4; i++ {
		if page[i*4096] != byte(i+1) {
			t.Fatalf("slot %d holds %d", i, page[i*4096])
		}
	}
}

// Block policy with a (4K+32)B value: two slots consumed, so only two values
// fit per 16 KiB entry.
func TestBlockPolicyLargeValueConsumesTwoSlots(t *testing.T) {
	b, rec := newBuf(t, PolicyBlock, 8)
	v := make([]byte, 4096+32)
	b.PlaceDMA(0, v)
	addr2, _, _ := b.PlaceDMA(0, v)
	if addr2 != 8192 {
		t.Fatalf("second value at %d, want 8192", addr2)
	}
	if len(rec.order) != 1 {
		t.Fatalf("flushes = %v", rec.order)
	}
}

// All policy: values pack back to back; 512 32-byte values fill one page.
func TestAllPolicyDensePacking(t *testing.T) {
	b, rec := newBuf(t, PolicyAll, 8)
	for i := 0; i < 512; i++ {
		addr, _, err := b.PlacePiggybacked(0, bytes.Repeat([]byte{0xAA}, 32))
		if err != nil {
			t.Fatal(err)
		}
		if addr != int64(i*32) {
			t.Fatalf("placement %d at %d", i, addr)
		}
	}
	if len(rec.order) != 1 {
		t.Fatalf("flushes = %d, want 1 (dense packing)", len(rec.order))
	}
}

// All policy memcpy skipping: a DMA landing exactly on a 4 KiB-aligned WP
// skips the copy; otherwise it pays one.
func TestAllPolicyMemcpySkipOnAlignedWP(t *testing.T) {
	b, _ := newBuf(t, PolicyAll, 8)
	v := make([]byte, 2048)
	b.PlaceDMA(0, v) // WP=0, aligned: skip
	if n := b.eng.Stats().Memcpys.Value(); n != 0 {
		t.Fatalf("aligned DMA placement made %d copies", n)
	}
	b.PlaceDMA(0, v) // WP=2048, unaligned: copy
	if n, d := b.eng.Stats().Memcpys.Value(), b.eng.Stats().MemcpyTime.Value(); n != 1 || d != int64(dma.DefaultMemcpyModel().Cost(2048)) {
		t.Fatalf("unaligned DMA placement: %d copies taking %d ns, want one of 2048 bytes", n, d)
	}
}

// Selective policy (Fig. 7a): piggybacked A,B pack densely; DMA C goes to
// the next boundary; piggybacked D packs right after C (WP jumped past C).
func TestSelectivePolicyFigure7a(t *testing.T) {
	b, _ := newBuf(t, PolicySelective, 8)
	a, _, _ := b.PlacePiggybacked(0, make([]byte, 100))  // A
	bb, _, _ := b.PlacePiggybacked(0, make([]byte, 200)) // B
	copies := b.eng.Stats().Memcpys.Value()
	c, _, _ := b.PlaceDMA(0, make([]byte, 4096+512)) // C (page-unit DMA)
	if b.eng.Stats().Memcpys.Value() != copies {
		t.Fatal("DMA under Selective must not memcpy")
	}
	d, _, _ := b.PlacePiggybacked(0, make([]byte, 50)) // D
	if a != 0 || bb != 100 {
		t.Fatalf("A/B at %d/%d", a, bb)
	}
	if c != 4096 {
		t.Fatalf("C at %d, want 4096 (next boundary after WP=300)", c)
	}
	if d != 4096+4096+512 {
		t.Fatalf("D at %d, want %d (right after C)", d, 4096+4096+512)
	}
}

// Backfill policy (Fig. 7b): D packs at the original WP, filling the gap
// before C; the DLT records C.
func TestBackfillPolicyFigure7b(t *testing.T) {
	b, _ := newBuf(t, PolicyBackfill, 8)
	b.PlacePiggybacked(0, make([]byte, 100)) // A
	b.PlacePiggybacked(0, make([]byte, 200)) // B -> WP=300
	c, _, _ := b.PlaceDMA(0, make([]byte, 4096+512))
	if c != 4096 {
		t.Fatalf("C at %d, want 4096", c)
	}
	if b.WP() != 300 {
		t.Fatalf("WP moved to %d; backfilling must leave it at 300", b.WP())
	}
	d, _, _ := b.PlacePiggybacked(0, make([]byte, 50))
	if d != 300 {
		t.Fatalf("D at %d, want 300 (backfilled)", d)
	}
}

// Backfill: when the WP reaches a DLT region it jumps over the DMA value and
// packs immediately after it, consuming the entry.
func TestBackfillWPJumpsOverDMARegion(t *testing.T) {
	b, _ := newBuf(t, PolicyBackfill, 8)
	b.PlaceDMA(0, make([]byte, 2048)) // at 0, DLT{0,2048}, WP=0
	addr, _, err := b.PlacePiggybacked(0, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if addr != 2048 {
		t.Fatalf("piggyback at %d, want 2048 (after DMA value)", addr)
	}
	if b.Stats().BackfillJumps.Value() != 1 {
		t.Fatal("jump not recorded")
	}
	// A second piggyback continues densely.
	addr2, _, _ := b.PlacePiggybacked(0, make([]byte, 100))
	if addr2 != 2148 {
		t.Fatalf("second piggyback at %d, want 2148", addr2)
	}
}

// Backfill: a small value that does not fit a gap skips it entirely
// (fragmentation the paper accepts).
func TestBackfillGapTooSmallIsSkipped(t *testing.T) {
	b, _ := newBuf(t, PolicyBackfill, 8)
	b.PlacePiggybacked(0, make([]byte, 4000)) // WP=4000
	b.PlaceDMA(0, make([]byte, 2048))         // at 4096; gap [4000,4096)
	addr, _, _ := b.PlacePiggybacked(0, make([]byte, 200))
	// 200 > 96-byte gap: WP jumps to 4096+2048.
	if addr != 4096+2048 {
		t.Fatalf("placement at %d, want %d", addr, 4096+2048)
	}
}

// Backfill consumes multiple DLT entries if the value collides with several
// regions in sequence.
func TestBackfillMultipleJumps(t *testing.T) {
	b, _ := newBuf(t, PolicyBackfill, 8)
	b.PlaceDMA(0, make([]byte, 4096)) // [0,4096), DLT
	b.PlaceDMA(0, make([]byte, 4096)) // [4096,8192), DLT
	addr, _, _ := b.PlacePiggybacked(0, make([]byte, 64))
	if addr != 8192 {
		t.Fatalf("placement at %d, want 8192", addr)
	}
	if b.Stats().BackfillJumps.Value() != 2 {
		t.Fatalf("jumps = %d, want 2", b.Stats().BackfillJumps.Value())
	}
}

// NAND write efficiency comparison on a small-value stream: All/Backfill use
// ~512x fewer flushes than Block for 32-byte values.
func TestPackingReducesFlushesVsBlock(t *testing.T) {
	count := 2048
	flushes := map[Policy]int64{}
	for _, p := range []Policy{PolicyBlock, PolicyAll, PolicyBackfill} {
		b, _ := newBuf(t, p, 8)
		for i := 0; i < count; i++ {
			if _, _, err := b.PlacePiggybacked(0, make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		flushes[p] = b.Stats().Flushes.Value()
	}
	if flushes[PolicyBlock] != int64(count/4) {
		t.Fatalf("Block flushes = %d, want %d", flushes[PolicyBlock], count/4)
	}
	if flushes[PolicyAll] != int64(count/512) {
		t.Fatalf("All flushes = %d, want %d", flushes[PolicyAll], count/512)
	}
	if flushes[PolicyBackfill] != flushes[PolicyAll] {
		t.Fatalf("Backfill flushes = %d, want %d (no DMA traffic: identical to All)",
			flushes[PolicyBackfill], flushes[PolicyAll])
	}
	reduction := 1 - float64(flushes[PolicyAll])/float64(flushes[PolicyBlock])
	if reduction < 0.98 {
		t.Fatalf("flush reduction %.3f < 0.98 (paper: 98.1%%)", reduction)
	}
}

// Values spanning NAND page boundaries are written and read back intact.
func TestValueSpanningPages(t *testing.T) {
	b, rec := newBuf(t, PolicyAll, 8)
	v1 := bytes.Repeat([]byte{1}, 16000)
	v2 := bytes.Repeat([]byte{2}, 1000) // crosses the 16 KiB boundary
	b.PlacePiggybacked(0, v1)
	addr2, _, _ := b.PlacePiggybacked(0, v2)
	if addr2 != 16000 {
		t.Fatalf("v2 at %d", addr2)
	}
	// Page 0 flushed; v2's head is in it, tail still buffered.
	if len(rec.order) != 1 {
		t.Fatalf("flushes = %v", rec.order)
	}
	head := rec.pages[0][16000:]
	for _, x := range head {
		if x != 2 {
			t.Fatal("v2 head not in flushed page")
		}
	}
	tail, err := buffered(b, 16384, 616)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range tail {
		if x != 2 {
			t.Fatal("v2 tail corrupted in buffer")
		}
	}
}

func TestOpenPageAccessor(t *testing.T) {
	b, _ := newBuf(t, PolicyAll, 8)
	b.PlacePiggybacked(0, bytes.Repeat([]byte{9}, 100))
	p, ok := b.OpenPage(0)
	if !ok || p[0] != 9 {
		t.Fatal("OpenPage(0) wrong")
	}
	if _, ok := b.OpenPage(5); ok {
		t.Fatal("far-future page reported open")
	}
	b.PlacePiggybacked(0, make([]byte, 17000)) // flush page 0
	if _, ok := b.OpenPage(0); ok {
		t.Fatal("flushed page reported open")
	}
}

// The entry cap forces the oldest page out even when backfilling gaps remain
// (the W(C) fragmentation of Fig. 12).
func TestBackfillForcedFlushUnderEntryCap(t *testing.T) {
	// Tiny entry cap (2 open pages) but a roomy DLT, so the entry cap is
	// what forces pages out.
	rec := newRecorder()
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	b, err := New(Config{PageSize: 16 * 1024, MaxEntries: 2, Policy: PolicyBackfill, DLTCap: 64}, eng, rec.flush)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, 2048)
	// Each DMA value occupies a fresh 4 KiB slot; gaps are never filled.
	for i := 0; i < 20; i++ {
		if _, _, err := b.PlaceDMA(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().ForcedFlushes.Value() == 0 {
		t.Fatal("no forced flushes under entry cap")
	}
	if len(rec.order) == 0 {
		t.Fatal("nothing flushed")
	}
	// WP must have been pushed past flushed pages.
	if b.WP() < b.FlushedBelow() {
		t.Fatalf("WP %d behind flushed boundary %d", b.WP(), b.FlushedBelow())
	}
}

// A full DLT retires its oldest entry rather than failing: the WP gives up
// the gap before that region and moves past its end, so a piggybacked value
// placed next lands after the region, never on it.
func TestBackfillDLTOverflowRetiresOldest(t *testing.T) {
	rec := newRecorder()
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	b, err := New(Config{PageSize: 16 * 1024, MaxEntries: 64, Policy: PolicyBackfill, DLTCap: 2}, eng, rec.flush)
	if err != nil {
		t.Fatal(err)
	}
	region := bytes.Repeat([]byte{0xAA}, 2048)
	// Two regions fill the table; the third retires the oldest, [0, 2048).
	for _, want := range []int64{0, 4096, 8192} {
		if addr, _, err := b.PlaceDMA(0, region); err != nil || addr != want {
			t.Fatalf("DMA region at %d (err %v), want %d", addr, err, want)
		}
	}
	if b.WP() != 2048 {
		t.Fatalf("WP %d after the full DLT retired [0, 2048), want 2048", b.WP())
	}
	if addr, _, err := b.PlacePiggybacked(0, make([]byte, 100)); err != nil || addr != 2048 {
		t.Fatalf("piggybacked value at %d (err %v), want 2048, just past the retired region", addr, err)
	}
	if got, err := buffered(b, 0, len(region)); err != nil || !bytes.Equal(got, region) {
		t.Fatalf("retired region overwritten (err %v)", err)
	}
	// Push fails on a full table, so more placements through two entries
	// succeed only if every overflow retires one.
	for i := 0; i < 10; i++ {
		if _, _, err := b.PlaceDMA(0, region); err != nil {
			t.Fatal(err)
		}
	}
}

// A placement that retires several pages at once returns when the last of
// them was handed off: each page waits for the program before it, so that is
// the latest handoff, whether the pages were complete (the WP passed them) or
// forced out by the entry cap.
func TestRetiredPagesReturnLatestHandoff(t *testing.T) {
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	for _, c := range []struct {
		name   string
		policy Policy
		place  func(b *Buffer) (sim.Time, error)
		forced bool
	}{
		{"complete pages", PolicyAll, func(b *Buffer) (sim.Time, error) {
			_, end, err := b.PlacePiggybacked(0, make([]byte, 2*16*1024+100))
			return end, err
		}, false},
		{"entry cap", PolicyBackfill, func(b *Buffer) (sim.Time, error) {
			_, end, err := b.PlaceDMA(0, make([]byte, 3*16*1024+100))
			return end, err
		}, true},
	} {
		rec := newRecorder()
		b, err := New(Config{PageSize: 16 * 1024, MaxEntries: 2, Policy: c.policy}, eng, rec.flush)
		if err != nil {
			t.Fatal(err)
		}
		end, err := c.place(b)
		if err != nil {
			t.Fatal(err)
		}
		if forced := b.Stats().ForcedFlushes.Value() > 0; len(rec.at) != 2 || forced != c.forced {
			t.Fatalf("%s: %d flushes (forced: %v), want 2 (forced: %v)", c.name, len(rec.at), forced, c.forced)
		}
		if rec.at[1] <= rec.at[0] || end != rec.at[1] {
			t.Fatalf("%s: flushes handed off at %v, placement returned %v: want the later", c.name, rec.at, end)
		}
	}
}

func TestFlushAll(t *testing.T) {
	b, rec := newBuf(t, PolicyBackfill, 8)
	b.PlacePiggybacked(0, make([]byte, 100))
	b.PlaceDMA(0, make([]byte, 2048))
	end, err := b.FlushAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("FlushAll took no time despite flushing")
	}
	if b.OpenPages() != 0 {
		t.Fatalf("OpenPages = %d after FlushAll", b.OpenPages())
	}
	if len(rec.order) == 0 {
		t.Fatal("nothing flushed")
	}
	// Next placement starts on the fresh page boundary.
	addr, _, _ := b.PlacePiggybacked(0, make([]byte, 10))
	if addr != b.FlushedBelow() {
		t.Fatalf("post-flush placement at %d, want %d", addr, b.FlushedBelow())
	}
	// FlushAll on an empty buffer is a no-op.
	before := b.Stats().Flushes.Value()
	b2, _ := newBuf(t, PolicyAll, 8)
	if _, err := b2.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	_ = before
}

// FlushAll retires every open page, however many, and returns when the last
// program completes; one that fails part-way returns when the last page it
// did flush was handed off.
func TestFlushAllRetiresEveryPage(t *testing.T) {
	const program = 400 * sim.Microsecond // flushRecorder's
	b, rec := newBuf(t, PolicyBackfill, 8)
	b.PlaceDMA(0, make([]byte, 3*16*1024)) // the WP stays at 0: three pages open, none complete
	end, err := b.FlushAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.at) != 3 || b.OpenPages() != 0 || end != rec.at[2].Add(program) {
		t.Fatalf("FlushAll: %d flushes handed off at %v, %d pages left open, returned %v: want 3, none, the last program's end",
			len(rec.at), rec.at, b.OpenPages(), end)
	}

	b, rec = newBuf(t, PolicyBackfill, 8)
	rec.fail, rec.failAfter = true, 2
	b.PlaceDMA(0, make([]byte, 3*16*1024))
	end, err = b.FlushAll(0)
	if err == nil || len(rec.at) != 2 || end != rec.at[1] {
		t.Fatalf("FlushAll failing at the third page: err %v, flushes handed off at %v, returned %v: want the second handoff", err, rec.at, end)
	}
}

func TestFlushFailurePropagates(t *testing.T) {
	b, rec := newBuf(t, PolicyAll, 8)
	rec.fail = true
	_, _, err := b.PlacePiggybacked(0, make([]byte, 17000))
	if err == nil {
		t.Fatal("flush failure swallowed")
	}
}

func TestEmptyPlacementsAreNoOps(t *testing.T) {
	b, _ := newBuf(t, PolicyAll, 8)
	if _, end, err := b.PlacePiggybacked(5, nil); err != nil || end != 5 {
		t.Fatal("empty piggyback not a no-op")
	}
	if _, end, err := b.PlaceDMA(5, nil); err != nil || end != 5 {
		t.Fatal("empty DMA not a no-op")
	}
}

func TestUtilization(t *testing.T) {
	b, _ := newBuf(t, PolicyBlock, 8)
	if b.Utilization() != 0 {
		t.Fatal("empty buffer has nonzero utilization")
	}
	for i := 0; i < 4; i++ {
		b.PlaceDMA(0, make([]byte, 32))
	}
	// One 16 KiB flush carrying 128 payload bytes.
	want := 128.0 / (16 * 1024)
	if got := b.Utilization(); got != want {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
}

// Property: under every policy and any interleaving of piggybacked and DMA
// placements, no two value placements ever overlap, and each placement's
// bytes read back intact immediately after being placed. This is the
// buffer's core correctness invariant — backfilling must thread small values
// through the gaps without touching DMA'd data.
func TestNoOverlappingPlacementsProperty(t *testing.T) {
	type span struct{ start, end int64 }
	policies := []Policy{PolicyBlock, PolicyAll, PolicySelective, PolicyBackfill}
	f := func(ops []uint16) bool {
		for _, p := range policies {
			b, _ := newBuf(t, p, 512)
			var spans []span
			for i, op := range ops {
				if i > 40 {
					break
				}
				size := int(op)%4500 + 1
				v := bytes.Repeat([]byte{byte(i + 1)}, size)
				var addr int64
				var err error
				if op%3 == 0 {
					addr, _, err = b.PlaceDMA(0, v)
				} else {
					addr, _, err = b.PlacePiggybacked(0, v)
				}
				if err != nil {
					return false
				}
				ns := span{addr, addr + int64(size)}
				for _, s := range spans {
					if ns.start < s.end && s.start < ns.end {
						t.Logf("policy %v: placement [%d,%d) overlaps [%d,%d)", p, ns.start, ns.end, s.start, s.end)
						return false
					}
				}
				spans = append(spans, ns)
				// Immediate read-back: the placement must be intact
				// (unless already flushed, in which case skip).
				if ns.start >= b.FlushedBelow() {
					got, err := buffered(b, ns.start, size)
					if err != nil || !bytes.Equal(got, v) {
						t.Logf("policy %v: read-back of [%d,%d) failed: %v", p, ns.start, ns.end, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the WP never points into an unconsumed DLT region under
// Backfill (the invariant that makes the O(1) oldest-entry check correct).
func TestBackfillWPDLTInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b, _ := newBuf(t, PolicyBackfill, 16)
		for i, op := range ops {
			if i > 60 {
				break
			}
			size := int(op)%3000 + 1
			var err error
			if op%4 == 0 {
				_, _, err = b.PlaceDMA(0, make([]byte, size))
			} else {
				_, _, err = b.PlacePiggybacked(0, make([]byte, size))
			}
			if err != nil {
				return false
			}
			if b.WP() > b.Frontier() {
				return false
			}
			if b.WP() < b.FlushedBelow() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyTimeChargedForPiggyback(t *testing.T) {
	b, _ := newBuf(t, PolicyAll, 8)
	_, end, err := b.PlacePiggybacked(0, make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("piggyback placement charged no memcpy time")
	}
}

// TestFlushedPagesReused pins the spare-page list: a flushed page comes back
// zeroed, and a steady stream of page-filling placements, each of which
// flushes the page before it, allocates nothing.
func TestFlushedPagesReused(t *testing.T) {
	const pageSize = 16 * 1024
	b, rec := newBuf(t, PolicyAll, 4)
	full := bytes.Repeat([]byte{0xFF}, pageSize)
	for i := 0; i < 4; i++ {
		if _, _, err := b.PlacePiggybacked(0, full); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.spare) == 0 {
		t.Fatal("no flushed page kept for reuse")
	}
	addr, _, err := b.PlacePiggybacked(0, []byte("tail"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	page := rec.pages[addr/pageSize]
	if addr%pageSize != 0 || string(page[:4]) != "tail" || !bytes.Equal(page[4:], make([]byte, pageSize-4)) {
		t.Fatalf("reused page at %d not zeroed past its 4 written bytes", addr)
	}

	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	drop := func(t sim.Time, _ int64, _ []byte) (sim.Time, error) { return t, nil }
	steady, err := New(Config{PageSize: pageSize, MaxEntries: 4, Policy: PolicyAll}, eng, drop)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 100 {
			if _, _, err := steady.PlacePiggybacked(0, full); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("100 page-filling placements in steady state made %.0f allocations, want 0", n)
	}
}

// stored reads n bytes at vLog address addr back from wherever they are: the
// flushed pages below the window, the ring within it.
func stored(b *Buffer, rec *flushRecorder, addr int64, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		pos := addr + int64(len(out))
		page, ok := b.OpenPage(b.pageOf(pos))
		if !ok {
			page = rec.pages[b.pageOf(pos)]
		}
		in := int(pos % int64(b.cfg.PageSize))
		out = append(out, page[in:min(len(page), in+n-len(out))]...)
	}
	return out
}

// The ring is sized for the widest window one placement can open: MaxEntries
// pages plus those a value of ringValueBytes (the driver's MaxValueSize)
// spans past them. Under every policy, at the smallest entry cap and the
// paper's, a window filled by maximum-size DMA values between piggybacked
// ones never makes it regrow, and every value reads back.
func TestRingHoldsMaxValuesInAFullWindow(t *testing.T) {
	for _, entries := range []int{2, 512} {
		for _, pol := range []Policy{PolicyBlock, PolicyAll, PolicySelective, PolicyBackfill} {
			b, rec := newBuf(t, pol, entries)
			size := len(b.ring)
			if want := entries + ringValueBytes/b.cfg.PageSize + 2; size != want {
				t.Fatalf("%v/%d: ring of %d pages, want %d", pol, entries, size, want)
			}
			type placed struct {
				addr int64
				val  []byte
			}
			var vals []placed
			for i := 0; i < entries/2+8; i++ {
				big := bytes.Repeat([]byte{byte(2*i + 1)}, ringValueBytes)
				addr, _, err := b.PlaceDMA(0, big)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, placed{addr, big})
				small := bytes.Repeat([]byte{byte(2*i + 2)}, 100+i)
				if addr, _, err = b.PlacePiggybacked(0, small); err != nil {
					t.Fatal(err)
				}
				vals = append(vals, placed{addr, small})
				if b.openWindow() > int64(entries) || len(b.ring) != size {
					t.Fatalf("%v/%d: window %d pages, ring %d (was %d)", pol, entries, b.openWindow(), len(b.ring), size)
				}
			}
			for i, v := range vals {
				if got := stored(b, rec, v.addr, len(v.val)); !bytes.Equal(got, v.val) {
					t.Fatalf("%v/%d: value %d at %d does not read back", pol, entries, i, v.addr)
				}
			}
		}
	}
}

// A placement reaching past the ring — a value over ringValueBytes — regrows
// it with the open pages in place, and a write below the window is a driver
// bug that panics as before.
func TestRingRegrowsAndRejectsFlushedPages(t *testing.T) {
	b, rec := newBuf(t, PolicyBackfill, 2)
	small := []byte("kept across the regrowth")
	addr, _, err := b.PlacePiggybacked(0, small)
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte{0x5A}, 4*ringValueBytes)
	hugeAddr, _, err := b.PlaceDMA(0, huge)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ring) <= 2+ringValueBytes/b.cfg.PageSize+2 {
		t.Fatalf("ring of %d pages did not regrow", len(b.ring))
	}
	if !bytes.Equal(stored(b, rec, addr, len(small)), small) || !bytes.Equal(stored(b, rec, hugeAddr, len(huge)), huge) {
		t.Fatal("values do not read back after the ring regrew")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a write into a flushed page did not panic")
		}
	}()
	b.writeBytes(0, small)
}

// SectorEnds is a promise the flash relies on: in a page handed to the flush,
// every byte of a sector at or past its recorded end is zero. Random streams
// of piggybacked and DMA values under every policy — backfilled gaps, forced
// flushes of a two-entry window, values spanning pages, a value that regrows
// the ring, values ending in zeros, and pages reused from the spare list —
// keep it for every flushed page, and every value reads back.
func TestSectorEndsBoundWhatFlushesWrite(t *testing.T) {
	const pageSize, sector = 16 * 1024, pcie.MemoryPageSize
	for _, pol := range []Policy{PolicyBlock, PolicyAll, PolicySelective, PolicyBackfill} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var b *Buffer
			flushed, pages := 0, map[int64][]byte{}
			flush := func(t0 sim.Time, no int64, data []byte) (sim.Time, error) {
				ends := b.SectorEnds(no)
				if len(ends) != pageSize/sector {
					t.Fatalf("%v: page %d flushed with %d sector ends", pol, no, len(ends))
				}
				for s, e := range ends {
					if tail := data[s*sector+int(e) : (s+1)*sector]; !bytes.Equal(tail, make([]byte, len(tail))) {
						t.Fatalf("%v seed %d: page %d sector %d holds non-zero bytes past its end %d", pol, seed, no, s, e)
					}
				}
				pages[no] = append([]byte(nil), data...)
				flushed++
				return t0, nil
			}
			eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
			var err error
			if b, err = New(Config{PageSize: pageSize, MaxEntries: 2, Policy: pol}, eng, flush); err != nil {
				t.Fatal(err)
			}
			type placed struct {
				addr int64
				val  []byte
			}
			var vals []placed
			for i := 0; i < 300; i++ {
				size := 1 + rng.Intn(200)
				if rng.Intn(3) == 0 {
					size = 1 + rng.Intn(3*pageSize)
				}
				if i == 150 {
					size = 3 * ringValueBytes // past the ring: it regrows
				}
				val := make([]byte, size)
				for j := range val {
					val[j] = byte(rng.Intn(255) + 1)
				}
				clear(val[size-rng.Intn(size+1)/2:]) // a zero tail
				place := b.PlacePiggybacked
				if size > 200 {
					place = b.PlaceDMA
				}
				addr, _, err := place(0, val)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, placed{addr, val})
			}
			if _, err := b.FlushAll(0); err != nil {
				t.Fatal(err)
			}
			if len(b.ring) == 2+ringValueBytes/pageSize+2 {
				t.Fatalf("%v: the ring never regrew", pol)
			}
			if pol == PolicyBackfill && (b.stats.ForcedFlushes.Value() == 0 || b.stats.BackfillJumps.Value() == 0) {
				t.Fatalf("backfill: %d forced flushes, %d jumps over DMA regions; the stream must make both",
					b.stats.ForcedFlushes.Value(), b.stats.BackfillJumps.Value())
			}
			for i, v := range vals {
				got := make([]byte, 0, len(v.val))
				for pos := v.addr; len(got) < len(v.val); pos = v.addr + int64(len(got)) {
					page := pages[pos/pageSize][pos%pageSize:]
					got = append(got, page[:min(len(page), len(v.val)-len(got))]...)
				}
				if !bytes.Equal(got, v.val) {
					t.Fatalf("%v seed %d: value %d at %d does not read back", pol, seed, i, v.addr)
				}
			}
		}
	}
}
