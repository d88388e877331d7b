package pagebuf

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"bandslim/internal/dma"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

// flushRecorder captures flushed pages for inspection.
type flushRecorder struct {
	pages map[int64][]byte
	order []int64
	fail  bool
}

func newRecorder() *flushRecorder {
	return &flushRecorder{pages: make(map[int64][]byte)}
}

func (r *flushRecorder) flush(t sim.Time, pageNo int64, data []byte) (sim.Time, error) {
	if r.fail {
		return t, errFlush
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.pages[pageNo] = cp
	r.order = append(r.order, pageNo)
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

// A full DLT retires its oldest entry rather than failing.
func TestBackfillDLTOverflowRetiresOldest(t *testing.T) {
	rec := newRecorder()
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	b, err := New(Config{PageSize: 16 * 1024, MaxEntries: 64, Policy: PolicyBackfill, DLTCap: 4}, eng, rec.flush)
	if err != nil {
		t.Fatal(err)
	}
	// Push fails on a full table, so ten placements through four entries
	// succeed only if the overflow retires entries.
	for i := 0; i < 10; i++ {
		if _, _, err := b.PlaceDMA(0, make([]byte, 2048)); err != nil {
			t.Fatal(err)
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
