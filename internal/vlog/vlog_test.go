package vlog

import (
	"bytes"
	"testing"
	"testing/quick"

	"bandslim/internal/dma"
	"bandslim/internal/ftl"
	"bandslim/internal/nand"
	"bandslim/internal/pagebuf"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// buildVLog stacks a vLog of `pages` pages (0: half the FTL) on a small flash
// array, which it also returns for tests that watch the NAND counters.
func buildVLog(t *testing.T, bufCfg pagebuf.Config, pages int) (*VLog, *nand.Array) {
	t.Helper()
	geo := nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 16, PagesPerBlock: 16, PageSize: 16 * 1024}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.New(fl, ftl.Config{OverprovisionPct: 10, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		pages = f.LogicalPages() / 2
	}
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	v, err := Build(f, bufCfg, eng, 0, pages)
	if err != nil {
		t.Fatal(err)
	}
	return v, fl
}

func newVLog(t *testing.T, policy pagebuf.Policy) *VLog {
	t.Helper()
	v, _ := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 8, Policy: policy}, 0)
	return v
}

// smallRegionVLog builds a vLog whose region is only `pages` pages, for
// circular-log tests.
func smallRegionVLog(t *testing.T, pages int) *VLog {
	t.Helper()
	v, _ := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 4, Policy: pagebuf.PolicyAll}, pages)
	return v
}

func TestBuildValidation(t *testing.T) {
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 8, PagesPerBlock: 8, PageSize: 16 * 1024}
	fl, _ := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	f, _ := ftl.New(fl, ftl.Config{OverprovisionPct: 10, GCFreeBlockLow: 2})
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	cfg := pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 4, Policy: pagebuf.PolicyAll}
	if _, err := Build(f, cfg, eng, 0, f.LogicalPages()+1); err == nil {
		t.Fatal("oversized region accepted")
	}
	if _, err := Build(f, cfg, eng, -1, 4); err == nil {
		t.Fatal("negative base accepted")
	}
	badCfg := cfg
	badCfg.PageSize = 8192
	if _, err := Build(f, badCfg, eng, 0, 4); err == nil {
		t.Fatal("page size mismatch accepted")
	}
}

func TestAppendReadFromBuffer(t *testing.T) {
	v, flash := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 8, Policy: pagebuf.PolicyAll}, 0)
	val := bytes.Repeat([]byte{0x42}, 500)
	addr, _, err := v.AppendPiggybacked(0, val)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Read(0, addr, len(val))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("buffered read mismatch")
	}
	if flash.Stats().PageReads.Value() != 0 {
		t.Fatal("buffered read touched NAND")
	}
}

func TestAppendReadAfterFlush(t *testing.T) {
	v, flash := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 8, Policy: pagebuf.PolicyAll}, 0)
	val := bytes.Repeat([]byte{0x17}, 300)
	addr, _, err := v.AppendDMA(0, val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	got, end, err := v.Read(0, addr, len(val))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("flushed read mismatch")
	}
	if flash.Stats().PageReads.Value() == 0 {
		t.Fatal("flushed read did not touch NAND")
	}
	if end == 0 {
		t.Fatal("NAND read took no time")
	}
}

// The last-page cache remembers a page number, not the page: a hit finds the
// page through the map again, so it serves the right bytes from wherever GC
// put them — as a hit: the flash is not read. GC moves the page's payload
// rather than copying it, so the view the FTL lent before the migration
// still reads the page after it.
func TestLastPageCacheOutlivesTheFlashView(t *testing.T) {
	v, flash := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 4, Policy: pagebuf.PolicyAll}, 8)
	val := bytes.Repeat([]byte{0x17}, 300)
	addr, _, err := v.AppendDMA(0, val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(0, addr, len(val)); err != nil {
		t.Fatal(err)
	}
	lpn := v.lpnOf(int64(addr) / int64(v.pageSize))
	lent, err := v.ftl.View(lpn)
	if err != nil {
		t.Fatal(err)
	}
	// home is the physical page whose payload the lent view is.
	geo := flash.Geometry()
	home := func() nand.PageAddr {
		for i := 0; i < geo.Pages(); i++ {
			p := nand.PageAddr{Channel: i / (geo.Pages() / geo.Channels), Way: i / (geo.BlocksPerWay * geo.PagesPerBlock) % geo.WaysPerChannel,
				Block: i / geo.PagesPerBlock % geo.BlocksPerWay, Page: i % geo.PagesPerBlock}
			if view, err := flash.View(p); err == nil && len(view) > 0 && &view[0] == &lent[0] {
				return p
			}
		}
		t.Fatal("no page holds the lent view's payload")
		return nand.PageAddr{}
	}
	start := home()

	// Make GC want the cached page's block: the pages written right after it
	// share its blocks and then die, while everything else on the device stays
	// live, so when a way runs short of free blocks the victim is the block
	// whose one live page is the cached one.
	write := func(lpn int) {
		t.Helper()
		if _, err := v.ftl.Write(0, lpn, []byte{byte(lpn)}); err != nil {
			t.Fatal(err)
		}
	}
	doomed := v.maxPages // first logical page past the vLog's region
	next := doomed
	for ; next < doomed+63+700; next++ { // 63 to die, then 700 to stay
		write(next)
	}
	for lpn := doomed; lpn < doomed+63; lpn++ {
		write(lpn)
	}
	for ; home() == start; next++ {
		if next == v.ftl.LogicalPages() {
			t.Fatal("device full and GC never migrated the cached page")
		}
		write(next)
	}
	if v.ftl.Stats().GCWrites.Value() == 0 || !bytes.Equal(lent, val) {
		t.Fatalf("cached page moved with %d GC writes and the view lent before reads %x..., want the value",
			v.ftl.Stats().GCWrites.Value(), lent[:4])
	}

	flashReads := flash.Stats().PageReads.Value()
	got, end, err := v.Read(7, addr, len(val))
	if err != nil {
		t.Fatal(err)
	}
	if n := flash.Stats().PageReads.Value() - flashReads; n != 0 || end != 7 {
		t.Fatalf("a last-page hit read the flash %d times and ended at %v, want 0 and 7", n, end)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("cached page changed under the vLog: value starts %x", got[:4])
	}
}

// A value straddling the durability boundary reads correctly: its head from
// NAND, its tail from the open buffer.
func TestReadStraddlesFlushBoundary(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	// Fill most of page 0, then append a value crossing into page 1.
	filler := bytes.Repeat([]byte{0xEE}, 16*1024-100)
	if _, _, err := v.AppendPiggybacked(0, filler); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 300)
	for i := range val {
		val[i] = byte(i)
	}
	addr, _, err := v.AppendPiggybacked(0, val)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 flushed automatically (WP crossed it); page 1 still open.
	if v.Buffer().FlushedBelow() != 16*1024 {
		t.Fatalf("FlushedBelow = %d", v.Buffer().FlushedBelow())
	}
	got, _, err := v.Read(0, addr, len(val))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("straddling read mismatch")
	}
}

func TestReadOutOfRange(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	v.AppendPiggybacked(0, make([]byte, 100))
	if _, _, err := v.Read(0, 50, 100); err == nil {
		t.Fatal("read past frontier accepted")
	}
	if _, _, err := v.Read(0, -1, 10); err == nil {
		t.Fatal("negative read accepted")
	}
}

func TestVLogCapacityGuard(t *testing.T) {
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 8, PagesPerBlock: 8, PageSize: 16 * 1024}
	fl, _ := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	f, _ := ftl.New(fl, ftl.Config{OverprovisionPct: 10, GCFreeBlockLow: 2})
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	v, err := Build(f, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 4, Policy: pagebuf.PolicyAll}, eng, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.CapacityBytes() != 32*1024 {
		t.Fatalf("CapacityBytes = %d", v.CapacityBytes())
	}
	// The region holds 2 pages; appending ~2 pages must eventually fail
	// cleanly rather than write out of range.
	var sawErr bool
	for i := 0; i < 10; i++ {
		if _, _, err := v.AppendPiggybacked(0, make([]byte, 8*1024)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("vLog overflow never reported")
	}
}

// Property: any mix of piggybacked and DMA appends under any policy reads
// back intact, before and after a flush.
func TestAppendReadPropertyAllPolicies(t *testing.T) {
	policies := []pagebuf.Policy{pagebuf.PolicyBlock, pagebuf.PolicyAll, pagebuf.PolicySelective, pagebuf.PolicyBackfill}
	f := func(sizes []uint16, dmaMask uint32) bool {
		for _, p := range policies {
			v := newVLog(t, p)
			type rec struct {
				addr Addr
				val  []byte
			}
			var recs []rec
			n := len(sizes)
			if n > 12 {
				n = 12
			}
			for i := 0; i < n; i++ {
				size := int(sizes[i])%3000 + 1
				val := make([]byte, size)
				for j := range val {
					val[j] = byte(j + i*7)
				}
				var addr Addr
				var err error
				if dmaMask&(1<<i) != 0 {
					addr, _, err = v.AppendDMA(0, val)
				} else {
					addr, _, err = v.AppendPiggybacked(0, val)
				}
				if err != nil {
					return false
				}
				recs = append(recs, rec{addr, val})
			}
			check := func() bool {
				for _, r := range recs {
					got, _, err := v.Read(0, r.addr, len(r.val))
					if err != nil || !bytes.Equal(got, r.val) {
						return false
					}
				}
				return true
			}
			if !check() {
				return false
			}
			if _, err := v.Flush(0); err != nil {
				return false
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A Backfill fill with mixgraph value sizes costs the flash model's host
// memory about its payload, not its pages: DMA values sit at 4 KiB
// boundaries, so most of every flushed page is zero sector tails, and
// Program keeps none of them. Values read back the same from the pages so
// stored.
func TestBackfillFillStoresItsPayload(t *testing.T) {
	v, flash := buildVLog(t, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 8, Policy: pagebuf.PolicyBackfill}, 0)
	gen, fill := workload.NewWorkloadM(8000, 42), workload.NewValueFiller(42)
	type rec struct {
		addr Addr
		val  []byte
	}
	var recs []rec
	for op, ok := gen.Next(); ok; op, ok = gen.Next() {
		val := fill.Fill(nil, op.N)
		place := v.AppendDMA
		if len(val) <= 128 { // the driver's default piggyback threshold
			place = v.AppendPiggybacked
		}
		addr, _, err := place(0, val)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{addr, val})
	}
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	payload := v.Buffer().Stats().PayloadBytes.Value()
	held, _, stored := flash.Payloads()
	t.Logf("%d pages hold %d bytes for %d payload bytes (%.3f); the pages are %d bytes",
		held, stored, payload, float64(stored)/float64(payload), int64(held)*int64(v.pageSize))
	if stored > payload*5/4 {
		t.Fatalf("%d pages store %d bytes for %d payload bytes: more than 1.25x", held, stored, payload)
	}
	for _, r := range recs {
		got, _, err := v.Read(0, r.addr, len(r.val))
		if err != nil || !bytes.Equal(got, r.val) {
			t.Fatalf("value at %d: %v", r.addr, err)
		}
	}
}
