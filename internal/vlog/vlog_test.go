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
)

func newVLog(t *testing.T, policy pagebuf.Policy) *VLog {
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
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	v, err := Build(f, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 8, Policy: policy}, eng, 0, f.LogicalPages()/2)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// smallRegionVLog builds a vLog whose region is only `pages` pages, for
// circular-log tests.
func smallRegionVLog(t *testing.T, pages int) *VLog {
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
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), dma.DefaultMemcpyModel())
	v, err := Build(f, pagebuf.Config{PageSize: 16 * 1024, MaxEntries: 4, Policy: pagebuf.PolicyAll}, eng, 0, pages)
	if err != nil {
		t.Fatal(err)
	}
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
	v := newVLog(t, pagebuf.PolicyAll)
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
	if v.Stats().ReadPages.Value() != 0 {
		t.Fatal("buffered read touched NAND")
	}
}

func TestAppendReadAfterFlush(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
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
	if v.Stats().ReadPages.Value() == 0 {
		t.Fatal("flushed read did not touch NAND")
	}
	if end == 0 {
		t.Fatal("NAND read took no time")
	}
}

// The last-page cache is the vLog's own copy of the page. The FTL only lends
// its bytes: when GC migrates the page (here: the physical page is simply
// dropped) the lent view turns to poison, and a cache holding it would serve
// that.
func TestLastPageCacheOutlivesTheFlashView(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
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
	if err := v.ftl.Trim(v.lpnOf(int64(addr) / int64(v.pageSize))); err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Read(0, addr, len(val))
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().CacheHits.Value() != 1 {
		t.Fatalf("second read: %d cache hits, want 1", v.Stats().CacheHits.Value())
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
