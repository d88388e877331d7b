package device

import (
	"bytes"
	"testing"

	"bandslim/internal/cache"
	"bandslim/internal/nand"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// The page tier keeps page numbers, not bytes: a hit is served from a view of
// the flash page found through the FTL map at the time of the hit. So when FTL
// GC has migrated a resident page, the hit must follow it — same bytes, still
// no NAND read, still only the DRAM latency. GC moves the payload, so the
// view lent before the migration reads the same bytes too.
func TestPageCacheHitFollowsFTLGC(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 16, PagesPerBlock: 16, PageSize: 16 * 1024}
	cfg.Cache.Pages = 4
	dev, _, _, _ := newDev(t, cfg)
	store, f := dev.pstore, dev.ftl
	lpn := f.LogicalPages() - store.Pages() // meta page 0

	image := bytes.Repeat([]byte{0x5A}, 300)
	if _, err := store.WritePage(0, 0, image); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReadPage(0, 0); err != nil { // the miss that admits it
		t.Fatal(err)
	}
	if hits, misses := dev.stats.PageCacheHits.Value(), dev.stats.PageCacheMisses.Value(); hits != 0 || misses != 1 {
		t.Fatalf("first read: %d hits, %d misses; want 0 and 1", hits, misses)
	}
	lent, err := f.View(lpn)
	if err != nil {
		t.Fatal(err)
	}
	// home is the physical page whose payload the lent view is.
	geo := cfg.Geometry
	home := func() nand.PageAddr {
		for i := 0; i < geo.Pages(); i++ {
			p := nand.PageAddr{Channel: i / (geo.Pages() / geo.Channels), Way: i / (geo.BlocksPerWay * geo.PagesPerBlock) % geo.WaysPerChannel,
				Block: i / geo.PagesPerBlock % geo.BlocksPerWay, Page: i % geo.PagesPerBlock}
			if view, err := dev.flash.View(p); err == nil && len(view) > 0 && &view[0] == &lent[0] {
				return p
			}
		}
		t.Fatal("no page holds the lent view's payload")
		return nand.PageAddr{}
	}
	start := home()

	// The recipe of vlog's TestLastPageCacheOutlivesTheFlashView: the pages
	// written right after the cached one share its blocks and then die, the
	// rest of the device stays live, so GC's victim is the block whose one
	// live page is the cached one.
	next := 0
	write := func(l int) {
		t.Helper()
		if l >= lpn {
			l++ // every logical page but the cached one
		}
		if _, err := f.Write(0, l, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
	}
	for ; next < 63+700; next++ {
		write(next)
	}
	for l := 0; l < 63; l++ {
		write(l)
	}
	for ; home() == start; next++ {
		if next == f.LogicalPages()-1 {
			t.Fatal("device full and GC never migrated the cached page")
		}
		write(next)
	}
	if f.Stats().GCWrites.Value() == 0 || !bytes.Equal(lent, image) {
		t.Fatalf("cached page moved with %d GC writes and the view lent before reads %x..., want the image",
			f.Stats().GCWrites.Value(), lent[:4])
	}

	flashReads := dev.flash.Stats().PageReads.Value()
	got, end, err := store.ReadPage(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := dev.stats.PageCacheHits.Value(), dev.stats.PageCacheMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("read after the migration: %d hits, %d misses; want 1 and 1", hits, misses)
	}
	if n, want := dev.flash.Stats().PageReads.Value()-flashReads, sim.Time(7).Add(cache.HitLatency); n != 0 || end != want {
		t.Fatalf("a page-cache hit read the flash %d times and ended at %v, want 0 and %v", n, end, want)
	}
	if !bytes.Equal(got, image) {
		t.Fatalf("hit after the migration returned %d bytes, want the %d-byte image", len(got), len(image))
	}
}

// A page-tier hit serves a whole page from device DRAM, so its trace event
// carries PageSize bytes however short the view of the page is: trace byte
// counts, and the spans and blame built on them, do not depend on how the
// flash model stores the page.
func TestPageCacheHitTracesAWholePage(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache.Pages = 4
	dev, _, _, _ := newDev(t, cfg)
	store := dev.pstore
	if _, err := store.WritePage(0, 0, bytes.Repeat([]byte{0x5A}, 300)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReadPage(0, 0); err != nil { // the miss that admits it
		t.Fatal(err)
	}
	rec := trace.NewRecorder(64)
	dev.SetTracer(rec)
	got, _, err := store.ReadPage(0, 0)
	if err != nil || len(got) != 300 {
		t.Fatalf("hit: %d bytes, %v; want the 300-byte view", len(got), err)
	}
	var hits int
	for _, e := range rec.Events() {
		if e.Name != trace.EvCacheHit {
			continue
		}
		hits++
		if e.Bytes != int64(store.PageSize()) {
			t.Fatalf("page-tier hit traced %d bytes, want the page size %d", e.Bytes, store.PageSize())
		}
	}
	if hits != 1 {
		t.Fatalf("%d cache-hit events, want 1", hits)
	}
}
