package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"bandslim/internal/ftl"
	"bandslim/internal/nand"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// SSTable pages keep their zero-copy view on flash that drops long zero runs:
// even a table of the most zero-heavy entries there are — 16-byte keys that
// are zero but for the bytes telling them apart, address 0, size 0 — holds no
// run of 64 zeros, so every page is stored as one run from its start and
// ReadPage and ViewPage lend it. A vLog-style page with a gap inside, by
// contrast, has no view.
func TestSSTablePagesKeepTheirView(t *testing.T) {
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 16, PagesPerBlock: 16, PageSize: 16 * 1024}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.New(fl, ftl.Config{OverprovisionPct: 10, GCFreeBlockLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewFTLStore(f, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(Config{MemTableEntries: 4096, L0CompactionTrigger: 4, LevelTableBase: 4, MaxLevels: 4, TablePages: 8}, store)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000 // five pages of 27-byte entries
	keyOf := func(i int) []byte {
		k := make([]byte, MaxKeySize)
		binary.BigEndian.PutUint16(k[MaxKeySize-2:], uint16(i))
		return k
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, keyOf(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	if written := tr.Stats().PagesWritten.Value(); written < 5 {
		t.Fatalf("%d pages written, want a table of 5 or more", written)
	}
	for pg := 0; pg < store.Pages(); pg++ {
		if _, _, err := store.ReadPage(0, pg); err != nil {
			t.Fatalf("ReadPage(%d): %v", pg, err)
		}
		if _, err := store.ViewPage(pg); err != nil {
			t.Fatalf("ViewPage(%d): %v", pg, err)
		}
	}
	for i := 0; i < n; i++ {
		e, ok, _, err := tr.Get(0, keyOf(i))
		if err != nil || !ok || e.Addr != 0 || e.Size != 0 {
			t.Fatalf("key %d: found %v, %+v, %v", i, ok, e, err)
		}
	}

	vlogPage := make([]byte, geo.PageSize)
	vlogPage[0], vlogPage[2*4096] = 1, 2 // a value at each of two 4 KiB boundaries
	lpn := store.Pages()                 // the first logical page past the store
	if _, err := f.Write(0, lpn, vlogPage); err != nil {
		t.Fatal(err)
	}
	if _, err := f.View(lpn); !errors.Is(err, nand.ErrSparsePage) {
		t.Fatalf("View of a page with a gap: %v, want nand.ErrSparsePage", err)
	}
}

// churnStore is an FTLStore on a small one-way flash that, after every page
// the tree writes, overwrites the last logical page: the blocks the tree
// writes fill half with dead pages, and with GC's free-block floor set high
// the FTL migrates live pages — the tree's among them — between the tree's
// writes. churn writes live pages past the tree's region between the tree's
// calls, which leaves the half-dead blocks GC's victims.
type churnStore struct {
	*FTLStore
	f     *ftl.FTL
	flash *nand.Array
	next  int // the next page churn writes
}

func newChurnStore(t *testing.T) *churnStore {
	t.Helper()
	geo := nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 16, PagesPerBlock: 8, PageSize: 1024}
	fl, err := nand.New(geo, nand.DefaultLatency(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.New(fl, ftl.Config{OverprovisionPct: 25, GCFreeBlockLow: 10})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewFTLStore(f, 0, f.LogicalPages()/2)
	if err != nil {
		t.Fatal(err)
	}
	return &churnStore{FTLStore: store, f: f, flash: fl, next: store.Pages()}
}

func (s *churnStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	end, err := s.FTLStore.WritePage(t, page, data)
	if err == nil {
		_, err = s.f.Write(t, s.f.LogicalPages()-1, data[:1])
	}
	return end, err
}

// churn writes n pages past the tree's region, in turn and round again.
func (s *churnStore) churn(t sim.Time, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.f.Write(t, s.next, []byte{byte(s.next) | 1}); err != nil {
			return err
		}
		if s.next++; s.next == s.f.LogicalPages()-1 {
			s.next = s.Pages()
		}
	}
	return nil
}

// homes reports the physical page that holds the payload each of the pages'
// views is, found by address among every page of the flash.
func (s *churnStore) homes(t *testing.T, pages []int) []nand.PageAddr {
	t.Helper()
	at := map[*byte]nand.PageAddr{}
	geo := s.flash.Geometry()
	for b := 0; b < geo.BlocksPerWay; b++ {
		for pg := 0; pg < geo.PagesPerBlock; pg++ {
			p := nand.PageAddr{Block: b, Page: pg}
			if view, err := s.flash.View(p); err == nil && len(view) > 0 {
				at[&view[0]] = p
			}
		}
	}
	out := make([]nand.PageAddr, len(pages))
	for i, pg := range pages {
		view, err := s.ViewPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		home, ok := at[&view[0]]
		if !ok {
			t.Fatalf("no flash page holds the payload of store page %d", pg)
		}
		out[i] = home
	}
	return out
}

// inputPages lists the pages of the tables, in order.
func inputPages(tables []*SSTable) []int {
	var pages []int
	for _, table := range tables {
		pages = append(pages, table.pages...)
	}
	return pages
}

// A merge keeps the store's views of its inputs while its outputs are
// written, and here those writes make FTL GC move input pages: the merge
// still builds exactly the tables, pages and counters of the materialising
// reference merge (FuzzMerge's oracle), which reads the same pages first and
// so drives the flash through the same operations.
func TestMergeAcrossFTLGC(t *testing.T) {
	moved := 0
	for seed := int64(1); seed <= 8; seed++ {
		var trees [2]*Tree
		var stores [2]*churnStore
		var inputs [2][]*SSTable
		for i := range trees {
			stores[i] = newChurnStore(t)
			tr, err := NewTree(smallTreeConfig(), stores[i])
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
			inputs[i] = mergeCase(t, tr, rand.New(rand.NewSource(seed)), 3, 4)
		}
		before := stores[0].homes(t, inputPages(inputs[0]))
		gc := stores[0].f.Stats().GCWrites.Value()
		got, gotEnd, err := trees[0].merge(5, inputs[0], seed%2 == 0)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		want, wantEnd, err := referenceMerge(trees[1], 5, inputs[1], seed%2 == 0)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if stores[0].f.Stats().GCWrites.Value() == gc {
			t.Fatalf("seed %d: the merge's writes set off no GC migration", seed)
		}
		for i, home := range stores[0].homes(t, inputPages(inputs[0])) {
			if home != before[i] {
				moved++
			}
		}
		if len(got) != len(want) || gotEnd != wantEnd || trees[0].stats != trees[1].stats {
			t.Fatalf("seed %d: %d tables ending %v, counters %+v; reference %d ending %v, %+v",
				seed, len(got), gotEnd, trees[0].stats, len(want), wantEnd, trees[1].stats)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.smallest != w.smallest || g.largest != w.largest || !slices.Equal(g.pages, w.pages) ||
				!slices.Equal(g.fences, w.fences) || !slices.Equal(g.restarts, w.restarts) || !slices.Equal(g.filter, w.filter) {
				t.Fatalf("seed %d: table %d = %+v, reference %+v", seed, i, g, w)
			}
			for _, pg := range g.pages {
				a, errA := stores[0].ViewPage(pg)
				b, errB := stores[1].ViewPage(pg)
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("seed %d: table %d page %d differs from the reference (%v, %v)", seed, i, pg, errA, errB)
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("GC never moved an input page while a merge held its view")
	}
}

// fillTree puts n keys into a tree on a churnStore and flushes them, so that
// they sit in tables only.
func fillTree(t *testing.T, n int) (*Tree, *churnStore) {
	t.Helper()
	store := newChurnStore(t)
	cfg := smallTreeConfig()
	cfg.MemTableEntries, cfg.TablePages = 100, 4
	tr, err := NewTree(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, key(i), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	return tr, store
}

// An iterator keeps the store's views of its tables' pages, and FTL GC moves
// those pages' payloads rather than copying them: a scan held open while GC
// moves the pages its sources stand on returns every key, in order, with no
// error.
func TestIteratorAcrossFTLGC(t *testing.T) {
	const n = 300
	tr, store := fillTree(t, n)
	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < n; i++ {
		if !it.Valid() || !bytes.Equal(it.Entry().Key, key(i)) {
			t.Fatalf("position %d: valid=%v key %q err %v", i, it.Valid(), it.Entry().Key, it.Err())
		}
		if i%50 == 10 {
			// The pages the table sources hold views of.
			var held []int
			for _, s := range it.sources {
				if s.table != nil && s.hasCur {
					held = append(held, s.table.pages[s.pageIdx-1])
				}
			}
			before := store.homes(t, held)
			if err := store.churn(0, 40); err != nil {
				t.Fatal(err)
			}
			for j, home := range store.homes(t, held) {
				if home != before[j] {
					moved++
				}
			}
		}
		it.Next(0)
	}
	if it.Valid() || it.Err() != nil {
		t.Fatalf("scan end: valid=%v err=%v", it.Valid(), it.Err())
	}
	if moved == 0 {
		t.Fatal("GC never moved a page an iterator source held a view of")
	}
}

// A compaction that frees an open iterator's pages trims them, and the flash
// poisons and reuses their payloads: the iterator then ends in
// ErrIteratorInvalidated at its next step, never reading what now sits in
// that memory — another table's keys, or poison.
func TestIteratorAcrossFreedPages(t *testing.T) {
	const n = 300
	tr, _ := fillTree(t, n)
	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !it.Valid() || !bytes.Equal(it.Entry().Key, key(i)) {
			t.Fatalf("position %d: valid=%v key %q err %v", i, it.Valid(), it.Entry().Key, it.Err())
		}
		it.Next(0)
	}
	reclaims := tr.reclaims
	for i := 0; tr.reclaims == reclaims; i++ {
		if _, err := tr.Put(0, key(n+i), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; it.Valid(); i++ {
		if !bytes.Equal(it.Entry().Key, key(i)) {
			t.Fatalf("position %d after the reclaim: key %q, want %q", i, it.Entry().Key, key(i))
		}
		it.Next(0)
	}
	if !errors.Is(it.Err(), ErrIteratorInvalidated) {
		t.Fatalf("scan across the reclaim ended with %v, want ErrIteratorInvalidated", it.Err())
	}
}
