package lsm

import (
	"encoding/binary"
	"errors"
	"testing"

	"bandslim/internal/ftl"
	"bandslim/internal/nand"
	"bandslim/internal/sim"
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
