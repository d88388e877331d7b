package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bandslim/internal/sim"
)

// fuzzGeometries are the page shapes FuzzPageRoundTrip runs on: a page
// shorter than one sector, a page of three whole sectors, and the default
// 16 KiB page.
var fuzzGeometries = []Geometry{
	{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 2, PagesPerBlock: 4, PageSize: 1000},
	{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 2, PagesPerBlock: 4, PageSize: 3 * sectorSize},
	{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 2, PagesPerBlock: 4, PageSize: 16 * 1024},
}

// FuzzPageRoundTrip programs a page of random non-zero bytes with zero runs
// cut into it — 63, 64 or more bytes long, ending on a 4 KiB boundary or a
// few bytes either side of it — and checks what every reader sees:
//   - every ReadAt and ViewAt range equals the zero-padded original;
//   - a View that succeeds is a prefix of it with only zeros after, as long
//     as Extent says, and a page without a zero run of minGap bytes always
//     has one;
//   - a copy programmed from the page's first Extent bytes, as FTL GC makes
//     it, is stored exactly as large and reads the same;
//   - a discarded page's stale view shows poison.
func FuzzPageRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(1000), int64(1), []byte{0, 1, 0})
	f.Add(uint8(1), uint16(3*sectorSize), int64(2), []byte{0, 1, 0, 1, 0, 0, 2, 3, 9})
	f.Add(uint8(1), uint16(3*sectorSize), int64(3), []byte{0, 0, 0, 1, 0, 0})
	f.Add(uint8(2), uint16(16*1024), int64(4), []byte{0, 4, 0, 1, 4, 0, 2, 4, 0, 3, 2, 0})
	f.Add(uint8(2), uint16(9000), int64(5), []byte{2, 2, 5, 0, 1, 255})
	f.Add(uint8(2), uint16(0), int64(6), []byte{})
	// A few bytes short of a page: no room for the sector table.
	f.Add(uint8(2), uint16(16*1024-3), int64(7), []byte{})
	f.Add(uint8(2), uint16(16*1024-3), int64(8), []byte{3, 0, 0})
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed int64, runs []byte) {
		geo := fuzzGeometries[int(shape)%len(fuzzGeometries)]
		a, err := New(geo, DefaultLatency(), sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		size := int(n) % (geo.PageSize + 1)
		rng := rand.New(rand.NewSource(seed))
		page := make([]byte, geo.PageSize) // what every read must see
		for i := range page[:size] {
			page[i] = byte(rng.Intn(255) + 1)
		}
		// Each triple of runs cuts one zero run: which sector's end it
		// aims at, how long it is, and how far off the end it stops.
		for i := 0; i+2 < len(runs); i += 3 {
			sector := int(runs[i]) % len(a.lens)
			length := []int{63, 64, 65, 500, sectorSize}[int(runs[i+1])%5]
			end := min((sector+1)*sectorSize, geo.PageSize) + int(int8(runs[i+2]))%4
			end = max(min(end, size), 0)
			clear(page[max(end-length, 0):end])
		}
		p, q := PageAddr{Page: 1}, PageAddr{Page: 2}
		if _, err := a.Program(0, p, page[:size]); err != nil {
			t.Fatal(err)
		}
		view := checkPage(t, a, p, page, rng, !hasZeroRun(page[:size], minGap))

		// The GC copy: the page up to its extent, programmed elsewhere.
		ext, err := a.Extent(p)
		if err != nil {
			t.Fatal(err)
		}
		_, _, stored := a.Payloads()
		cp := make([]byte, ext)
		if _, err := a.ReadAt(0, p, cp, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Program(0, q, cp); err != nil {
			t.Fatal(err)
		}
		if _, _, both := a.Payloads(); both != 2*stored {
			t.Fatalf("the extent copy stores %d bytes, the page %d", both-stored, stored)
		}
		if v := checkPage(t, a, q, page, rng, view != nil); (v == nil) != (view == nil) || len(v) != len(view) {
			t.Fatalf("the extent copy's view is %d bytes (ok %v), the page's %d (ok %v)", len(v), v != nil, len(view), view != nil)
		}

		if err := a.Discard(p); err != nil {
			t.Fatal(err)
		}
		for i, b := range view {
			if b != poison {
				t.Fatalf("stale view byte %d = %#x, want poison", i, b)
			}
		}
		if _, err := a.ReadAt(0, p, make([]byte, 1), 0); !errors.Is(err, ErrDiscarded) {
			t.Fatalf("ReadAt of a discarded page: %v", err)
		}
	})
}

// checkPage compares every way of reading page p with want, the zero-padded
// page: the whole page, a window across every sector boundary and a few
// random ranges through ReadAt and ViewAt, and View and Read, which must
// succeed when mustView is set. It returns the view, nil when there is none.
func checkPage(t *testing.T, a *Array, p PageAddr, want []byte, rng *rand.Rand, mustView bool) []byte {
	t.Helper()
	size := len(want)
	ranges := [][2]int{{0, size}}
	for b := sectorSize; b < size; b += sectorSize {
		ranges = append(ranges, [2]int{max(b-70, 0), min(b+70, size)})
	}
	for i := 0; i < 8; i++ {
		lo := rng.Intn(size + 1)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(size-lo+1)})
	}
	for _, r := range ranges {
		got := bytes.Repeat([]byte{0xEE}, r[1]-r[0])
		if err := a.ViewAt(p, got, r[0]); err != nil || !bytes.Equal(got, want[r[0]:r[1]]) {
			t.Fatalf("ViewAt [%d,%d): %v, bytes differ", r[0], r[1], err)
		}
		clear(got)
		if _, err := a.ReadAt(0, p, got, r[0]); err != nil || !bytes.Equal(got, want[r[0]:r[1]]) {
			t.Fatalf("ReadAt [%d,%d): %v, bytes differ", r[0], r[1], err)
		}
	}
	view, err := a.View(p)
	read, _, rerr := a.Read(0, p)
	if (rerr == nil) != (err == nil) || len(read) != len(view) {
		t.Fatalf("Read (%d bytes, %v) disagrees with View (%d bytes, %v)", len(read), rerr, len(view), err)
	}
	if err != nil {
		if !errors.Is(err, ErrSparsePage) || mustView {
			t.Fatalf("View: %v", err)
		}
		return nil
	}
	ext, _ := a.Extent(p)
	if len(view) != ext || !bytes.Equal(view, want[:len(view)]) || hasNonZero(want[len(view):]) {
		t.Fatalf("View of %d bytes (extent %d) is not the page up to a zero tail", len(view), ext)
	}
	return view
}

// hasZeroRun reports whether b holds n zero bytes in a row.
func hasZeroRun(b []byte, n int) bool {
	run := 0
	for _, c := range b {
		if c != 0 {
			run = 0
		} else if run++; run >= n {
			return true
		}
	}
	return false
}

func hasNonZero(b []byte) bool { return len(b) > 0 && !bytes.Equal(b, make([]byte, len(b))) }
