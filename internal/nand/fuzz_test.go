package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

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
//   - a copy programmed from the page's first Extent bytes, as the dense
//     FTL reference in ftl's tests migrates a page, is stored exactly as
//     large and reads the same;
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

		// The copy: the page up to its extent, programmed elsewhere.
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

// slabGeometries are FuzzPayloadSlab's arrays: 16 pages each, of 1000 bytes
// (4000-byte slab blocks, 16-byte classes only) or of three sectors (48 KiB
// blocks, classes past 1 KiB too, pages kept with gaps).
var slabGeometries = []Geometry{
	{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 2, PagesPerBlock: 4, PageSize: 1000},
	{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 2, PagesPerBlock: 4, PageSize: 3 * sectorSize},
}

// slabSizes returns the page lengths FuzzPayloadSlab programs on a page of
// the given size: empty, class edges of the slab (16-byte steps up to 1 KiB,
// then 16 per doubling) below half a page, half a page and either side of
// it, and a page a few bytes short of whole, and whole.
func slabSizes(page int) []int {
	var sizes []int
	for _, n := range []int{0, 1, 15, 16, 17, 100, 250, 1009, 1024, 1025, 2000, 4096, 4097} {
		if 2*n < page {
			sizes = append(sizes, n)
		}
	}
	return append(sizes, page/2-1, page/2, page/2+1, page-3, page)
}

// FuzzPayloadSlab drives Program, Discard and Erase over a tiny array with
// sub-page and whole-page payloads of random sizes, against a reference that
// keeps an exact copy of every page, and checks after every step:
//   - every page reads as the reference says through Read, ReadAt and
//     Extent: a programmed one byte-identical, an erased one as zeros, a
//     discarded one as ErrDiscarded;
//   - a payload just released — by Discard or Erase — is poison through its
//     stale view;
//   - no two held payloads share a byte of memory, sector tables included,
//     however the slab reused their chunks across size classes.
//
// The first byte picks the geometry. Each step after it is three bytes: the
// operation, the page, and the size (an index into slabSizes, with its top
// bit cutting a zero run into sector 0's tail, which on a three-sector page
// keeps it with a gap).
func FuzzPayloadSlab(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 0, 1, 6, 1, 0, 0, 0, 2, 4, 2, 1, 0, 0, 4, 12})
	f.Add([]byte{1, 0, 0, 14, 0, 1, 3, 1, 0, 0, 0, 2, 17, 0, 3, 130, 3, 3, 0, 1, 1, 0, 0, 4, 8})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		geo := slabGeometries[int(prog[0])%len(slabGeometries)]
		prog = prog[1:]
		a, err := New(geo, DefaultLatency(), sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		sizes := slabSizes(geo.PageSize)
		pages := geo.Pages()
		addr := func(i int) PageAddr {
			per := geo.PagesPerBlock * geo.BlocksPerWay
			return PageAddr{Way: i / per, Block: i % per / geo.PagesPerBlock, Page: i % geo.PagesPerBlock}
		}
		ref := make([][]byte, pages) // nil: erased
		discarded := make([]bool, pages)
		rng := rand.New(rand.NewSource(int64(len(prog))))
		got := make([]byte, geo.PageSize)
		for i := 0; i+2 < len(prog); i += 3 {
			op, pi, sb := prog[i]%4, int(prog[i+1])%pages, prog[i+2]
			p := addr(pi)
			switch op {
			case 0, 1: // Program, twice as often as the rest
				if ref[pi] != nil || discarded[pi] {
					if _, err := a.Program(0, p, nil); !errors.Is(err, ErrNotErased) {
						t.Fatalf("step %d: program of a used page: %v", i, err)
					}
					// Program the next erased page instead, if any.
					for k := 0; k < pages && (ref[pi] != nil || discarded[pi]); k++ {
						pi = (pi + 1) % pages
					}
					if ref[pi] != nil || discarded[pi] {
						break
					}
					p = addr(pi)
				}
				size := sizes[int(sb&0x7F)%len(sizes)]
				page := make([]byte, geo.PageSize)
				for j := range page[:size] {
					page[j] = byte(rng.Intn(255) + 1)
				}
				if sb&0x80 != 0 {
					clear(page[max(min(size, sectorSize)-minGap, 0):min(size, sectorSize)])
				}
				if _, err := a.Program(0, p, page[:size]); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				ref[pi] = page
			case 2: // Discard
				stale, _ := a.payload(p)
				if err := a.Discard(p); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if ref[pi] != nil {
					checkPoisoned(t, i, stale)
					ref[pi], discarded[pi] = nil, true
				}
			case 3: // Erase the page's block
				b := BlockAddr{Channel: p.Channel, Way: p.Way, Block: p.Block}
				first := pi - p.Page
				var stale [][]byte
				for j := first; j < first+geo.PagesPerBlock; j++ {
					if ref[j] != nil {
						buf, _ := a.payload(addr(j))
						stale = append(stale, buf)
					}
				}
				if _, err := a.Erase(0, b); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for _, buf := range stale {
					checkPoisoned(t, i, buf)
				}
				for j := first; j < first+geo.PagesPerBlock; j++ {
					ref[j], discarded[j] = nil, false
				}
			}

			held := 0
			for j := range ref {
				q := addr(j)
				if discarded[j] {
					if _, err := a.ReadAt(0, q, got, 0); !errors.Is(err, ErrDiscarded) {
						t.Fatalf("step %d: ReadAt of discarded page %v: %v", i, q, err)
					}
					continue
				}
				want, viewLen := ref[j], -1 // -1: the extent
				if want == nil {
					want, viewLen = a.zero, geo.PageSize
				} else {
					held++
				}
				if _, err := a.ReadAt(0, q, got, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d: ReadAt of page %v: %v, bytes differ", i, q, err)
				}
				ext, err := a.Extent(q)
				if err != nil || hasNonZero(want[ext:]) {
					t.Fatalf("step %d: page %v has non-zero bytes past its extent %d (%v)", i, q, ext, err)
				}
				if viewLen < 0 {
					viewLen = ext
				}
				if view, _, err := a.Read(0, q); err == nil && (len(view) != viewLen || !bytes.Equal(view, want[:viewLen])) {
					t.Fatalf("step %d: Read of page %v: a %d-byte view, want %d, bytes differ", i, q, len(view), viewLen)
				} else if err != nil && !errors.Is(err, ErrSparsePage) {
					t.Fatalf("step %d: Read of page %v: %v", i, q, err)
				}
			}
			if n, _, _ := a.Payloads(); n != held {
				t.Fatalf("step %d: %d payloads held, reference %d", i, n, held)
			}
			checkDisjoint(t, i, a)
		}
	})
}

// checkPoisoned fails unless every byte of a released payload is poison.
func checkPoisoned(t *testing.T, step int, buf []byte) {
	t.Helper()
	for j, b := range buf {
		if b != poison {
			t.Fatalf("step %d: stale view byte %d of %d = %#x, want poison", step, j, len(buf), b)
		}
	}
}

// checkDisjoint fails if the memory of any two held payloads — each up to
// its capacity, where a sector table lives — overlaps.
func checkDisjoint(t *testing.T, step int, a *Array) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, b := range a.blocks {
		for _, pg := range b.pages {
			if pg.state() == pageProgrammed {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(pg)))
				spans = append(spans, span{lo, lo + uintptr(cap(pg))})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("step %d: payloads at [%#x,%#x) and [%#x,%#x) overlap", step, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// FuzzProgramExtents is the oracle for ProgramSectors: a page programmed with
// its sector ends must be kept exactly as Program keeps it from the bytes
// alone — the same Extent, the same bytes through View and ViewAt, the same
// kept-byte count. Each sector takes three bytes of spec (cycled; none: the
// seed's draws): how much of it is filled with non-zero bytes, how long a
// zero run ends the fill (a value ending in zeros), and how far past the
// sector's last non-zero byte its end lies, up to the sector's end; n cuts
// the data short of the page.
func FuzzProgramExtents(f *testing.F) {
	f.Add(uint8(2), uint16(16*1024), int64(1), []byte{0, 0, 0})
	f.Add(uint8(2), uint16(16*1024), int64(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), uint16(3*sectorSize), int64(3), []byte{9, 0, 9, 2, 3, 0, 5, 5, 5})
	f.Add(uint8(0), uint16(1000), int64(4), []byte{8, 1, 2})
	f.Add(uint8(2), uint16(9000), int64(5), []byte{})
	f.Add(uint8(2), uint16(16*1024-3), int64(6), []byte{9, 0, 0})
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed int64, spec []byte) {
		geo := fuzzGeometries[int(shape)%len(fuzzGeometries)]
		a, err := New(geo, DefaultLatency(), sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		draw := func(i int) int {
			if len(spec) == 0 {
				return rng.Intn(256)
			}
			return int(spec[i%len(spec)])
		}
		page := make([]byte, geo.PageSize)
		ends := make([]uint16, len(a.lens))
		for s := range ends {
			lo := s * sectorSize
			size := min(sectorSize, geo.PageSize-lo)
			fill := []int{0, 1, 63, 64, 65, size / 2, size - 64, size - 63, size - 1, size}[draw(3*s)%10]
			fill = max(0, min(fill, size))
			for i := lo; i < lo+fill; i++ {
				page[i] = byte(rng.Intn(255) + 1)
			}
			zeros := []int{0, 1, 63, 64, 65, 500}[draw(3*s+1)%6]
			clear(page[lo+max(0, fill-zeros) : lo+fill])
			last := trimZeros(page[lo : lo+size])
			ends[s] = uint16(min(size, last+[]int{0, 1, 7, 64, 4096}[draw(3*s+2)%5]))
		}
		data := page[:int(n)%(geo.PageSize+1)]
		p, q := PageAddr{Page: 1}, PageAddr{Page: 2}
		if _, err := a.Program(0, p, data); err != nil {
			t.Fatal(err)
		}
		held, _, stored := a.Payloads()
		if _, err := a.ProgramSectors(0, q, data, ends); err != nil {
			t.Fatal(err)
		}
		if h, _, both := a.Payloads(); h != held+1 || both-stored != stored {
			t.Fatalf("with ends the page keeps %d bytes, without %d", both-stored, stored)
		}
		pe, errP := a.Extent(p)
		qe, errQ := a.Extent(q)
		if pe != qe || errP != nil || errQ != nil {
			t.Fatalf("Extent with ends %d (%v), without %d (%v)", qe, errQ, pe, errP)
		}
		pv, errP := a.View(p)
		qv, errQ := a.View(q)
		if !bytes.Equal(pv, qv) || (errP == nil) != (errQ == nil) {
			t.Fatalf("View with ends: %d bytes (%v); without: %d bytes (%v)", len(qv), errQ, len(pv), errP)
		}
		pb, qb := make([]byte, geo.PageSize), make([]byte, geo.PageSize)
		if err := a.ViewAt(p, pb, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.ViewAt(q, qb, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, qb) || !bytes.Equal(pb[:len(data)], data) {
			t.Fatal("the page programmed with ends reads other bytes than the one without")
		}
	})
}
