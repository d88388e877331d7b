package vlog

import (
	"bytes"
	"errors"
	"testing"

	"bandslim/internal/ftl"
	"bandslim/internal/pagebuf"
)

func TestTailStartsAtZero(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	if v.Tail() != 0 {
		t.Fatalf("Tail = %d", v.Tail())
	}
	if v.FreeBytes() <= 0 {
		t.Fatal("fresh vLog reports no free space")
	}
}

func TestAdvanceTailValidation(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	if err := v.AdvanceTail(100); err == nil {
		t.Fatal("unaligned tail accepted")
	}
	if err := v.AdvanceTail(16 * 1024); err == nil {
		t.Fatal("tail beyond flushed boundary accepted")
	}
	// Write and flush a page, then advancing over it works once.
	v.AppendPiggybacked(0, make([]byte, 20000))
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := v.AdvanceTail(16 * 1024); err != nil {
		t.Fatal(err)
	}
	if v.Tail() != 16*1024 {
		t.Fatalf("Tail = %d after reclaiming one page", v.Tail())
	}
	if err := v.AdvanceTail(0); err == nil {
		t.Fatal("backwards tail accepted")
	}
}

func TestReadBelowTailRejected(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	addr, _, err := v.AppendPiggybacked(0, bytes.Repeat([]byte{7}, 100))
	if err != nil {
		t.Fatal(err)
	}
	v.AppendPiggybacked(0, make([]byte, 20000))
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := v.AdvanceTail(16 * 1024); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(0, addr, 100); err == nil {
		t.Fatal("read below reclaimed tail accepted")
	}
}

// The circular mapping: appending beyond the region size succeeds once the
// tail has advanced, and data lands intact on the reused pages.
func TestCircularWrapReusesPages(t *testing.T) {
	v := smallRegionVLog(t, 4) // 4-page region
	page := 16 * 1024
	// Fill 3 pages, flush, reclaim 2.
	v.AppendPiggybacked(0, make([]byte, 3*page-100))
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := v.AdvanceTail(int64(2 * page)); err != nil {
		t.Fatal(err)
	}
	// Now there is room for ~2 more pages; the appends wrap onto the
	// reclaimed physical pages.
	marker := bytes.Repeat([]byte{0xAB}, 3000)
	addr, _, err := v.AppendPiggybacked(0, marker)
	if err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
	got, _, err := v.Read(0, addr, len(marker))
	if err != nil || !bytes.Equal(got, marker) {
		t.Fatalf("wrapped read mismatch: %v", err)
	}
	// Overfilling beyond the live window still fails cleanly.
	var sawErr bool
	for i := 0; i < 10; i++ {
		if _, _, err := v.AppendPiggybacked(0, make([]byte, page)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no capacity error despite exceeding the live window")
	}
}

func TestFreeBytesShrinksAndRecovers(t *testing.T) {
	v := smallRegionVLog(t, 8)
	before := v.FreeBytes()
	v.AppendPiggybacked(0, make([]byte, 40000))
	mid := v.FreeBytes()
	if mid >= before {
		t.Fatal("FreeBytes did not shrink")
	}
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := v.AdvanceTail(int64(2 * 16 * 1024)); err != nil {
		t.Fatal(err)
	}
	if v.FreeBytes() <= mid {
		t.Fatal("FreeBytes did not recover after reclaim")
	}
}

// Contains bounds an index entry by the reclaimed tail below and the append
// frontier above, each inclusive of its edge and refusing one byte past it.
func TestContainsBounds(t *testing.T) {
	v := newVLog(t, pagebuf.PolicyAll)
	v.AppendPiggybacked(0, make([]byte, 20000))
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	v.AppendPiggybacked(0, make([]byte, 100))
	if err := v.AdvanceTail(16 * 1024); err != nil {
		t.Fatal(err)
	}
	tail, front := v.Tail(), v.Buffer().Frontier()
	if tail == 0 || front <= tail+2 {
		t.Fatalf("tail %d, frontier %d: want a live range above a reclaimed tail", tail, front)
	}
	for _, c := range []struct {
		name string
		addr int64
		n    int
		want bool
	}{
		{"one byte below the tail", tail - 1, 2, false},
		{"at the tail", tail, 2, true},
		{"ending at the frontier", front - 2, 2, true},
		{"one byte past the frontier", front - 1, 2, false},
	} {
		if got := v.Contains(Addr(c.addr), c.n); got != c.want {
			t.Errorf("%s: Contains(%d, %d) = %v, want %v (tail %d, frontier %d)", c.name, c.addr, c.n, got, c.want, tail, front)
		}
	}
}

// reclaimedVLog is a four-page vLog whose first page has been reclaimed: its
// tail and its frontier both sit above zero, one page apart.
func reclaimedVLog(t *testing.T) *VLog {
	t.Helper()
	v := smallRegionVLog(t, 4)
	if _, _, err := v.AppendPiggybacked(0, bytes.Repeat([]byte{7}, 20000)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := v.AdvanceTail(16 * 1024); err != nil {
		t.Fatal(err)
	}
	if v.Tail() != 16*1024 || v.Buffer().Frontier() != 2*16*1024 {
		t.Fatalf("tail %d, frontier %d: want one page and two", v.Tail(), v.Buffer().Frontier())
	}
	return v
}

// An append fits while the frontier, the value and one page of slack stay
// within the tail plus the region's capacity: the value that fills that room
// exactly is taken, one byte more is refused with ErrNoSpace.
func TestAppendRoomBoundary(t *testing.T) {
	v := reclaimedVLog(t)
	room := v.Tail() + v.CapacityBytes() - v.Buffer().Frontier() - 16*1024
	if room != v.FreeBytes() || room <= 0 {
		t.Fatalf("room %d, FreeBytes %d", room, v.FreeBytes())
	}
	if _, _, err := v.AppendPiggybacked(0, make([]byte, room+1)); !errors.Is(err, ftl.ErrNoSpace) {
		t.Fatalf("append of %d bytes into %d of room: err %v, want ErrNoSpace", room+1, room, err)
	}
	if _, _, err := v.AppendDMA(0, make([]byte, room)); err != nil {
		t.Fatalf("append of exactly the %d bytes of room: %v", room, err)
	}
}

// ReadInto serves a range inside [tail, frontier), each edge inclusive, and
// refuses one that reaches a byte past either.
func TestReadIntoRange(t *testing.T) {
	v := reclaimedVLog(t)
	if _, _, err := v.AppendPiggybacked(0, bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	tail, front := v.Tail(), v.Buffer().Frontier()
	for _, c := range []struct {
		name string
		addr int64
		want byte // the bytes read; 0: refused
	}{
		{"at the tail", tail, 7},
		{"one byte below the tail", tail - 1, 0},
		{"ending at the frontier", front - 2, 9},
		{"one byte past the frontier", front - 1, 0},
	} {
		got, _, err := v.ReadInto(0, Addr(c.addr), 2, nil)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("%s: read [%d, %d) served %v, want refused (tail %d, frontier %d)", c.name, c.addr, c.addr+2, got, tail, front)
		case c.want != 0 && (err != nil || !bytes.Equal(got, []byte{c.want, c.want})):
			t.Errorf("%s: read [%d, %d) = %v, err %v, want two %d bytes", c.name, c.addr, c.addr+2, got, err, c.want)
		}
	}
}
