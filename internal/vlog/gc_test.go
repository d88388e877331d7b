package vlog

import (
	"bytes"
	"testing"

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
