package nvme

import (
	"bytes"
	"testing"
	"testing/quick"

	"bandslim/internal/pcie"
)

func TestHostMemoryAllocFree(t *testing.T) {
	m := NewHostMemory()
	a := m.AllocPage()
	b := m.AllocPage()
	if a == b {
		t.Fatal("two allocations returned the same address")
	}
	if a%pcie.MemoryPageSize != 0 || b%pcie.MemoryPageSize != 0 {
		t.Fatal("page addresses not 4 KiB aligned")
	}
	if len(m.pages) != 2 {
		t.Fatalf("live pages = %d", len(m.pages))
	}
	m.FreePage(a)
	if len(m.pages) != 1 {
		t.Fatalf("live pages after free = %d", len(m.pages))
	}
	if _, err := m.Page(a); err == nil {
		t.Fatal("freed page still accessible")
	}
}

func TestHostMemoryDoubleFreePanics(t *testing.T) {
	m := NewHostMemory()
	a := m.AllocPage()
	m.FreePage(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.FreePage(a)
}

func TestBuildPRPSmallValue(t *testing.T) {
	m := NewHostMemory()
	v := []byte("hello")
	l, err := BuildPRP(m, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Pages) != 1 {
		t.Fatalf("pages = %d", len(l.Pages))
	}
	if l.TransferSize() != pcie.MemoryPageSize {
		t.Fatalf("TransferSize = %d", l.TransferSize())
	}
	got, err := l.GatherInto(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatalf("gathered %q", got)
	}
	l.Free(m)
	if len(m.pages) != 0 {
		t.Fatal("pages leaked after Free")
	}
}

// The paper's (4K+32)B case: two pages, 8 KiB of DMA traffic.
func TestBuildPRPPageBoundaryBloat(t *testing.T) {
	m := NewHostMemory()
	v := make([]byte, 4096+32)
	for i := range v {
		v[i] = byte(i)
	}
	l, err := BuildPRP(m, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(l.Pages))
	}
	if l.TransferSize() != 8192 {
		t.Fatalf("TransferSize = %d, want 8192", l.TransferSize())
	}
	got, err := l.GatherInto(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("gather mismatch")
	}
}

func TestBuildPRPEmptyValue(t *testing.T) {
	m := NewHostMemory()
	l, err := BuildPRP(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Pages) != 0 || l.TransferSize() != 0 {
		t.Fatal("empty value allocated pages")
	}
	got, err := l.GatherInto(m, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("gather of empty list: %v, %v", got, err)
	}
}

func TestScatterRoundTrip(t *testing.T) {
	m := NewHostMemory()
	l, err := BuildPRP(m, make([]byte, 5000)) // 2 pages of capacity
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := l.Scatter(m, data); err != nil {
		t.Fatal(err)
	}
	got, err := l.GatherInto(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scatter/gather mismatch")
	}
}

func TestScatterOverflow(t *testing.T) {
	m := NewHostMemory()
	l, err := BuildPRP(m, make([]byte, 100)) // 1 page capacity
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Scatter(m, make([]byte, 5000)); err == nil {
		t.Fatal("oversized scatter accepted")
	}
}

// Property: values of any size round-trip through PRP build/gather, and the
// page count is exactly ceil(len/4096).
func TestPRPRoundTripProperty(t *testing.T) {
	f := func(seed uint32, size uint16) bool {
		m := NewHostMemory()
		v := make([]byte, size)
		s := seed
		for i := range v {
			s = s*1664525 + 1013904223
			v[i] = byte(s >> 24)
		}
		l, err := BuildPRP(m, v)
		if err != nil {
			return false
		}
		if len(l.Pages) != pcie.PagesFor(len(v)) {
			return false
		}
		got, err := l.GatherInto(m, nil)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, v) {
			return false
		}
		l.Free(m)
		return len(m.pages) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
