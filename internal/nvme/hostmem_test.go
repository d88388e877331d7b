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
	if livePages(m) != 2 {
		t.Fatalf("live pages = %d", livePages(m))
	}
	m.FreePage(a)
	if livePages(m) != 1 {
		t.Fatalf("live pages after free = %d", livePages(m))
	}
	if _, err := m.Page(a); err == nil {
		t.Fatal("freed page still accessible")
	}
}

// livePages counts the mapped pages of m.
func livePages(m *HostMemory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Freeing the topmost pages shrinks the arena and hands their addresses out
// again; a page freed below a live one is a hole until the pages above it go
// too. Addresses stay in increasing order, so a run allocated together is
// consecutive.
func TestHostMemoryTrimsFromTheTop(t *testing.T) {
	m := NewHostMemory()
	a, b, c := m.AllocPage(), m.AllocPage(), m.AllocPage()
	m.FreePage(b)
	if len(m.pages) != 3 || livePages(m) != 2 {
		t.Fatalf("after freeing the middle page: %d slots, %d live", len(m.pages), livePages(m))
	}
	if _, err := m.Page(b); err == nil {
		t.Fatal("a freed hole is still accessible")
	}
	m.FreePage(c)
	if len(m.pages) != 1 {
		t.Fatalf("freeing the top page left %d slots, want 1", len(m.pages))
	}
	if got := m.AllocPage(); got != b {
		t.Fatalf("next page %#x, want the trimmed address %#x", got, b)
	}
	run := AllocStaging(m, 3*pcie.MemoryPageSize)
	for i, p := range run.Pages {
		if p != c+uint64(i)*pcie.MemoryPageSize {
			t.Fatalf("staging page %d at %#x, want %#x", i, p, c+uint64(i)*pcie.MemoryPageSize)
		}
	}
	for _, bad := range []uint64{0, a + 1, c + 8*pcie.MemoryPageSize} {
		if _, err := m.Page(bad); err == nil {
			t.Fatalf("unmapped address %#x accessible", bad)
		}
	}
}

// A value staged and freed per operation, past a persistent staging run,
// reuses the same addresses: a thousand rounds leave the arena at the length
// one round reached.
func TestBuildPRPFreeStaysAtHighWater(t *testing.T) {
	m := NewHostMemory()
	stage := AllocStaging(m, 16*pcie.MemoryPageSize)
	v := make([]byte, 17*pcie.MemoryPageSize+1)
	highCap := 0
	for i := 0; i < 1000; i++ {
		l, err := BuildPRP(m, v)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			highCap = cap(m.pages)
		}
		l.Free(m)
	}
	if len(m.pages) != len(stage.Pages) || cap(m.pages) != highCap {
		t.Fatalf("arena holds %d slots (capacity %d) after 1000 rounds; staging is %d pages, the first round's capacity %d",
			len(m.pages), cap(m.pages), len(stage.Pages), highCap)
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
	if livePages(m) != 0 {
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
		return livePages(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
