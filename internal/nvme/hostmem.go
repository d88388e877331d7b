package nvme

import (
	"fmt"

	"bandslim/internal/pcie"
)

// HostMemory models the pinned DMA-able host memory the driver stages values
// in. Pages are addressed by synthetic 4 KiB-aligned physical addresses so
// PRP entries look and behave like the real thing (page-aligned, one page
// each). The backing store is real bytes, so values round-trip through the
// simulated DMA engine intact.
type HostMemory struct {
	pages map[uint64][]byte
	next  uint64
}

// NewHostMemory returns an empty host memory arena.
func NewHostMemory() *HostMemory {
	return &HostMemory{pages: make(map[uint64][]byte), next: 0x1000}
}

// AllocPage allocates one pinned 4 KiB page and returns its address.
func (m *HostMemory) AllocPage() uint64 {
	addr := m.next
	m.next += pcie.MemoryPageSize
	m.pages[addr] = make([]byte, pcie.MemoryPageSize)
	return addr
}

// FreePage releases a page. Freeing an unknown address panics: that is a
// driver bug, not a runtime condition.
func (m *HostMemory) FreePage(addr uint64) {
	if _, ok := m.pages[addr]; !ok {
		panic(fmt.Sprintf("nvme: FreePage of unmapped address %#x", addr))
	}
	delete(m.pages, addr)
}

// Page returns the backing bytes of a page for reading or writing.
func (m *HostMemory) Page(addr uint64) ([]byte, error) {
	p, ok := m.pages[addr]
	if !ok {
		return nil, fmt.Errorf("nvme: access to unmapped host page %#x", addr)
	}
	return p, nil
}

// PRPList describes a payload in host memory as a list of page addresses,
// exactly as the PRP mechanism does: the payload occupies each listed page
// from its start, and only the last page may be partially used.
type PRPList struct {
	Pages   []uint64
	Payload int // payload size in bytes
}

// BuildPRP stages value into freshly allocated host pages and returns the
// PRP list describing it. An empty value yields an empty list.
func BuildPRP(m *HostMemory, value []byte) (PRPList, error) {
	var l PRPList
	l.Payload = len(value)
	for off := 0; off < len(value); off += pcie.MemoryPageSize {
		addr := m.AllocPage()
		page, err := m.Page(addr)
		if err != nil {
			return PRPList{}, err
		}
		end := off + pcie.MemoryPageSize
		if end > len(value) {
			end = len(value)
		}
		copy(page, value[off:end])
		l.Pages = append(l.Pages, addr)
	}
	return l, nil
}

// Free releases every page in the list.
func (l PRPList) Free(m *HostMemory) {
	for _, p := range l.Pages {
		m.FreePage(p)
	}
}

// TransferSize reports the number of bytes a page-unit DMA of this list
// moves: full pages, regardless of how much of the last page the payload
// uses. This is the traffic bloat of §2.3 Problem #1.
func (l PRPList) TransferSize() int {
	return len(l.Pages) * pcie.MemoryPageSize
}

// AllocStaging allocates a persistent staging region of n bytes (rounded up
// to whole pages) and returns its PRP list. The pages are freshly allocated
// in one run, so their addresses are consecutive — the property the device's
// PRP reconstruction relies on. The driver allocates one such region per
// stack at first use and reuses it for every operation, which is what makes
// the per-op path free of host-memory churn; WithPayload derives the per-op
// view.
func AllocStaging(m *HostMemory, n int) PRPList {
	var l PRPList
	l.Payload = n
	for off := 0; off < n; off += pcie.MemoryPageSize {
		l.Pages = append(l.Pages, m.AllocPage())
	}
	return l
}

// WithPayload returns a view of the list describing the first n staged bytes:
// the page run is shared, only the payload length differs. n beyond the
// region's page capacity panics — that is a driver sizing bug.
func (l PRPList) WithPayload(n int) PRPList {
	if n > len(l.Pages)*pcie.MemoryPageSize {
		panic(fmt.Sprintf("nvme: payload %d exceeds staging capacity %d", n, len(l.Pages)*pcie.MemoryPageSize))
	}
	pages := (n + pcie.MemoryPageSize - 1) / pcie.MemoryPageSize
	return PRPList{Pages: l.Pages[:pages], Payload: n}
}

// GatherInto appends the payload to dst and returns the extended slice
// (device-side view after DMA); the driver's read path passes its reusable
// staging buffer (GatherInto(m, buf[:0])).
func (l PRPList) GatherInto(m *HostMemory, dst []byte) ([]byte, error) {
	remain := l.Payload
	for _, addr := range l.Pages {
		page, err := m.Page(addr)
		if err != nil {
			return nil, err
		}
		take := remain
		if take > len(page) {
			take = len(page)
		}
		dst = append(dst, page[:take]...)
		remain -= take
	}
	if remain != 0 {
		return nil, fmt.Errorf("nvme: PRP list short by %d bytes", remain)
	}
	return dst, nil
}

// Scatter copies data into the pages of the list (device-to-host direction,
// used by reads). data longer than the list's capacity is an error.
func (l PRPList) Scatter(m *HostMemory, data []byte) error {
	if len(data) > l.TransferSize() {
		return fmt.Errorf("nvme: scatter of %d bytes into %d-byte PRP list", len(data), l.TransferSize())
	}
	off := 0
	for _, addr := range l.Pages {
		if off >= len(data) {
			break
		}
		page, err := m.Page(addr)
		if err != nil {
			return err
		}
		off += copy(page, data[off:])
	}
	return nil
}
