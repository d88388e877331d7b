package pagebuf

import "fmt"

// DLTEntry records one page-unit DMA placement: where the value landed in
// the vLog address space and how many bytes of it are value (the tail up to
// the next 4 KiB boundary is padding the backfilling WP may reuse).
//
// The paper stores entries compactly — a logical NAND page number (26 bits
// for 1 TB of 16 KiB pages) plus a 2-bit memory-page offset within the NAND
// page instead of a full 40-bit address, and 4 bytes of size — so a 512-entry
// table fits in 4 KiB of device memory (§3.3.3). Addr is therefore always
// 4 KiB aligned.
type DLTEntry struct {
	Addr int64 // vLog byte offset, 4 KiB aligned
	Size int64 // value bytes occupied starting at Addr
}

// DLT is the DMA Log Table: a fixed-capacity circular queue of DMA
// placements, consumed oldest-first as the write pointer sweeps past them.
// Entries are pushed in increasing address order (the vLog frontier only
// grows), so the head is always the lowest-addressed unconsumed entry and
// the backfilling check is O(1), as §3.3.3 requires.
type DLT struct {
	ring []DLTEntry
	head int
	size int
}

// NewDLT returns an empty table with the given capacity.
func NewDLT(capacity int) *DLT {
	if capacity < 1 {
		panic("pagebuf: DLT capacity must be >= 1")
	}
	return &DLT{ring: make([]DLTEntry, capacity)}
}

// Full reports whether another Push would overflow.
func (d *DLT) Full() bool { return d.size == len(d.ring) }

// Push appends a DMA record. Entries must arrive in increasing address
// order; violations are programming errors and panic. Pushing into a full
// table returns an error so the caller can retire old entries first.
func (d *DLT) Push(e DLTEntry) error {
	if d.size == len(d.ring) {
		return fmt.Errorf("pagebuf: DLT full (%d entries)", d.size)
	}
	if d.size > 0 {
		last := d.ring[(d.head+d.size-1)%len(d.ring)]
		if e.Addr < last.Addr {
			panic(fmt.Sprintf("pagebuf: DLT push out of order: %d after %d", e.Addr, last.Addr))
		}
	}
	d.ring[(d.head+d.size)%len(d.ring)] = e
	d.size++
	return nil
}

// Oldest reports the lowest-addressed unconsumed entry.
func (d *DLT) Oldest() (DLTEntry, bool) {
	if d.size == 0 {
		return DLTEntry{}, false
	}
	return d.ring[d.head], true
}

// Consume retires the oldest entry. Consuming an empty table panics.
func (d *DLT) Consume() DLTEntry {
	if d.size == 0 {
		panic("pagebuf: Consume on empty DLT")
	}
	e := d.ring[d.head]
	d.head = (d.head + 1) % len(d.ring)
	d.size--
	return e
}

// Reset clears the table.
func (d *DLT) Reset() {
	d.head = 0
	d.size = 0
}
