package nand

import (
	"testing"

	"bandslim/internal/sim"
)

// BenchmarkArrayViewAt measures finding a page's payload and copying a
// value-sized range out of it (`go test -run '^$' -bench ViewAt -benchmem
// ./internal/nand`): 16 Ki programmed vLog-like pages of the default
// geometry — each sector keeps a 100-byte value and a zero tail — read 64
// bytes at a time in a fixed scattered order.
func BenchmarkArrayViewAt(b *testing.B) {
	geo := DefaultGeometry()
	a, err := New(geo, DefaultLatency(), sim.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	const n = 16 << 10
	data := make([]byte, geo.PageSize)
	for s := 0; s < geo.PageSize; s += sectorSize {
		for j := 0; j < 100; j++ {
			data[s+j] = byte(s/sectorSize + j + 1)
		}
	}
	addrs := make([]PageAddr, n)
	for i := range addrs {
		// Consecutive pages fill a block, and blocks stripe over the ways.
		blk, pg := i/geo.PagesPerBlock, i%geo.PagesPerBlock
		w := blk % geo.Ways()
		addrs[i] = PageAddr{Channel: w / geo.WaysPerChannel, Way: w % geo.WaysPerChannel, Block: blk / geo.Ways(), Page: pg}
		if _, err := a.Program(0, addrs[i], data); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ViewAt(addrs[(i*7919)%n], dst, sectorSize+16); err != nil {
			b.Fatal(err)
		}
	}
}
