// Churn: a cache-like workload where a bounded working set is overwritten
// indefinitely — total bytes written far exceed the value log's capacity.
// Demonstrates the WiscKey-style vLog garbage collection this library adds
// beyond the paper (whose evaluation never deletes): the circular log keeps
// accepting writes as long as the live set fits, relocating live values and
// trimming dead pages whenever free space runs low.
//
// Run with: go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"bandslim"
)

func main() {
	cfg := bandslim.DefaultConfig()
	// A deliberately small device so GC pressure appears in seconds.
	g := &cfg.Device.Geometry
	g.Channels, g.WaysPerChannel, g.BlocksPerWay, g.PagesPerBlock, g.PageSize = 2, 2, 16, 32, 16*1024
	cfg.Device.Buffer.MaxEntries = 8
	cfg.Device.LSM.MemTableEntries = 256

	db, err := bandslim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const (
		liveKeys  = 2048
		valueSize = 3000
	)
	capacity := db.VLogFreeBytes()
	fmt.Printf("vLog capacity ~%d KiB; live set %d keys x %d B = %d KiB\n",
		capacity/1024, liveKeys, valueSize, liveKeys*valueSize/1024)

	// A seeded splitmix64 stream picks the keys, so every run prints the same
	// figures.
	state := uint64(99) + 0x9E3779B97F4A7C15
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	var written int64
	var compactions, relocated int
	value := make([]byte, valueSize)
	for round := 0; written < 4*capacity; round++ {
		k := int((next() >> 1) % liveKeys)
		value[0], value[1] = byte(round), byte(k)
		if err := db.Put([]byte(fmt.Sprintf("key%04d", k)), value); err != nil {
			log.Fatalf("round %d: %v", round, err)
		}
		written += valueSize

		// Maintenance: when free space dips below a watermark, flush the
		// buffers and reclaim the oldest pages.
		if db.VLogFreeBytes() < capacity/8 {
			if err := db.Flush(); err != nil {
				log.Fatal(err)
			}
			n, err := db.CompactVLog(16)
			if err != nil {
				log.Fatalf("compaction: %v", err)
			}
			compactions++
			relocated += n
		}
	}

	s := db.Stats()
	fmt.Printf("\nwrote %d KiB (%.1fx the log capacity) across %d PUTs\n",
		written/1024, float64(written)/float64(capacity), s.Host.Puts)
	fmt.Printf("compactions: %d, values relocated: %d\n", compactions, relocated)
	fmt.Printf("NAND pages written: %d (incl. GC relocation and LSM compaction)\n", s.Device.NANDPageWrites)

	// The live set survived the churn.
	intact := 0
	for k := 0; k < liveKeys; k++ {
		v, err := db.Get([]byte(fmt.Sprintf("key%04d", k)))
		if err == nil && len(v) == valueSize && v[1] == byte(k) {
			intact++
		}
	}
	fmt.Printf("live keys intact after wrap-around: %d/%d\n", intact, liveKeys)
	fmt.Printf("simulated time: %v\n", db.Now())
}
