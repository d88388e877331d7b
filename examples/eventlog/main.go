// Eventlog: a mixed-size ingestion scenario — a stream of telemetry events
// where most records are tiny counters but occasional payload blobs (stack
// traces, snapshots) run to kilobytes, i.e. the paper's Workload B shape.
// It demonstrates the adaptive transfer method switching between inline
// piggybacking, PRP DMA, and hybrid transfer per record, and then reads a
// time-ordered window back through the iterator.
//
// Run with: go run ./examples/eventlog
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"bandslim"
)

func main() {
	cfg := bandslim.DefaultConfig()
	db, err := bandslim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A seeded splitmix64 stream draws the event mix, so every run prints the
	// same figures.
	state := uint64(2024) + 0x9E3779B97F4A7C15
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	chance := func(p float64) bool { return float64(next()>>11)/(1<<53) < p }
	upTo := func(n int) int { return int((next() >> 1) % uint64(n)) }
	const events = 20000
	fmt.Printf("ingesting %d events (90%% tiny counters, 10%% KB-scale blobs)...\n", events)

	var counters, blobs, oversize int
	for i := 0; i < events; i++ {
		// Keys are big-endian sequence numbers so iteration is
		// time-ordered.
		key := make([]byte, 8)
		binary.BigEndian.PutUint64(key, uint64(i))
		var value []byte
		switch {
		case chance(0.9):
			value = make([]byte, 8+upTo(24)) // counter deltas
			counters++
		case chance(0.9):
			value = make([]byte, 1024+upTo(3072)) // payload blob
			blobs++
		default:
			value = make([]byte, 4096+upTo(128)) // just over a page: hybrid
			oversize++
		}
		value[0] = byte(i)
		if err := db.Put(key, value); err != nil {
			log.Fatal(err)
		}
	}

	s := db.Stats()
	fmt.Printf("ingested: %d counters, %d blobs, %d over-page records\n", counters, blobs, oversize)
	fmt.Printf("transfer picks: inline=%d prp=%d hybrid=%d\n", s.Adaptive.Inline, s.Adaptive.PRP, s.Adaptive.Hybrid)
	fmt.Printf("mean PUT response %v; throughput %.1f Kops/s (simulated)\n", s.Host.WriteResp.Mean, s.Host.ThroughputKops)
	fmt.Printf("PCIe traffic %d B for %d payload-carrying commands\n", s.PCIe.Bytes, s.Host.Commands)

	// Replay a window: events 1000..1009.
	start := make([]byte, 8)
	binary.BigEndian.PutUint64(start, 1000)
	it, err := db.NewIterator(start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreplaying events 1000..1009:")
	for i := 0; i < 10 && it.Valid(); i++ {
		seq := binary.BigEndian.Uint64(it.Key())
		fmt.Printf("  event %d: %d bytes\n", seq, len(it.Value()))
		it.Next()
	}
	if it.Err() != nil {
		log.Fatal(it.Err())
	}
}
