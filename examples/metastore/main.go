// Metastore: the workload the paper's introduction motivates — a metadata
// store where values average well under a hundred bytes (Meta reports
// production RocksDB values "nearly not reaching a hundred bytes on
// average"). It writes a mixgraph-like stream against both the stock NVMe
// KV-SSD configuration (PRP transfer + block packing) and BandSlim (adaptive
// transfer + backfilling), then compares PCIe traffic, NAND writes, and
// response times — the paper's headline trade.
//
// Run with: go run ./examples/metastore
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"bandslim"
)

const ops = 30000

func runStore(name string, method bandslim.TransferMethod, policy bandslim.PackingPolicy) bandslim.Stats {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	db, err := bandslim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(7)) // both stores see the same pairs
	buf := make([]byte, 1024)
	for i := 0; i < ops; i++ {
		// An odd multiplier permutes uint32, so the keys are unique yet
		// scattered.
		key := binary.BigEndian.AppendUint32(nil, uint32(i)*2654435761)
		// Production-like sizes: a Generalized Pareto draw (σ=14, ξ=0.9)
		// capped at 1 KiB puts ~70% of values under 35 B.
		x := 14 / 0.9 * (math.Pow(1-rng.Float64(), -0.9) - 1)
		value := buf[:min(1+int(x), len(buf))]
		rng.Read(value)
		if err := db.Put(key, value); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	return db.Stats()
}

func main() {
	fmt.Printf("writing %d production-like pairs (mixgraph: ~70%% under 35 B)...\n\n", ops)

	stock := runStore("stock", bandslim.Baseline, bandslim.Block)
	slim := runStore("bandslim", bandslim.Adaptive, bandslim.BackfillPacking)

	fmt.Printf("%-22s %15s %15s\n", "", "stock KV-SSD", "BandSlim")
	fmt.Printf("%-22s %15d %15d\n", "PCIe bytes", stock.PCIe.Bytes, slim.PCIe.Bytes)
	fmt.Printf("%-22s %15d %15d\n", "NAND page writes", stock.Device.NANDPageWrites, slim.Device.NANDPageWrites)
	fmt.Printf("%-22s %15v %15v\n", "mean PUT response", stock.Host.WriteResp.Mean, slim.Host.WriteResp.Mean)
	fmt.Printf("%-22s %15.1f %15.1f\n", "throughput (Kops/s)", stock.Host.ThroughputKops, slim.Host.ThroughputKops)

	fmt.Printf("\nPCIe traffic reduction: %.1f%%\n",
		100*(1-float64(slim.PCIe.Bytes)/float64(stock.PCIe.Bytes)))
	fmt.Printf("NAND write reduction:   %.1f%%\n",
		100*(1-float64(slim.Device.NANDPageWrites)/float64(stock.Device.NANDPageWrites)))
	fmt.Printf("speedup:                %.2fx\n",
		slim.Host.ThroughputKops/stock.Host.ThroughputKops)
}
