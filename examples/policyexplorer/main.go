// Policyexplorer: run the same mixed workload against all four in-device
// packing policies (Block, All, Selective, Backfill) and print the trade-off
// triangle the paper's §4.3 explores: NAND page writes vs device memcpy time
// vs response time. Change -mix to see how the winner shifts with the
// large-value fraction, reproducing the W(B)/W(C) tension of Fig. 12.
//
// Run with: go run ./examples/policyexplorer [-mix 0.1] [-ops 20000]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"bandslim"
)

func main() {
	var (
		mix = flag.Float64("mix", 0.1, "fraction of 2 KiB values (rest are 8 B)")
		ops = flag.Int("ops", 20000, "operations per policy")
	)
	flag.Parse()
	if *mix < 0 || *mix > 1 {
		log.Fatal("mix must be in [0,1]")
	}

	policies := []struct {
		name   string
		policy bandslim.PackingPolicy
	}{
		{"Block (baseline)", bandslim.Block},
		{"All Packing", bandslim.AllPacking},
		{"Selective", bandslim.SelectivePacking},
		{"Backfill", bandslim.BackfillPacking},
	}

	fmt.Printf("workload: %d PUTs, %.0f%% 8 B / %.0f%% 2 KiB, adaptive transfer\n\n",
		*ops, 100*(1-*mix), 100**mix)
	fmt.Printf("%-18s %12s %12s %14s %12s\n",
		"policy", "NAND pages", "memcpy", "mean resp", "Kops/s")

	for _, p := range policies {
		cfg := bandslim.DefaultConfig()
		cfg.Policy = p.policy
		db, err := bandslim.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11)) // every policy sees the same pairs
		buf := make([]byte, 2048)
		for i := 0; i < *ops; i++ {
			value := buf[:8]
			if rng.Float64() < *mix {
				value = buf
			}
			rng.Read(value)
			// An odd multiplier permutes uint32: unique, scattered keys.
			key := binary.BigEndian.AppendUint32(nil, uint32(i)*2654435761)
			if err := db.Put(key, value); err != nil {
				log.Fatal(err)
			}
		}
		timing := db.Stats() // steady-state timings, before the drain
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}
		s := db.Stats()
		fmt.Printf("%-18s %12d %12v %14v %12.1f\n",
			p.name, s.Device.NANDPageWrites, s.Device.MemcpyTime, timing.Host.WriteResp.Mean, timing.Host.ThroughputKops)
		db.Close()
	}

	fmt.Println("\nreading the triangle:")
	fmt.Println("  Block burns a 4 KiB slot per value; All copies every DMA value;")
	fmt.Println("  Selective skips copies but fragments; Backfill fills the gaps.")
	fmt.Println("  Raise -mix toward 0.9 to watch All Packing take the lead (W(C)),")
	fmt.Println("  lower it to see Backfill win the small-value regime (W(B)/W(M)).")
}
