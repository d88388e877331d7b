package bandslim_test

// Race-detector coverage for the fault path: concurrent traffic across shards
// while the plan injects retryable transients, media failures and a power
// cut, with recovery issued from a racing goroutine. Run under `make race`.

import (
	"fmt"
	"sync"
	"testing"

	"bandslim"
	"bandslim/internal/sim"
)

func TestFaultRaceSharded(t *testing.T) {
	plan := faultPlan(t, 7, "dma.in every=5 transient", "nand.program every=9 media", "exec nth=120 powercut")
	cfg := bandslim.ShardedConfig{Shards: 4, PerShard: tinyFaultConfig(plan)}
	db, err := bandslim.OpenSharded(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			for op := 0; op < 60; op++ {
				key := []byte(fmt.Sprintf("w%02d-%02d", w, rng.Intn(16)))
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = db.GetInto(key, nil)
				case 1:
					err = db.Delete(key)
				default:
					err = db.Put(key, mcValue(rng))
				}
				if err != nil && bandslim.IsPowerLoss(err) {
					// Races with other workers' Recover calls by design:
					// mounting a healthy shard is a harmless no-op.
					_ = db.Recover()
				}
			}
		}(w)
	}
	wg.Wait()

	// The stack must still be serviceable after the storm.
	if err := db.Recover(); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if err := db.Put([]byte("final"), []byte("ok")); err != nil {
		// One retry covers a pending Nth-armed fault.
		if bandslim.IsPowerLoss(err) {
			if err := db.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
		}
		if err := db.Put([]byte("final"), []byte("ok")); err != nil {
			t.Fatalf("post-storm put: %v", err)
		}
	}
	v, err := db.GetInto([]byte("final"), nil)
	if err != nil || string(v) != "ok" {
		t.Fatalf("post-storm get: %q, %v", v, err)
	}
}
