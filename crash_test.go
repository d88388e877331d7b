package bandslim_test

// Crash-consistency sweep: run one fixed deterministic workload and cut
// power at every command boundary — and at interior DMA and NAND-program
// points — then recover and verify that every write acknowledged before the
// cut is present with its exact value. Each cut point runs twice to prove
// the whole crash+recovery path is deterministic.

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim"
	"bandslim/internal/sim"
)

// crashWorkload drives a fixed op sequence, recording acknowledged state in
// acked (nil value = acked delete). It stops permanently once power is cut:
// the driver reports StatusPowerLoss and the harness moves to verification.
func crashWorkload(t *testing.T, db *bandslim.DB) (acked map[string][]byte, cut bool) {
	t.Helper()
	acked = map[string][]byte{}
	rng := sim.NewRNG(0xC0FFEE)
	step := func(key string, value []byte, err error) bool {
		if err == nil {
			acked[key] = value
			return false
		}
		if bandslim.IsPowerLoss(err) {
			return true
		}
		t.Fatalf("workload: unexpected error: %v", err)
		return true
	}
	for op := 0; op < 30; op++ {
		key := fmt.Sprintf("c%02d", op%12)
		switch {
		case op%7 == 5: // delete an earlier key
			if step(key, nil, db.Delete([]byte(key))) {
				return acked, true
			}
		case op%11 == 10: // flush
			if err := db.Flush(); err != nil {
				if bandslim.IsPowerLoss(err) {
					return acked, true
				}
				t.Fatalf("flush: %v", err)
			}
		case op%5 == 4: // batch read through the submission window
			// Before the cut no mutation has failed, so the store must match
			// the acked map exactly — and the window must keep matching it
			// even when the cut lands mid-batch on a later occurrence.
			keys := make([][]byte, 4)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("c%02d", (op+3*i)%12))
			}
			miss := make([]bool, 4)
			vals, err := db.GetBatchSparse(keys, make([][]byte, 4), miss)
			if err != nil {
				if bandslim.IsPowerLoss(err) {
					return acked, true
				}
				t.Fatalf("batch get: %v", err)
			}
			for i, k := range keys {
				want, known := acked[string(k)]
				if !known || want == nil {
					if !miss[i] {
						t.Fatalf("batch get %s: expected absent, got %d bytes", k, len(vals[i]))
					}
					continue
				}
				if miss[i] || !bytes.Equal(vals[i], want) {
					t.Fatalf("batch get %s: got %d bytes, want %d", k, len(vals[i]), len(want))
				}
			}
		default:
			value := mcValue(rng)
			if step(key, value, db.Put([]byte(key), value)) {
				return acked, true
			}
		}
	}
	return acked, false
}

// crashVerify recovers (if power was cut) and checks every acknowledged
// write. It returns a deterministic dump of the final state for the two-run
// comparison.
func crashVerify(t *testing.T, db *bandslim.DB, acked map[string][]byte, cut bool) []byte {
	t.Helper()
	if cut {
		if err := db.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
	}
	var dump bytes.Buffer
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("c%02d", i)
		// A cut point past the workload's command count fires during these
		// verification reads instead; recover and retry.
		var got []byte
		for attempt := 0; ; attempt++ {
			var err error
			got, err = db.GetInto([]byte(key), nil)
			if err == nil {
				break
			}
			if bandslim.IsNotFound(err) {
				got = nil
				break
			}
			if bandslim.IsPowerLoss(err) && attempt < 4 {
				if err := db.Recover(); err != nil {
					t.Fatalf("verify %s: recover: %v", key, err)
				}
				continue
			}
			t.Fatalf("verify %s: %v", key, err)
		}
		if want, ok := acked[key]; ok {
			if want == nil {
				// Acked delete: a later unacked put may have been indexed,
				// so presence is legal — but it must not be a torn value;
				// nothing to compare against, so just record it in the dump.
			} else if got == nil {
				t.Fatalf("acked write %s lost after recovery", key)
			} else if !bytes.Equal(got, want) {
				t.Fatalf("key %s: got %d bytes, want %d", key, len(got), len(want))
			}
		}
		fmt.Fprintf(&dump, "%s=%d\n", key, len(got))
	}
	st := db.Stats()
	fmt.Fprintf(&dump, "cuts=%d mounts=%d replayed=%d programs=%d\n",
		st.Faults.PowerCuts, st.Faults.Mounts, st.Faults.ReplayedRecords,
		st.Device.NANDPageWrites)
	return dump.Bytes()
}

// runCrashPoint executes the workload with one power cut injected at the
// given site/occurrence, verifies, and returns the state dump. The cut
// occurrence also picks the submission queue depth (rotating through 1, 4,
// and 8 via mcSubmission) and the read-cache configuration (rotating through
// off, LRU, and 2Q via mcCache — device DRAM is volatile, so every cut also
// proves the caches drop and repopulate coherently), so the sweep covers
// every depth and cache tier; both determinism runs of a point share its
// depth and cache config.
func runCrashPoint(t *testing.T, site string, nth int) []byte {
	t.Helper()
	cfg := tinyFaultConfig(faultPlan(t, 1, fmt.Sprintf("%s nth=%d powercut", site, nth)))
	cfg.Submission = mcSubmission(uint64(nth))
	cfg.Cache = mcCache(uint64(nth))
	db, err := bandslim.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	acked, cut := crashWorkload(t, db)
	return crashVerify(t, db, acked, cut)
}

// TestCrashSweep cuts power at every command boundary (exec occurrences 1
// through 60 cover the whole 30-op workload including its transfer
// fragments) and at interior DMA-transfer and NAND-program points, then
// proves recovery at each point and determinism across a second identical
// run.
func TestCrashSweep(t *testing.T) {
	type point struct {
		site string
		nth  int
	}
	var points []point
	for k := 1; k <= 60; k++ {
		points = append(points, point{"exec", k})
	}
	for k := 1; k <= 12; k++ {
		points = append(points, point{"dma.in", k})
		points = append(points, point{"nand.program", k})
	}
	for _, p := range points {
		name := fmt.Sprintf("%s/nth=%d", p.site, p.nth)
		first := runCrashPoint(t, p.site, p.nth)
		second := runCrashPoint(t, p.site, p.nth)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: non-deterministic recovery:\nrun1:\n%srun2:\n%s", name, first, second)
		}
	}
	// The uncut baseline must also be reproducible.
	base1 := runCrashPoint(t, "exec", 100000)
	base2 := runCrashPoint(t, "exec", 100000)
	if !bytes.Equal(base1, base2) {
		t.Fatalf("baseline non-deterministic:\nrun1:\n%srun2:\n%s", base1, base2)
	}
}
