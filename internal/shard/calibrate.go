package shard

import (
	"fmt"

	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/pagebuf"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

// ProbePut is one exploratory run of §3.2: n PUTs of size-byte values sent by
// method m through a throwaway headline stack (default device, backfill
// packing) with NAND disabled, as the paper's transfer benchmarks do. It
// reports the mean simulated PUT response.
func ProbePut(m driver.Method, size, n int) (sim.Duration, error) {
	dcfg := device.DefaultConfig()
	dcfg.Buffer.Policy = pagebuf.PolicyBackfill
	dcfg.NANDEnabled = false
	st, err := NewStack(Options{Device: dcfg, Method: m, Thresholds: driver.DefaultThresholds()})
	if err != nil {
		return 0, err
	}
	value := make([]byte, size)
	key := []byte{0, 0, 0, 0}
	for i := 0; i < n; i++ {
		key[0], key[1] = byte(i>>8), byte(i)
		if err := st.Drv.Put(key, value); err != nil {
			return 0, err
		}
	}
	return sim.Duration(st.Drv.Stats().WriteResponse.Mean()), nil
}

// Calibrate derives the adaptive thresholds from ProbePut runs of perSize
// PUTs each: Threshold1 is the largest probed size where piggybacking is no
// slower than PRP, Threshold2 the largest over-page tail where hybrid is no
// slower than PRP. Alpha and Beta keep their defaults of 1.
func Calibrate(perSize int) (driver.Thresholds, error) {
	thr := driver.DefaultThresholds()
	if perSize < 1 {
		return thr, fmt.Errorf("perSize must be >= 1, got %d", perSize)
	}
	// largestWin is the largest of sizes at which m, sending base+size bytes,
	// is no slower than PRP; best as passed in when it never is.
	largestWin := func(m driver.Method, base int, sizes []int, best int) (int, error) {
		for _, size := range sizes {
			got, err := ProbePut(m, base+size, perSize)
			if err != nil {
				return best, err
			}
			prp, err := ProbePut(driver.MethodBaseline, base+size, perSize)
			if err != nil {
				return best, err
			}
			if got <= prp {
				best = size
			}
		}
		return best, nil
	}
	var err error
	thr.Threshold1, err = largestWin(driver.MethodPiggyback, 0,
		[]int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}, 35)
	if err == nil {
		thr.Threshold2, err = largestWin(driver.MethodHybrid, pcie.MemoryPageSize,
			[]int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4095}, thr.Threshold2)
	}
	return thr, err
}
