package bench

import (
	"fmt"

	"bandslim"
)

// traceCaptureOps caps the captured workload: a trace is a readable window
// into the pipeline, not a benchmark, and each PUT emits on the order of ten
// events across the stack.
const traceCaptureOps = 512

// traceCaptureCapacity bounds each recorder ring well above what
// traceCaptureOps can emit, so nothing is evicted.
const traceCaptureCapacity = 1 << 16

// traceValueSizes spans every transfer decision the adaptive driver can
// make: inline piggybacking (under Threshold1), PRP page-unit DMA
// (over-threshold), hybrid page+inline-tail, and multi-page PRP.
var traceValueSizes = []int{32, 512, 4096 + 64, 8192}

// traceKey derives the i-th deterministic 4-byte key.
func traceKey(i int) []byte {
	return []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// CaptureTrace runs a short deterministic adaptive-method workload with
// command-level tracing enabled and returns the event stream, merged across
// shards and ordered by simulated start time. Value sizes cycle through
// inline, PRP, hybrid, and multi-page transfers, and every key is read back,
// so the capture exercises each path the driver can take. Every shard gets
// its own recorder.
func CaptureTrace(o Options, shards int) ([]bandslim.TraceEvent, error) {
	o = o.normalized()
	ops := min(o.Scale, traceCaptureOps)
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:        shards,
		PerShard:      headlineConfig(),
		TraceCapacity: traceCaptureCapacity,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := traceWorkload(db, ops); err != nil {
		return nil, err
	}
	return db.TraceEvents(), nil
}

// traceWorkload writes ops values cycling through traceValueSizes, reads
// each back, and flushes so the capture ends with NAND programs.
func traceWorkload(kv *bandslim.DB, ops int) error {
	for i := 0; i < ops; i++ {
		size := traceValueSizes[i%len(traceValueSizes)]
		if err := kv.Put(traceKey(i), make([]byte, size)); err != nil {
			return fmt.Errorf("trace capture put %d: %w", i, err)
		}
	}
	for i := 0; i < ops; i++ {
		if _, err := kv.Get(traceKey(i)); err != nil {
			return fmt.Errorf("trace capture get %d: %w", i, err)
		}
	}
	return kv.Flush()
}
