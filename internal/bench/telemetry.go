package bench

import (
	"fmt"
	"time"

	"bandslim"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// DefaultMetricsInterval is the simulated sampling period telemetry runs
// use when the caller does not pick one: fine enough to resolve the
// paper's trajectories at bench scales, coarse enough to keep series small.
const DefaultMetricsInterval = 100 * sim.Microsecond

// Telemetry drives one instrumented workload-M run on a sharded DB with the
// simulated-time metrics sampler enabled, and exposes live progress while
// the run executes — the backing for bandslim-bench's -metrics-out,
// -series-out, and -listen flags. Simulated results are deterministic for a
// given (scale, seed, shards, interval); only wall-clock figures vary.
type Telemetry struct {
	// DB is the live sharded stack. Scrape it concurrently with
	// WritePrometheus/Stats; the caller closes it when done.
	DB       *bandslim.DB
	opsTotal int64
	start    time.Time
	done     chan struct{}
	err      error
}

// StartTelemetry opens the instrumented stack (paper headline config:
// adaptive transfer, backfill packing, NAND on) and starts DriveScenario over
// workload M on one goroutine. It returns as soon as the run has started.
func StartTelemetry(o Options, shards int, interval sim.Duration) (*Telemetry, error) {
	o = o.normalized()
	if shards < 1 {
		shards = 1
	}
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	cfg := headlineConfig()
	cfg.MetricsInterval = interval
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		return nil, fmt.Errorf("bench: telemetry: %w", err)
	}

	t := &Telemetry{DB: db, opsTotal: int64(o.Scale), start: time.Now(), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		_, t.err = DriveScenario(db, workload.NewWorkloadM(o.Scale, o.Seed), 1, nil)
	}()
	return t, nil
}

// Wait blocks until the run finishes, then flushes the drained state to NAND
// so exports cover the whole workload. The DB stays open for final scrapes
// and exports; the caller closes it.
func (t *Telemetry) Wait() error {
	<-t.done
	if t.err != nil {
		return fmt.Errorf("bench: telemetry: %w", t.err)
	}
	if err := t.DB.Flush(); err != nil {
		return fmt.Errorf("bench: telemetry: flush: %w", err)
	}
	return nil
}

// Progress is the live /progress JSON shape: how far the run is, the
// simulated trajectory so far, and current wall-clock and simulated rates.
type Progress struct {
	OpsDone           int64   `json:"ops_done"`
	OpsTotal          int64   `json:"ops_total"`
	WallMillis        float64 `json:"wall_ms"`
	WallKops          float64 `json:"wall_kops"`
	SimElapsedUs      float64 `json:"sim_elapsed_us"`
	SimThroughputKops float64 `json:"sim_throughput_kops"`
	PCIeBytes         int64   `json:"pcie_bytes"`
	NANDPageWrites    int64   `json:"nand_page_writes"`
	WriteRespUs       float64 `json:"write_resp_us"`
}

// Progress snapshots the run's live state; safe to call concurrently with
// the run (the scrape path of the -listen HTTP endpoints). Workload M is all
// Puts, so the acknowledged Puts are the ops done.
func (t *Telemetry) Progress() Progress {
	stats := t.DB.Stats()
	done := stats.Host.Puts
	wall := time.Since(t.start)
	p := Progress{
		OpsDone:           done,
		OpsTotal:          t.opsTotal,
		WallMillis:        float64(wall.Microseconds()) / 1000,
		SimElapsedUs:      float64(stats.Host.Elapsed.Micros()),
		SimThroughputKops: stats.Host.ThroughputKops,
		PCIeBytes:         stats.PCIe.Bytes,
		NANDPageWrites:    stats.Device.NANDPageWrites,
		WriteRespUs:       stats.Host.WriteResp.Mean.Micros(),
	}
	if secs := wall.Seconds(); secs > 0 {
		p.WallKops = float64(done) / secs / 1000
	}
	return p
}
