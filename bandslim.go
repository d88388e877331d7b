// Package bandslim is a full-system simulation of BandSlim (Park et al.,
// ICPP 2024): a bandwidth- and space-efficient key-value SSD that escapes
// block-oriented I/O with fine-grained inline value transfer over NVMe
// commands and selective value packing with backfilling inside the NAND page
// buffer.
//
// The package exposes the whole stack — host driver, NVMe queues, PCIe link
// model, DMA engine, NAND page buffer with all four packing policies,
// KV-separated LSM-tree, vLog, FTL, and NAND flash array — behind a simple
// key-value API:
//
//	db, err := bandslim.Open(bandslim.DefaultConfig())
//	if err != nil { ... }
//	defer db.Close()
//	err = db.Put([]byte("key"), []byte("value"))
//	v, err := db.Get([]byte("key"))
//
// Everything runs on a deterministic virtual clock; db.Stats() exposes the
// byte-exact PCIe traffic ledger, NAND write counts, and simulated response
// times the paper's evaluation reports.
package bandslim

import (
	"errors"
	"fmt"
	"sync"

	"bandslim/internal/cache"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/nand"
	"bandslim/internal/pagebuf"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/timeseries"
)

// TransferMethod selects how values travel from host to device (§3.2).
type TransferMethod = driver.Method

// Transfer methods.
const (
	// Baseline transfers every value via PRP page-unit DMA, as stock NVMe
	// KV-SSDs do.
	Baseline = driver.MethodBaseline
	// Piggyback ships every value inline in NVMe command fields.
	Piggyback = driver.MethodPiggyback
	// Hybrid DMAs the page-aligned head and piggybacks the tail.
	Hybrid = driver.MethodHybrid
	// Adaptive switches between the three based on calibrated thresholds.
	Adaptive = driver.MethodAdaptive
	// SGL transfers every value via Scatter-Gather List — the §2.5
	// comparator: exact bytes on the wire, but a setup cost that only
	// amortizes above ~32 KB.
	SGL = driver.MethodSGL
)

// PackingPolicy selects the in-device NAND page buffer policy (§3.3).
type PackingPolicy = pagebuf.Policy

// Packing policies.
const (
	// Block is the baseline: page-unit packing along 4 KiB boundaries.
	Block = pagebuf.PolicyBlock
	// AllPacking packs every value densely at the write pointer.
	AllPacking = pagebuf.PolicyAll
	// SelectivePacking packs only piggybacked values; DMA values stay
	// page-aligned.
	SelectivePacking = pagebuf.PolicySelective
	// BackfillPacking is Selective Packing with Backfilling — the paper's
	// headline policy.
	BackfillPacking = pagebuf.PolicyBackfill
)

// Thresholds re-exports the adaptive transfer calibration.
type Thresholds = driver.Thresholds

// CalibrateThresholds performs the §3.2 exploratory runs: it probes PUT
// response times across value sizes on throwaway stacks (NAND disabled, as the
// paper's transfer benchmarks do) and derives Threshold1 (where piggybacking
// stops beating PRP) and Threshold2 (the largest over-page tail for which
// hybrid beats PRP). Alpha and Beta default to 1.
func CalibrateThresholds(perSize int) (Thresholds, error) {
	thr, err := shard.Calibrate(perSize)
	if err != nil {
		return Thresholds{}, fmt.Errorf("bandslim: %w", err)
	}
	return thr, nil
}

// SubmissionConfig is the driver's complete submission policy: the
// in-flight window depth behind the batch-read paths, doorbell batching
// (which also enables burst submission of multi-command PUTs), and
// interrupt-coalescing-style completion sweeps. The zero value reproduces
// the paper's synchronous passthrough byte-identically.
type SubmissionConfig = driver.SubmissionConfig

// PipelinedSubmission returns the depth-1 burst-mode policy: multi-command
// PUTs submit as one doorbell burst; reads keep the synchronous passthrough.
func PipelinedSubmission() SubmissionConfig { return driver.PipelinedSubmission() }

// WindowedSubmission returns the windowed policy at depth: up to depth reads
// in flight, doorbells batched 8 submissions to an MMIO write, completions
// coalesced on a 2 µs grid. Below depth 2 it is the zero value, the paper's
// synchronous passthrough.
func WindowedSubmission(depth int) SubmissionConfig {
	if depth <= 1 {
		return SubmissionConfig{}
	}
	return SubmissionConfig{QueueDepth: depth, DoorbellBatch: 8, CoalesceInterval: 2 * sim.Microsecond}
}

// ConfigError reports a submission or cache setting that failed validation;
// Open and OpenSharded return it wrapped — match with errors.As.
type ConfigError = driver.ConfigError

// CacheConfig sizes the tiered read path: the simulated device-DRAM read
// cache, a value tier for vLog entries and a page tier for SSTable pages,
// both behind a pluggable eviction policy. Absent keys need no tier: the
// device's SSTable filters answer them. The zero value disables every tier
// and keeps the simulation byte-identical to a cache-free build.
type CacheConfig = cache.Config

// CachePolicy selects the device read cache's eviction policy.
type CachePolicy = cache.Kind

// Cache eviction policies.
const (
	// CacheLRU evicts the least-recently-used entry.
	CacheLRU = cache.LRU
	// Cache2Q is the scan-resistant two-queue policy: entries earn a place
	// in the hot queue only on a second touch.
	Cache2Q = cache.TwoQ
)

// ParseCachePolicy parses a policy name ("lru", "2q").
func ParseCachePolicy(s string) (CachePolicy, error) { return cache.ParseKind(s) }

// ParseMethod parses a transfer method name in any case: baseline (or prp),
// piggyback, hybrid, adaptive, sgl.
func ParseMethod(s string) (TransferMethod, error) { return driver.ParseMethod(s) }

// ParsePolicy parses a packing policy name in any case: block, all, select
// (or selective), backfill.
func ParsePolicy(s string) (PackingPolicy, error) { return pagebuf.ParsePolicy(s) }

// ServingCacheConfig returns the serving-profile cache sizing: a 4 MiB LRU
// value tier and a 64-page SSTable tier — the operating point
// bandslim-server's --cache flag enables.
func ServingCacheConfig() CacheConfig { return cache.ServingProfile() }

// SimTime is a point on the simulated clock (nanoseconds since open); DB.Now
// reports it.
type SimTime = sim.Time

// SimDuration is a span of simulated time in nanoseconds — the unit of
// Config.MetricsInterval and the latency fields of Stats.
type SimDuration = sim.Duration

// SimMicrosecond builds SimDuration values without reaching into internal
// packages, e.g. cfg.MetricsInterval = 100 * bandslim.SimMicrosecond.
const SimMicrosecond = sim.Microsecond

// Config assembles a DB.
type Config struct {
	// Method is the host-side transfer strategy.
	Method TransferMethod
	// Policy is the device-side packing policy.
	Policy PackingPolicy
	// Thresholds calibrate the Adaptive method. A fully zero-valued
	// Thresholds means "use DefaultThresholds()"; to deliberately run with
	// Threshold1 = 0 (never piggyback), set any other field non-zero, e.g.
	// Thresholds{Alpha: 1, Beta: 1}.
	Thresholds Thresholds
	// Device tunes the simulated hardware. Leave zero to use the default
	// Cosmos+-like platform; to change part of it, start from DefaultConfig()
	// — a Device with fields set but a zero Geometry fails Open with a
	// ConfigError.
	Device device.Config
	// DisableNAND turns off persistence, isolating transfer behaviour as
	// the paper's §4.2 experiments do.
	DisableNAND bool
	// Submission is the host's submission policy: window depth (QueueDepth
	// >= 2 keeps that many commands in flight on the batch-read paths),
	// doorbell batching, and completion coalescing. The zero value is the
	// paper's synchronous passthrough — one command per round trip — with
	// timings byte-identical to earlier releases. Validated at Open; a bad
	// field fails with a wrapped ConfigError.
	Submission SubmissionConfig
	// Tracer, when non-nil, receives every command-level event the stack
	// emits: driver submissions, doorbell MMIO, command fetches, SQ/CQ ring
	// transitions, DMA transfers, page-buffer placements and flushes, and
	// NAND operations, all stamped with simulated time. Use NewRecorder for
	// an in-memory ring buffer. Nil (the default) keeps tracing at zero
	// cost: every emission site is behind a single nil check.
	Tracer Tracer
	// MetricsInterval, when > 0, enables the simulated-time metrics
	// sampler: the full Stats tree, buffer/vLog gauges, and the latency
	// histograms are snapshotted every MetricsInterval simulated
	// nanoseconds. Read the result with DB.Series and
	// export it with WriteSeriesCSV; WritePrometheus works with or without
	// the sampler. Zero (the default) disables sampling entirely; a negative
	// interval fails Open with a ConfigError.
	MetricsInterval sim.Duration
	// Faults, when non-nil, arms the deterministic fault injector: the plan's
	// rules fire NAND media errors, transient transfer errors, and power cuts
	// at seed-determined points (see ParseFaultPlan). Nil — the default —
	// leaves every fault path disabled at zero cost, and the simulation's
	// outputs are byte-identical to a build without the subsystem. The driver
	// retries a transient completion four times, with a backoff that starts at
	// 10 µs and doubles.
	Faults *FaultPlan
	// Cache arms the tiered read path: device-DRAM value/page caches. The
	// zero value (the default) disables every tier at zero cost — timings,
	// allocations, and exporter output stay byte-identical to a cache-free
	// run. Validated at Open. A non-zero Cache here overrides Device.Cache.
	Cache CacheConfig
}

// DefaultConfig returns the paper's headline configuration: adaptive
// transfer with Selective Packing with Backfilling on a Cosmos+-like device.
func DefaultConfig() Config {
	return Config{
		Method:     Adaptive,
		Policy:     BackfillPacking,
		Thresholds: driver.DefaultThresholds(),
		Device:     device.DefaultConfig(),
	}
}

// DB is a simulated host driving N >= 1 KV-SSD shards behind a key
// partitioner. A shard is one serialized host+device pair — the paper's single
// passthrough SQ/CQ pair, with its own simulated clock, PCIe link, NVMe
// queues, driver, and device — behind its own mutex. Open builds one shard;
// OpenSharded builds N, like a multi-queue NVMe deployment with per-queue
// controllers. Every method either routes to the key's shard or loops over
// the shards.
//
// All methods are safe for concurrent use. An operation runs on the caller's
// goroutine under its shard's mutex, so operations on different shards
// proceed in parallel and operations on one shard serialize in
// lock-acquisition order; each shard's simulated clock is its own, so
// concurrency does not change simulated timings. A batch visits its shards
// one at a time — lock, run that shard's lane, unlock — and never holds two
// shard locks.
//
// Aggregates are order-independent: counters and byte ledgers sum exactly,
// latency distributions merge exactly, and simulated time is the max over
// shard clocks (shards run in parallel, so the slowest defines the span).
// With one shard every aggregate is that shard's own reading.
//
// After Close, operations fail with ErrClosed while the read-only surface —
// Now, Stats, ShardStats, Series, WritePrometheus, Blame, VLogFreeBytes,
// Submission, and the trace accessors — stays a snapshot of the final state.
type DB struct {
	shards []*dbShard
	part   *shard.Partitioner
	// rings are the distinct ring recorders behind the shards: one per shard
	// (TraceCapacity > 0), else the shared Config.Tracer if it is one.
	rings rings
	// rows is the sampler/exporter column set (see exportedRows) and descs its
	// descriptor column; both fixed at open and shared by every shard.
	rows  []row
	descs []timeseries.Desc

	// free holds idle lane sets (one key-index slice per shard), one taken
	// per batch call. A mutex-guarded free list held only to pop and push —
	// not a sync.Pool, which may drop entries and make a steady-state batch
	// allocate.
	freeMu sync.Mutex
	free   [][][]int
}

// stackOptions normalizes a Config into the engine's options. An all-zero
// Device means device.DefaultConfig(); one that sets other fields but leaves
// Geometry zero is refused rather than silently replaced by the defaults, and
// so is a negative MetricsInterval.
func stackOptions(cfg Config) (shard.Options, error) {
	if cfg.MetricsInterval < 0 {
		return shard.Options{}, &ConfigError{Field: "MetricsInterval", Reason: fmt.Sprintf("must be >= 0, got %d", cfg.MetricsInterval)}
	}
	dcfg := cfg.Device
	if dcfg.Geometry == (nand.Geometry{}) {
		if dcfg != (device.Config{}) {
			return shard.Options{}, &ConfigError{Field: "Device.Geometry", Reason: "zero while other Device fields are set; start from DefaultConfig()"}
		}
		dcfg = device.DefaultConfig()
	}
	dcfg.Buffer.Policy = cfg.Policy
	dcfg.NANDEnabled = !cfg.DisableNAND
	thr := cfg.Thresholds
	if thr.IsZero() {
		thr = driver.DefaultThresholds()
	}
	if cfg.Cache != (CacheConfig{}) {
		dcfg.Cache = cfg.Cache
	}
	return shard.Options{
		Device:     dcfg,
		Method:     cfg.Method,
		Thresholds: thr,
		Submission: cfg.Submission,
		Tracer:     cfg.Tracer,
		Faults:     cfg.Faults,
	}, nil
}

// Open builds a one-shard DB: OpenSharded with Shards: 1.
func Open(cfg Config) (*DB, error) { return OpenSharded(ShardedConfig{Shards: 1, PerShard: cfg}) }

// Error sentinels. Both are plain errors.New values: match them with
// errors.Is, including through wrapped returns.
var (
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = errors.New("bandslim: DB is closed")
	// ErrIteratorInvalidated stops an Iterator whose snapshot the device could
	// no longer honor: writes issued since it was opened triggered a
	// compaction that freed SSTable pages it had yet to read. Pairs already
	// returned were correct; open a new iterator past the last key to go on.
	ErrIteratorInvalidated = driver.ErrIterInvalidated
)

// Put stores a key-value pair on the key's shard. Keys are 1–16 bytes.
func (db *DB) Put(key, value []byte) error {
	sh := db.shardFor(key)
	drv, err := sh.lock()
	if err != nil {
		return err
	}
	defer sh.unlock()
	return drv.Put(key, value)
}

// Get fetches the value for key from its shard. The returned slice is a view
// into that shard's reusable driver read buffer: it stays valid until the
// shard's next operation and must not be modified. Callers that retain the
// value past the next operation — or race it against concurrent operations —
// should use GetInto, which copies before the lock is released.
func (db *DB) Get(key []byte) ([]byte, error) {
	sh := db.shardFor(key)
	drv, err := sh.lock()
	if err != nil {
		return nil, err
	}
	defer sh.unlock()
	return drv.Get(key)
}

// GetInto fetches the value for key and copies it into dst (grown as
// needed) under the shard's lock, returning the filled slice. Unlike Get, the
// result is caller-owned: it remains valid across later operations and under
// concurrent use. Pass a reused buffer to make steady-state reads
// allocation-free.
func (db *DB) GetInto(key, dst []byte) ([]byte, error) {
	sh := db.shardFor(key)
	drv, err := sh.lock()
	if err != nil {
		return nil, err
	}
	defer sh.unlock()
	v, err := drv.Get(key)
	if err == nil {
		v = append(dst[:0], v...)
	}
	return v, err
}

// PutBatch writes the pairs through each shard's host-side batcher as bulk
// OpKVBatchWrite commands, one shard's lane at a time, flushing each before
// moving on, so every record is durable when it returns. One bulk command
// amortizes per-command round trips across up to driver.DefaultBatchOps
// records — the high-throughput ingest path. The first error wins; records on
// other shards may still have been written.
func (db *DB) PutBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("bandslim: PutBatch got %d keys, %d values", len(keys), len(values))
	}
	return db.fanOut(keys, func(drv *driver.Driver, lane []int) error { return drv.PutBatch(keys, values, lane) })
}

// GetBatchSparse resolves keys in bulk, copying each value into the matching
// vals lane (vals[i], grown as needed; a nil vals allocates one) under its
// shard's lock, and returns the filled slice-of-slices. An absent key sets
// miss[i] and empties vals[i]; miss must have len(keys) entries. Values are
// caller-owned copies, so passing the returned slice back in makes the steady
// state allocation-free. With a submission window configured
// (Config.Submission.QueueDepth >= 2) the reads ride it, up to that many in
// flight per shard. Any other failure ends the batch; lanes after the failing
// key on its shard are left untouched.
func (db *DB) GetBatchSparse(keys, vals [][]byte, miss []bool) ([][]byte, error) {
	if vals == nil {
		vals = make([][]byte, len(keys))
	}
	if len(vals) != len(keys) || len(miss) != len(keys) {
		return vals, fmt.Errorf("bandslim: GetBatchSparse got %d keys, %d dst lanes, %d miss flags", len(keys), len(vals), len(miss))
	}
	return vals, db.fanOut(keys, func(drv *driver.Driver, lane []int) error { return drv.GetBatch(keys, vals, miss, lane) })
}

// Delete removes a key from its shard.
func (db *DB) Delete(key []byte) error {
	sh := db.shardFor(key)
	drv, err := sh.lock()
	if err != nil {
		return err
	}
	defer sh.unlock()
	return drv.Delete(key)
}

// Flush forces every shard's buffered values and index entries to NAND. The
// first error wins.
func (db *DB) Flush() error { return db.each((*driver.Driver).Flush) }

// Close flushes and shuts every shard. Further operations fail with
// ErrClosed; closing again is a no-op. The first error wins.
func (db *DB) Close() error {
	var first error
	for _, sh := range db.shards {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			if err := sh.st.Drv.Flush(); err != nil && first == nil {
				first = err
			}
		}
		sh.unlock()
	}
	return first
}

// Iterator streams key-value pairs in key order via the device-side
// SEEK/NEXT commands: a k-way merge over one device cursor per shard. It is
// positioned on its first pair when opened; loop on Valid/Next, read Key/Value,
// and check Err when Valid turns false. Each device holds a single iterator
// over a snapshot of its index; iterate before mutating. Writes interleaved
// with iteration are not seen, and once they make a device compact the tables
// under the snapshot, Next stops the iterator with ErrIteratorInvalidated
// rather than return pairs out of order. After Close, Next stops the iterator
// with ErrClosed.
type Iterator = shard.MergeIterator

// NewIterator opens an iterator at the first key >= start (nil starts at the
// beginning), streaming pairs in global key order. The iterator is positioned
// on its first pair; check Valid.
func (db *DB) NewIterator(start []byte) (*Iterator, error) {
	if start == nil {
		start = []byte{0}
	}
	cursors := make([]shard.Cursor, len(db.shards))
	for i, sh := range db.shards {
		if err := sh.do(func(drv *driver.Driver) error { return drv.Seek(start) }); err != nil {
			return nil, err
		}
		cursors[i] = sh.next
	}
	return shard.NewMergeIterator(cursors)
}

// Now reports the simulated time: the max over shard clocks, since shards
// advance independently like parallel NVMe queues. It stays readable after
// Close.
func (db *DB) Now() SimTime {
	var now SimTime
	db.peek(func(_ int, sh *dbShard) { now = max(now, sh.st.Clock.Now()) })
	return now
}

// CompactVLog garbage-collects the oldest `pages` value-log pages of every
// shard (WiscKey-style): live values relocate to the log head, dead space
// from overwrites and deletes is reclaimed, and the freed NAND pages are
// trimmed. It reports how many values were relocated, summed over shards; the
// first error wins and later shards still compact. Call when VLogFreeBytes
// runs low on delete/overwrite-heavy workloads.
func (db *DB) CompactVLog(pages int) (int, error) {
	moved := 0
	err := db.each(func(drv *driver.Driver) error {
		n, err := drv.CompactVLog(pages)
		moved += n
		return err
	})
	return moved, err
}

// VLogFreeBytes reports how much value-log space remains before compaction
// is required, summed over shards.
func (db *DB) VLogFreeBytes() int64 {
	var free int64
	db.peek(func(_ int, sh *dbShard) { free += sh.st.Dev.VLog().FreeBytes() })
	return free
}

// DeviceInfo is the controller's identify structure (model, capacity,
// geometry, and BandSlim capability fields).
type DeviceInfo = device.IdentifyData

// Identify fetches shard 0's identify structure via the NVMe admin path the
// paper's design preserves; every shard's device is built from one Config.
func (db *DB) Identify() (DeviceInfo, error) {
	sh := db.shards[0]
	drv, err := sh.lock()
	if err != nil {
		return DeviceInfo{}, err
	}
	defer sh.unlock()
	return drv.Identify()
}
