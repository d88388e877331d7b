package bandslim

import (
	"fmt"
	"io"
	"sync"

	"bandslim/internal/metrics"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/timeseries"
)

// partitionSeed keys the shard partitioner. Fixed, so a given key always
// lands on the same shard across processes and runs.
const partitionSeed = 0xBA4D511E

// ShardedConfig assembles a ShardedDB.
type ShardedConfig struct {
	// Shards is the number of independent device shards (>= 1). Each shard
	// is a full host+device stack with its own simulated clock, PCIe link,
	// NVMe queue pair, driver, and device, behind its own mutex.
	Shards int
	// PerShard configures every shard's stack, with the same semantics and
	// defaults as Open. A non-nil PerShard.Tracer is shared by every shard
	// (events carry shard ids); it must be safe for concurrent use.
	PerShard Config
	// TraceCapacity, when > 0, gives every shard its own ring-buffered
	// recorder of that capacity and overrides PerShard.Tracer. Read the
	// merged stream with TraceEvents.
	TraceCapacity int
}

// DefaultShardedConfig returns the paper's headline per-shard configuration
// across the given number of shards.
func DefaultShardedConfig(shards int) ShardedConfig {
	return ShardedConfig{Shards: shards, PerShard: DefaultConfig()}
}

// ShardedDB is N independent DBs behind a key partitioner, lifting the
// single-queue serialization of DB: the paper's testbed pins every command
// to one synchronous SQ/CQ pair, while a ShardedDB advances N such pairs on N
// independent simulated clocks, like a multi-queue NVMe deployment with
// per-queue controllers. Every method either routes to the key's shard or
// loops over the shards.
//
// There is one mutex per shard and no lock above them: an operation runs on
// the caller's goroutine under its shard's mutex, so operations on different
// shards proceed in parallel and operations on one shard serialize in
// lock-acquisition order. A batch visits its shards one at a time — lock,
// run that shard's lane, unlock — so it never holds two shard locks.
//
// Each shard stays exactly as deterministic as a DB: the key partition fixes
// which shard serves each operation and per-shard simulated clocks advance
// independently. Aggregate Stats are therefore order-independent: byte
// ledgers and NAND counts sum exactly, latency distributions merge exactly,
// and aggregate simulated time is the max over shard clocks (shards run in
// parallel on the simulated clock, so the slowest defines the span).
//
// With Shards: 1 a ShardedDB is a DB: the same engine behind the same mutex,
// producing identical Stats, Series, and exposition over the same workload.
//
// All methods are safe for concurrent use.
type ShardedDB struct {
	dbs  []*DB
	part *shard.Partitioner
	// rings are the distinct ring recorders behind the shards: one per shard
	// (TraceCapacity > 0), else the shared PerShard.Tracer if it is one.
	rings rings

	// free holds idle lane sets (one key-index slice per shard), one taken
	// per batch call. A mutex-guarded free list held only to pop and push —
	// not a sync.Pool, which may drop entries and make a steady-state batch
	// allocate.
	freeMu sync.Mutex
	free   [][][]int
}

// OpenSharded builds Shards independent stacks.
func OpenSharded(cfg ShardedConfig) (*ShardedDB, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("bandslim: ShardedConfig.Shards must be >= 1, got %d", cfg.Shards)
	}
	part, err := shard.NewPartitioner(cfg.Shards, partitionSeed)
	if err != nil {
		return nil, fmt.Errorf("bandslim: %w", err)
	}
	s := &ShardedDB{dbs: make([]*DB, cfg.Shards), part: part}
	for i := range s.dbs {
		per := cfg.PerShard
		if cfg.TraceCapacity > 0 {
			per.Tracer = NewRecorder(cfg.TraceCapacity)
		}
		if s.dbs[i], err = open(per, i); err != nil {
			return nil, err
		}
		// A shared PerShard.Tracer ring is shard 0's ring; count it once.
		if i == 0 || cfg.TraceCapacity > 0 {
			s.rings = append(s.rings, s.dbs[i].rings...)
		}
	}
	return s, nil
}

// TraceEvents returns the buffered trace events: the per-shard recorders'
// streams (TraceCapacity > 0) merged by simulated start time, with (shard,
// seq) breaking ties, or a shared PerShard.Tracer recorder's stream in
// emission order. It returns nil when no ring recorder is attached.
func (s *ShardedDB) TraceEvents() []TraceEvent { return s.rings.events() }

// TraceDropped reports the total events evicted across the per-shard trace
// rings (TraceCapacity > 0), or by a shared PerShard.Tracer recorder. Zero
// when tracing is off or nothing was evicted.
func (s *ShardedDB) TraceDropped() int64 { return s.rings.health().Dropped }

// ResetTrace discards every buffered trace event (and, per ring, restarts
// the eviction window) without detaching the recorders. Sequence numbers
// keep running, so an analyzer sees the reset as a truncation, never as a
// reused number. Benchmarks use it to scope attribution to a measured phase
// after an unmeasured fill.
func (s *ShardedDB) ResetTrace() {
	for _, rec := range s.rings {
		rec.Reset()
	}
}

// Blame analyzes the buffered trace events and returns the latency
// attribution report, or nil when tracing is not enabled (neither
// TraceCapacity nor a *Recorder PerShard.Tracer). Per-shard streams are
// reconstructed independently, so the result is deterministic regardless of
// shard interleaving.
func (s *ShardedDB) Blame() *BlameReport { return s.rings.blame() }

// each runs fn on every shard in index order. The first error wins; later
// shards still run.
func (s *ShardedDB) each(fn func(*DB) error) error {
	var first error
	for _, db := range s.dbs {
		if err := fn(db); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Tune applies the present (non-nil) fields of a Tuning to every shard. Each
// shard's driver validates Submission before applying any field, and every
// shard sees the same Tuning, so an invalid policy fails with a ConfigError
// without leaving the fleet half-tuned. It fails with ErrClosed after Close.
func (s *ShardedDB) Tune(t Tuning) error {
	return s.each(func(db *DB) error { return db.Tune(t) })
}

// Submission reports the submission policy in effect on shard 0 (Tune keeps
// every shard on the same policy). It stays readable after Close.
func (s *ShardedDB) Submission() SubmissionConfig {
	db := s.dbs[0]
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.st.Drv.Submission()
}

// NumShards reports the shard count.
func (s *ShardedDB) NumShards() int { return len(s.dbs) }

// ShardFor reports which shard index serves key.
func (s *ShardedDB) ShardFor(key []byte) int { return s.part.Shard(key) }

func (s *ShardedDB) dbFor(key []byte) *DB { return s.dbs[s.part.Shard(key)] }

// Put stores a key-value pair on the key's shard. Keys are 1–16 bytes.
func (s *ShardedDB) Put(key, value []byte) error { return s.dbFor(key).Put(key, value) }

// Get fetches the value for key from its shard. The returned slice is a view
// into that shard's driver read buffer, valid until the shard's next
// operation; callers that retain the value — or race it against concurrent
// operations on the same shard — must use GetInto instead.
func (s *ShardedDB) Get(key []byte) ([]byte, error) { return s.dbFor(key).Get(key) }

// GetInto fetches the value for key, copying it into dst (grown as needed)
// under the shard's lock. The returned slice is caller-owned: it stays valid
// across later operations and under concurrent use, and reusing dst across
// calls makes the steady state allocation-free.
func (s *ShardedDB) GetInto(key, dst []byte) ([]byte, error) {
	return s.dbFor(key).GetInto(key, dst)
}

// Delete removes a key from its shard.
func (s *ShardedDB) Delete(key []byte) error { return s.dbFor(key).Delete(key) }

// fanOut splits keys into per-shard index lanes and runs every non-empty lane
// on its shard in index order, one shard lock at a time. The first error
// wins; later lanes still run. An empty batch touches no shard.
func (s *ShardedDB) fanOut(keys [][]byte, run func(db *DB, lane []int) error) error {
	s.freeMu.Lock()
	var lanes [][]int
	if n := len(s.free); n > 0 {
		lanes, s.free = s.free[n-1], s.free[:n-1]
	}
	s.freeMu.Unlock()
	if lanes == nil {
		lanes = make([][]int, len(s.dbs))
	}
	for i := range lanes {
		lanes[i] = lanes[i][:0]
	}
	for i, k := range keys {
		sh := s.part.Shard(k)
		lanes[sh] = append(lanes[sh], i)
	}
	var first error
	for i, lane := range lanes {
		if len(lane) == 0 {
			continue
		}
		if err := run(s.dbs[i], lane); err != nil && first == nil {
			first = err
		}
	}
	s.freeMu.Lock()
	s.free = append(s.free, lanes)
	s.freeMu.Unlock()
	return first
}

// PutBatch stores the key-value pairs through each shard's host-side batcher
// (bulk OpKVBatchWrite commands), one shard's lane at a time, flushing each
// before moving on, so every record is durable on return. Keys are 1–16
// bytes. The first error wins; records on other shards may still have been
// written.
func (s *ShardedDB) PutBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("bandslim: PutBatch got %d keys, %d values", len(keys), len(values))
	}
	return s.fanOut(keys, func(db *DB, lane []int) error { return db.putBatch(keys, values, lane) })
}

// GetBatch resolves keys in bulk, one shard's lane at a time. Each value is
// copied into the matching vals lane (vals[i], grown as needed) under its
// shard's lock, so the results are caller-owned; passing the returned slice
// back in makes the steady state allocation-free. A nil vals allocates one.
// An absent key fails the batch; lanes after the failing key on that shard
// are left untouched.
func (s *ShardedDB) GetBatch(keys, vals [][]byte) ([][]byte, error) {
	vals, err := batchLanes("GetBatch", keys, vals, len(keys))
	if err != nil {
		return vals, err
	}
	return vals, s.getBatch(keys, vals, nil)
}

// GetBatchSparse resolves keys in bulk like GetBatch, but an absent key sets
// miss[i] (and empties its vals lane) instead of failing the batch — the
// lookup the serving front-end rides for MGET and coalesced GET runs, where
// a miss must become a null reply, not a connection error. miss must have
// len(keys) entries; hits copy into caller-owned vals lanes exactly as
// GetBatch does, so reusing keys/vals/miss keeps the steady state
// allocation-free.
func (s *ShardedDB) GetBatchSparse(keys, vals [][]byte, miss []bool) ([][]byte, error) {
	vals, err := batchLanes("GetBatchSparse", keys, vals, len(miss))
	if err != nil {
		return vals, err
	}
	return vals, s.getBatch(keys, vals, miss)
}

func (s *ShardedDB) getBatch(keys, vals [][]byte, miss []bool) error {
	return s.fanOut(keys, func(db *DB, lane []int) error { return db.getBatch(keys, vals, miss, lane) })
}

// Flush forces every shard's buffered values and index entries to NAND. The
// first error wins.
func (s *ShardedDB) Flush() error { return s.each((*DB).Flush) }

// Close flushes and shuts every shard. Further operations fail with
// ErrClosed. Stats remains readable.
func (s *ShardedDB) Close() error { return s.each((*DB).Close) }

// Recover remounts every power-cut shard device: fresh queues, the LSM index
// rolled back to its last durable flush, and the battery-backed journal
// replayed, restoring every acknowledged write on every shard. Mounting a
// shard that never lost power is a harmless no-op (its journal replays into
// the same state), so Recover is safe to call whenever any operation reports
// IsPowerLoss. The first error wins; a plan can cut power again during
// replay, in which case a subsequent Recover resumes.
func (s *ShardedDB) Recover() error { return s.each((*DB).Recover) }

// Now reports the aggregate simulated time: the max over shard clocks, since
// shards advance independently like parallel NVMe queues.
func (s *ShardedDB) Now() sim.Time {
	var max sim.Time
	for _, db := range s.dbs {
		if t := db.Now(); t > max {
			max = t
		}
	}
	return max
}

// Stats aggregates a point-in-time snapshot across every shard: counters and
// byte ledgers sum exactly, latency distributions merge exactly (see
// metrics.Histogram.Merge), Elapsed is the max over shard clocks, and
// BufferUtil is the flush-weighted mean. Shards are snapshotted one after
// another, each under its own lock. It stays readable after Close.
func (s *ShardedDB) Stats() Stats {
	if len(s.dbs) == 1 {
		// One shard: the merge is the identity (and skips the weighted-mean
		// rounding below, so a one-shard ShardedDB reports a DB's exact Stats).
		return s.dbs[0].Stats()
	}
	var out Stats
	write, read := metrics.NewHistogram(), metrics.NewHistogram()
	var weighted float64
	for _, db := range s.dbs {
		db.mu.Lock()
		p := stackStats(db.st)
		write.Merge(db.st.Drv.Stats().WriteResponse)
		read.Merge(db.st.Drv.Stats().ReadResponse)
		db.mu.Unlock()
		for _, r := range stackRows {
			if r.field != nil {
				*r.field(&out) += *r.field(&p)
			}
		}
		out.Host.Elapsed = max(out.Host.Elapsed, p.Host.Elapsed)
		// VLogFlushes is the page buffer's flushed-page count: the weight of
		// the shard's BufferUtil.
		weighted += p.Device.BufferUtil * float64(p.Device.VLogFlushes)
	}
	out.Host.WriteResp = latencySummary(write)
	out.Host.ReadResp = latencySummary(read)
	out.Host.ThroughputKops = throughputKops(out.Host)
	if out.Device.VLogFlushes > 0 {
		out.Device.BufferUtil = weighted / float64(out.Device.VLogFlushes)
	}
	out.Trace = s.rings.health()
	return out
}

// Series merges the per-shard simulated-time metric series onto one time
// axis: counters and sum-gauges add, max-gauges take the max, mean-gauges
// average, and latency histograms merge bucket-exactly. It is empty unless
// PerShard.MetricsInterval was set; with Shards: 1 the merged series equals
// the series a plain DB records over the same workload. Remains readable
// after Close.
func (s *ShardedDB) Series() MetricSeries {
	parts := make([]timeseries.Series, len(s.dbs))
	for i, db := range s.dbs {
		parts[i] = db.Series()
	}
	return timeseries.MergeSeries(parts...)
}

// WritePrometheus writes the aggregate metric state across every shard in
// the Prometheus text exposition format: counters sum, gauges aggregate per
// their mode, histograms merge bucket-exactly. Safe to call while shards
// are actively serving (the live /metrics scrape path) and after Close.
func (s *ShardedDB) WritePrometheus(w io.Writer) error {
	snaps := make([]timeseries.Snapshot, len(s.dbs))
	for i, db := range s.dbs {
		snaps[i] = db.lockedSnapshot()
	}
	descs := s.dbs[0].descs
	return writeExposition(w, descs, timeseries.MergeSnapshots(descs, snaps), s.rings)
}

// ShardStats snapshots one shard's counters (for per-shard balance checks).
func (s *ShardedDB) ShardStats(i int) Stats { return s.dbs[i].Stats() }

// NewIterator opens a merged iterator at the first key >= start (nil starts
// at the beginning), streaming pairs in global key order. Each shard's
// device holds a single iterator and writes interleaved with iteration
// invalidate the snapshot; iterate before mutating.
func (s *ShardedDB) NewIterator(start []byte) (*Iterator, error) {
	return newIterator(s.dbs, start)
}
