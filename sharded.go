package bandslim

import (
	"fmt"
	"sync"

	"bandslim/internal/driver"
	"bandslim/internal/shard"
	"bandslim/internal/timeseries"
)

// partitionSeed keys the shard partitioner. Fixed, so a given key always
// lands on the same shard across processes and runs.
const partitionSeed = 0xBA4D511E

// ShardedConfig assembles a DB of several shards.
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
	// merged stream with TraceEvents. A negative capacity fails with a
	// ConfigError.
	TraceCapacity int
}

// dbShard is one shard of a DB: the stack, whose driver is the op engine, and
// the mutex every access to it holds.
type dbShard struct {
	mu      sync.Mutex
	closed  bool
	st      *shard.Stack
	sampler *timeseries.Sampler // nil unless Config.MetricsInterval > 0
	rings   rings               // the ring recorder behind the shard's tracer, if any
}

// OpenSharded builds a DB of cfg.Shards independent shards.
func OpenSharded(cfg ShardedConfig) (*DB, error) {
	part, err := shard.NewPartitioner(cfg.Shards, partitionSeed)
	if err != nil {
		return nil, fmt.Errorf("bandslim: %w", err)
	}
	if cfg.TraceCapacity < 0 {
		return nil, fmt.Errorf("bandslim: %w", &ConfigError{Field: "TraceCapacity", Reason: fmt.Sprintf("must be >= 0, got %d", cfg.TraceCapacity)})
	}
	opts, err := stackOptions(cfg.PerShard)
	if err != nil {
		return nil, fmt.Errorf("bandslim: %w", err)
	}
	db := &DB{shards: make([]*dbShard, cfg.Shards), part: part,
		rows: exportedRows(cfg.PerShard.Faults != nil, opts.Device.Cache.DeviceEnabled())}
	db.descs = rowDescs(db.rows)
	for i := range db.shards {
		opts.ShardID = i
		if cfg.TraceCapacity > 0 {
			opts.Tracer = NewRecorder(cfg.TraceCapacity)
		}
		st, err := shard.NewStack(opts)
		if err != nil {
			return nil, fmt.Errorf("bandslim: %w", err)
		}
		sh := &dbShard{st: st, rings: ringsOf(opts.Tracer)}
		if interval := cfg.PerShard.MetricsInterval; interval > 0 {
			sh.sampler = timeseries.NewSampler(interval, db.descs, func() timeseries.Snapshot { return snapshot(st, db.rows) })
		}
		// A shared PerShard.Tracer ring is shard 0's ring; count it once.
		if i == 0 || cfg.TraceCapacity > 0 {
			db.rings = append(db.rings, sh.rings...)
		}
		db.shards[i] = sh
	}
	return db, nil
}

// lock takes the shard's mutex and returns its driver, or releases the mutex
// and fails with ErrClosed after Close. On success the caller releases the
// shard with unlock. Operations that return values call it directly: a
// closure through do costs a hot Get about 50 ns.
func (sh *dbShard) lock() (*driver.Driver, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	return sh.st.Drv, nil
}

// unlock ends an operation: it records the simulated-time metric samples due
// since the last operation, if the shard has a sampler (a single comparison
// when no boundary was crossed), then releases the mutex.
func (sh *dbShard) unlock() {
	if sh.sampler != nil {
		sh.sampler.Poll(sh.st.Clock.Now())
	}
	sh.mu.Unlock()
}

// do runs op on the shard's driver under its lock, or fails with ErrClosed
// after Close.
func (sh *dbShard) do(op func(*driver.Driver) error) error {
	drv, err := sh.lock()
	if err != nil {
		return err
	}
	defer sh.unlock()
	return op(drv)
}

// next is the shard's shard.Cursor: Driver.Next under the lock, copying the
// pair into key and value (grown as needed) before another operation can
// reuse the driver's read buffer.
func (sh *dbShard) next(key, value []byte) ([]byte, []byte, error) {
	drv, err := sh.lock()
	if err != nil {
		return nil, nil, err
	}
	defer sh.unlock()
	k, v, err := drv.Next()
	if err == nil {
		k, v = append(key[:0], k...), append(value[:0], v...)
	}
	return k, v, err
}

func (db *DB) shardFor(key []byte) *dbShard { return db.shards[db.part.Shard(key)] }

// each runs op on every shard in index order. The first error wins; later
// shards still run.
func (db *DB) each(op func(*driver.Driver) error) error {
	var first error
	for _, sh := range db.shards {
		if err := sh.do(op); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// peek runs read on every shard in index order under its lock, closed or not:
// the read-only surface.
func (db *DB) peek(read func(i int, sh *dbShard)) {
	for i, sh := range db.shards {
		sh.mu.Lock()
		read(i, sh)
		sh.mu.Unlock()
	}
}

// fanOut splits keys into per-shard index lanes and runs every non-empty lane
// on its shard in index order, one shard lock at a time. The first error
// wins; later lanes still run. On several shards an empty batch touches none;
// one shard runs the whole batch as its lane (a nil lane).
func (db *DB) fanOut(keys [][]byte, run func(drv *driver.Driver, lane []int) error) error {
	if len(db.shards) == 1 {
		return db.shards[0].do(func(drv *driver.Driver) error { return run(drv, nil) })
	}
	db.freeMu.Lock()
	var lanes [][]int
	if n := len(db.free); n > 0 {
		lanes, db.free = db.free[n-1], db.free[:n-1]
	}
	db.freeMu.Unlock()
	if lanes == nil {
		lanes = make([][]int, len(db.shards))
	}
	for i := range lanes {
		lanes[i] = lanes[i][:0]
	}
	for i, k := range keys {
		sh := db.part.Shard(k)
		lanes[sh] = append(lanes[sh], i)
	}
	var first error
	for i, lane := range lanes {
		if len(lane) == 0 {
			continue
		}
		if err := db.shards[i].do(func(drv *driver.Driver) error { return run(drv, lane) }); err != nil && first == nil {
			first = err
		}
	}
	db.freeMu.Lock()
	db.free = append(db.free, lanes)
	db.freeMu.Unlock()
	return first
}

// TraceEvents returns the buffered trace events: the per-shard recorders'
// streams (TraceCapacity > 0) merged by simulated start time, with (shard,
// seq) breaking ties, or a shared Config.Tracer recorder's stream in emission
// order. It returns nil when no ring recorder is attached.
func (db *DB) TraceEvents() []TraceEvent { return db.rings.events() }

// ResetTrace discards every buffered trace event (and, per ring, restarts
// the eviction window) without detaching the recorders. Sequence numbers
// keep running, so an analyzer sees the reset as a truncation, never as a
// reused number. Benchmarks use it to scope attribution to a measured phase
// after an unmeasured fill.
func (db *DB) ResetTrace() {
	for _, rec := range db.rings {
		rec.Reset()
	}
}

// Submission reports the submission policy in effect; every shard is built
// from one Config, so shard 0 speaks for all. It stays readable after Close.
func (db *DB) Submission() SubmissionConfig {
	sh := db.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.Drv.Submission()
}
