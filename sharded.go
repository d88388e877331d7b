package bandslim

import (
	"fmt"
	"sync"

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
	// merged stream with TraceEvents.
	TraceCapacity int
}

// dbShard is one shard of a DB: the op engine and the mutex every access to
// it holds.
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
	opts := stackOptions(cfg.PerShard)
	db := &DB{shards: make([]*dbShard, cfg.Shards), part: part,
		rows: exportedRows(cfg.PerShard.Faults != nil, opts.Device.Cache.Enabled())}
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
			// Simulated-time metric samples due since the last operation are
			// recorded after every engine op: a single comparison when no
			// boundary was crossed.
			sh.sampler = timeseries.NewSampler(interval, db.descs, func() timeseries.Snapshot { return snapshot(st, db.rows) })
			st.AfterOp = func() { sh.sampler.Poll(st.Clock.Now()) }
		}
		// A shared PerShard.Tracer ring is shard 0's ring; count it once.
		if i == 0 || cfg.TraceCapacity > 0 {
			db.rings = append(db.rings, sh.rings...)
		}
		db.shards[i] = sh
	}
	return db, nil
}

// lock takes the shard's mutex and returns its stack, or releases the mutex
// and fails with ErrClosed after Close. On success the caller unlocks sh.mu.
// Operations that return values call it directly: a closure through do costs
// a hot Get about 50 ns.
func (sh *dbShard) lock() (*shard.Stack, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	return sh.st, nil
}

// do runs op on the shard's stack under its lock, or fails with ErrClosed
// after Close.
func (sh *dbShard) do(op func(*shard.Stack) error) error {
	st, err := sh.lock()
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	return op(st)
}

// next is the shard's shard.Cursor: Stack.Next under the lock, so the pair is
// copied out of the driver's read buffer before another operation can run.
func (sh *dbShard) next(key, value []byte) ([]byte, []byte, error) {
	st, err := sh.lock()
	if err != nil {
		return nil, nil, err
	}
	defer sh.mu.Unlock()
	return st.Next(key, value)
}

func (db *DB) shardFor(key []byte) *dbShard { return db.shards[db.part.Shard(key)] }

// each runs op on every shard in index order. The first error wins; later
// shards still run.
func (db *DB) each(op func(*shard.Stack) error) error {
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
func (db *DB) fanOut(keys [][]byte, run func(st *shard.Stack, lane []int) error) error {
	if len(db.shards) == 1 {
		return db.shards[0].do(func(st *shard.Stack) error { return run(st, nil) })
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
		if err := db.shards[i].do(func(st *shard.Stack) error { return run(st, lane) }); err != nil && first == nil {
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

// ShardFor reports which shard index serves key.
func (db *DB) ShardFor(key []byte) int { return db.part.Shard(key) }
