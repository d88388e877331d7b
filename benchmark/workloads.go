package main

// The four workloads and the stacks they run on. Each is closed-loop and runs
// a fixed op count (never a fixed duration: compaction cost grows with the
// number of ops, and fixed counts make every simulated number of a single-
// caller workload repeat exactly). The counts below are the ops of ONE pass at
// -seconds 10 -scale 1; a run makes timedReps timed passes and one traced pass
// over the same stream, so -seconds 10 measures about ten seconds in total on
// the 2-core 2.1 GHz sandbox the counts were calibrated on. They scale
// linearly with -seconds and -scale; data-set sizes scale with -scale only.

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"bandslim"
	"bandslim/internal/resp"
	"bandslim/internal/server"
)

type stackKind int

const (
	stackDB      stackKind = iota // one bandslim.DB, one caller
	stackSharded                  // ShardedDB x 4, two caller goroutines
	stackServed                   // internal/server on loopback over ShardedDB x 4
)

type workload struct {
	name, why string
	stack     stackKind
	// exact: one caller drives the stack in a reproducible order, so the timed
	// and traced passes must end with identical counters and expositions.
	exact     bool
	load      int // keys written by set-up at -scale 1
	ops       int // measured ops of one pass at -seconds 10 -scale 1
	valueSize int // fixed value size a Get must return; -1 when it varies
	// ladderLoad/ladderOps size the miniature instance that feeds the layer
	// ladder; they are pinned and do not follow -seconds.
	ladderLoad, ladderOps int
	gen                   func(seed uint64, load, n int) *instance
	config                func() bandslim.Config
}

const (
	shards        = 4
	callers       = 2 // caller goroutines / TCP connections on the concurrent workloads
	pipelineDepth = 16
	serverWindow  = server.DefaultWindow
	// timedReps timed passes per run; a host-clock metric is their median.
	timedReps = 3
)

// serveConfig is what cmd/bandslim-server builds for `-window 128 -cache
// serving`: submission depth 32, doorbell batch 8, 2 us completion coalescing.
func serveConfig() bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Submission = bandslim.SubmissionConfig{QueueDepth: 32, DoorbellBatch: 8, CoalesceInterval: 2 * bandslim.SimMicrosecond}
	cfg.Cache = bandslim.ServingCacheConfig()
	return cfg
}

func cachedConfig() bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Cache = bandslim.ServingCacheConfig()
	return cfg
}

var workloads = []workload{
	{
		name: "fill_mixgraph", stack: stackDB, exact: true,
		why:  "write path from empty: Puts of unique keys with mixgraph sizes, so TAF, WAF and LSM flush+merge carry the cost and no read, cache, shard or server code runs",
		load: 0, ops: 440_000, valueSize: -1,
		ladderOps: 150_000,
		gen:       genFill, config: bandslim.DefaultConfig,
	},
	{
		name: "read_cold_uniform", stack: stackDB, exact: true,
		why:  "read path with the cache off: uniform Gets of flushed data, 10% to absent keys, so SSTable page decode and NAND reads do all the work and every write-path or cache change is bypassed",
		load: 300_000, ops: 60_000, valueSize: 128,
		ladderLoad: 60_000, ladderOps: 12_000,
		gen: genReadCold, config: bandslim.DefaultConfig,
	},
	{
		name: "sharded_zipf_mixed", stack: stackSharded,
		why:  "4 shards with a value cache smaller than the data, 2 any-key callers, zipfian 80/20 Get/Put: cache hits, misses and invalidations mix and the shard hand-off carries the host cost",
		load: 400_000, ops: 260_000, valueSize: 256,
		ladderLoad: 40_000, ladderOps: 60_000,
		gen: genZipfMixed, config: cachedConfig,
	},
	{
		name: "serve_pipelined", stack: stackServed,
		why:  "the RESP server on loopback, 2 connections x depth 16 over a cache-resident key set, 50/50 SET/GET: parse, burst coalescing, batch path and reply encoding carry the cost",
		load: 40_000, ops: 560_000, valueSize: 128,
		ladderLoad: 40_000, ladderOps: 80_000,
		gen: genServe, config: serveConfig,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns n*f, at least min and a multiple of the RESP burst so every
// connection sends whole bursts.
func scaled(n int, f float64, min int) int {
	v := int(float64(n) * f)
	if v < min {
		v = min
	}
	const unit = callers * pipelineDepth
	return (v + unit - 1) / unit * unit
}

// build generates the workload's input at the given sizing.
func (w *workload) build(seed uint64, seconds, scale float64) *instance {
	load := 0
	if w.load > 0 {
		load = scaled(w.load, scale, 256)
	}
	return w.gen(seed, load, scaled(w.ops, scale*seconds/10, 256))
}

// buildLadder generates the miniature instance that feeds the layer ladder.
func (w *workload) buildLadder(seed uint64, scale float64) *instance {
	load := 0
	if w.ladderLoad > 0 {
		load = scaled(w.ladderLoad, scale, 256)
	}
	return w.gen(seed, load, scaled(w.ladderOps, scale, 256))
}

// kv is the surface the library workloads drive; *bandslim.DB and
// *bandslim.ShardedDB both satisfy it.
type kv interface {
	Put(key, value []byte) error
	GetInto(key, dst []byte) ([]byte, error)
	PutBatch(keys, values [][]byte) error
	GetBatchSparse(keys, vals [][]byte, miss []bool) ([][]byte, error)
	Flush() error
	Close() error
	Now() bandslim.SimTime
	Stats() bandslim.Stats
	WritePrometheus(w io.Writer) error
}

// stack is one opened system under test.
type stack struct {
	kv      kv
	db      *bandslim.DB // set on stackDB: gives lock-free Now() for per-op deltas
	srv     *server.Server
	serving chan error
	conns   []*respConn
}

// respConn is one client connection with its codec.
type respConn struct {
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
}

// open builds the workload's stack, optionally traced, with nconns client
// connections when it is served.
func open(kind stackKind, cfg bandslim.Config, nshards, nconns int, tr bandslim.Tracer) (*stack, error) {
	cfg.Tracer = tr
	if kind == stackDB {
		db, err := bandslim.Open(cfg)
		if err != nil {
			return nil, err
		}
		return &stack{kv: db, db: db}, nil
	}
	sdb, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: nshards, PerShard: cfg})
	if err != nil {
		return nil, err
	}
	st := &stack{kv: sdb}
	if kind == stackSharded {
		return st, nil
	}
	srv, err := server.New(server.Config{DB: sdb, Window: serverWindow})
	if err != nil {
		sdb.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sdb.Close()
		return nil, err
	}
	st.srv, st.serving = srv, make(chan error, 1)
	go func() { st.serving <- srv.Serve(ln) }()
	for i := 0; i < nconns; i++ {
		nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, &respConn{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)})
	}
	return st, nil
}

// close stops everything the stack started and waits for it to end.
func (st *stack) close() error {
	var first error
	for _, c := range st.conns {
		c.nc.Close()
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := st.srv.Shutdown(ctx); err != nil {
			first = err
		}
		cancel()
		if err := <-st.serving; err != nil && first == nil {
			first = err
		}
	}
	if err := st.kv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (st *stack) serverStats() bandslim.ServerStats {
	if st.srv == nil {
		return bandslim.ServerStats{}
	}
	return st.srv.Stats()
}

// loadBatch is the PutBatch size set-up uses; on ShardedDB one batch fans out
// across all shards at once.
const loadBatch = 256

// load writes the instance's set-up stream and flushes, so the measured phase
// starts from data that lives in SSTables and the vLog. Library stacks load
// through PutBatch; a served stack loads through its own connections.
func (st *stack) load(in *instance) error {
	if st.srv != nil {
		errs := make(chan error, len(st.conns))
		for i, c := range st.conns {
			go func(c *respConn, ops []op) {
				cl := newCaller(-1, -1)
				err := cl.serveStream(c, ops, nil)
				if err == nil && cl.failed > 0 {
					err = fmt.Errorf("%d SETs failed", cl.failed)
				}
				errs <- err
			}(c, in.load[i])
		}
		for range st.conns {
			if err := <-errs; err != nil {
				return err
			}
		}
		return st.kv.Flush()
	}
	keys, vals := make([][]byte, 0, loadBatch), make([][]byte, 0, loadBatch)
	arena := make([]byte, 0, loadBatch*(8+1024)) // never regrows: 1 KiB is the largest value
	var scratch []byte
	for _, ops := range in.load {
		for len(ops) > 0 {
			n := len(ops)
			if n > loadBatch {
				n = loadBatch
			}
			keys, vals, arena = keys[:0], vals[:0], arena[:0]
			for _, o := range ops[:n] {
				k := len(arena)
				arena = append(arena, 0, 0, 0, 0, 0, 0, 0, 0)
				putKey(arena[k:k+8], o.key)
				v := len(arena)
				scratch = fillValue(scratch, o.key, o.ver, int(o.size))
				arena = append(arena, scratch...)
				keys, vals = append(keys, arena[k:k+8]), append(vals, arena[v:])
			}
			if err := st.kv.PutBatch(keys, vals); err != nil {
				return err
			}
			ops = ops[n:]
		}
	}
	return st.kv.Flush()
}
