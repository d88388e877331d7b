// Package server is the network serving front-end: a TCP server speaking a
// RESP2-compatible subset (PING, SET, GET, DEL, MSET, MGET, SCAN, INFO,
// SHUTDOWN, plus the handshake commands stock clients send), so redis-cli and
// standard load generators drive a BandSlim stack unmodified.
//
// Each connection gets a reader/writer goroutine pair joined by a bounded
// ring of preallocated command slots. The reader acquires a slot before it
// parses — when all slots are in flight it stops reading, which propagates
// backpressure to the client through TCP flow control. The writer drains
// every queued slot per wakeup and coalesces the burst: consecutive SETs
// become one PutBatch, consecutive GETs one GetBatchSparse, split into shard
// lanes by the DB batch path and run inline on the writer goroutine
// one shard lock at a time (so two connections' bursts interleave shard by
// shard), with a single output flush per burst. Pipelined clients therefore
// get batch-path service automatically.
//
// Clocking is hybrid, after OpenCXD: the network edge (accept, parse, reply)
// runs on the wall clock and feeds wall-time latency digests, while the
// device underneath advances on its own deterministic virtual clock. INFO
// and /metrics report both timebases side by side.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bandslim"
	"bandslim/internal/metrics"
	"bandslim/internal/timeseries"
)

// Config configures a Server. DB is required; everything else has defaults.
type Config struct {
	// DB is the store being served. The server does not close it; the
	// process owning both shuts the server down first, then the DB.
	DB *bandslim.DB

	// Window bounds in-flight parsed commands per connection (the slot
	// ring). When every slot is in flight the reader stops reading — TCP
	// backpressure. Default 128.
	Window int

	// Logf, when set, receives one line per lifecycle event (listen,
	// shutdown, per-connection protocol errors). Default: silent.
	Logf func(format string, args ...any)
}

// DefaultWindow is the per-connection in-flight command window.
const DefaultWindow = 128

// opcode indexes the command dispatch table and the per-opcode latency
// digests.
type opcode int

const (
	opPing opcode = iota
	opSet
	opGet
	opDel
	opMSet
	opMGet
	opScan
	opInfo
	opShutdown
	opOther // handshake commands (COMMAND, QUIT, SELECT, ECHO) and unknowns
	numOpcodes
)

// opNames label the per-opcode latency histogram families.
var opNames = [numOpcodes]string{
	"ping", "set", "get", "del", "mset", "mget", "scan", "info", "shutdown", "other",
}

// Server is a RESP front-end over one DB. Create with New, start with
// Serve, stop with Shutdown.
type Server struct {
	cfg    Config
	logf   func(string, ...any)
	window int

	ln        net.Listener
	startWall time.Time

	done     chan struct{} // closed when shutdown begins
	shutReq  chan struct{} // SHUTDOWN command -> background shutdown
	shutOnce sync.Once
	serveWG  sync.WaitGroup // SHUTDOWN command watcher

	connMu sync.Mutex
	conns  map[*conn]struct{}
	connWG sync.WaitGroup

	// Counters behind Stats()/metrics; all atomics so conn goroutines
	// update them without a lock.
	accepted atomic.Int64
	active   atomic.Int64
	cmds     [numOpcodes]atomic.Int64
	errs     atomic.Int64
	stalls   atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// Wall-clock parse-to-reply latency per opcode, nanoseconds. Observed
	// by connection writers under latMu (Observe is alloc-free, so the
	// critical section is tiny).
	latMu sync.Mutex
	lat   [numOpcodes]*metrics.Histogram
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("server: Window must be >= 0, got %d", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		logf:    logf,
		window:  cfg.Window,
		done:    make(chan struct{}),
		shutReq: make(chan struct{}, 1),
		conns:   make(map[*conn]struct{}),
	}
	for i := range s.lat {
		s.lat[i] = metrics.NewHistogram()
	}
	return s, nil
}

// Serve accepts connections on ln until Shutdown. It returns nil on a clean
// shutdown, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.startWall = time.Now()
	s.logf("server: listening on %s", ln.Addr())

	// SHUTDOWN command watcher: runs the drain outside any connection
	// goroutine so the issuing connection can be drained like the rest. It
	// must call the internal shutdown with fromWatcher set: the exported
	// Shutdown waits on serveWG, and the watcher's own Done only runs after
	// the drain returns, so waiting here would deadlock on itself.
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		select {
		case <-s.shutReq:
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.shutdown(ctx, true)
		case <-s.done:
		}
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.accepted.Add(1)
		c := newConn(s, nc)
		// Register under connMu with a done check so a conn accepted just as
		// the listener closed cannot slip in after Shutdown's deadline sweep:
		// either it registers before the sweep (and gets swept), or it
		// observes done closed here and is refused — never a reader that
		// Shutdown does not know to kick, never a connWG.Add racing the Wait.
		s.connMu.Lock()
		select {
		case <-s.done:
			s.connMu.Unlock()
			nc.Close()
			continue
		default:
		}
		s.conns[c] = struct{}{}
		s.active.Add(1)
		s.connWG.Add(1)
		s.connMu.Unlock()
		go c.serve()
	}
}

// finish removes a connection from the live set.
func (s *Server) finish(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.active.Add(-1)
	s.connWG.Done()
}

// beginShutdown is the SHUTDOWN command hook: it requests an orderly drain
// without blocking the issuing connection.
func (s *Server) beginShutdown() {
	select {
	case s.shutReq <- struct{}{}:
	default:
	}
}

// Shutdown stops accepting, unblocks every reader, drains in-flight
// commands, and waits for all connection goroutines to exit. If ctx expires
// first the remaining connections are force-closed and waited for. Safe to
// call concurrently and more than once; the DB itself is left open for the
// owner to close.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.shutdown(ctx, false)
}

// shutdown is the drain body behind Shutdown. fromWatcher marks the call
// made from the SHUTDOWN command watcher goroutine, which must not wait on
// serveWG: the watcher's own Done runs only after this returns, so waiting
// would self-deadlock, leak the watcher, and wedge every later external
// Shutdown on the same Wait.
func (s *Server) shutdown(ctx context.Context, fromWatcher bool) error {
	s.shutOnce.Do(func() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
	})
	// Kick every blocked reader off its socket; writers then drain the
	// slots already in flight and exit.
	s.connMu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	waited := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		s.connMu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		<-waited
		err = ctx.Err()
	}
	if !fromWatcher {
		s.serveWG.Wait()
	}
	s.logf("server: shut down (%d connections served)", s.accepted.Load())
	return err
}

// Stats snapshots the server counters.
func (s *Server) Stats() bandslim.ServerStats {
	return bandslim.ServerStats{
		Accepted: s.accepted.Load(),
		Active:   s.active.Load(),
		Ping:     s.cmds[opPing].Load(),
		Set:      s.cmds[opSet].Load(),
		Get:      s.cmds[opGet].Load(),
		Del:      s.cmds[opDel].Load(),
		MSet:     s.cmds[opMSet].Load(),
		MGet:     s.cmds[opMGet].Load(),
		Scan:     s.cmds[opScan].Load(),
		Info:     s.cmds[opInfo].Load(),
		Shutdown: s.cmds[opShutdown].Load(),
		Other:    s.cmds[opOther].Load(),
		Errors:   s.errs.Load(),
		Stalls:   s.stalls.Load(),
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
	}
}

// observeLatency records one wall-clock parse-to-reply sample.
func (s *Server) observeLatency(op opcode, d time.Duration) {
	s.latMu.Lock()
	s.lat[op].Observe(float64(d.Nanoseconds()))
	s.latMu.Unlock()
}

// latencyHelp names the wall-clock histogram family in the exposition.
var latencyHelp = map[string]string{
	"server_cmd_latency_ns": "Wall-clock parse-to-reply command latency by opcode, ns.",
}

// WriteMetrics writes one combined Prometheus exposition: the DB's simulated
// counters and histograms, the server scalars, and the wall-clock per-opcode
// latency digests. The families are disjoint, so concatenation is a valid
// exposition.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.cfg.DB.WritePrometheus(w); err != nil {
		return err
	}
	if err := bandslim.WriteServerPrometheus(w, s.Stats()); err != nil {
		return err
	}
	s.latMu.Lock()
	hists := make([]timeseries.Hist, 0, numOpcodes)
	for op := opcode(0); op < numOpcodes; op++ {
		if s.lat[op].Count() == 0 {
			continue
		}
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "server_cmd_latency_ns", Label: "op", Value: opNames[op]},
			H:   s.lat[op].Clone(),
		})
	}
	s.latMu.Unlock()
	return timeseries.WritePrometheus(w, "bandslim", nil, timeseries.Snapshot{Hists: hists}, latencyHelp)
}
