// Command bandslim-server serves a simulated BandSlim KV-SSD over TCP,
// speaking a RESP2-compatible subset so redis-cli and standard Redis load
// generators work unmodified:
//
//	bandslim-server -addr :6379 -shards 4
//	redis-cli -p 6379 SET mykey myvalue
//	redis-cli -p 6379 GET mykey
//	redis-cli -p 6379 INFO
//
// Supported commands: PING, ECHO, SET, GET, DEL, MSET, MGET, SCAN, INFO,
// SHUTDOWN, QUIT (plus COMMAND and SELECT for client handshakes). Pipelined
// commands are coalesced per burst onto the sharded batch path; the
// per-connection burst window (-window) bounds each burst, and a connection
// is not read while its burst executes, which pushes backpressure onto
// clients through TCP flow control.
//
// -cache enables the tiered read path: a simulated device-DRAM value/page
// cache on each shard's device. GETs and DEL existence probes of absent
// keys need no cache — the device's SSTable filters answer them without a
// NAND read. "serving" picks the default profile; a policy name (lru|2q)
// selects the eviction policy; "off" (the default) keeps the seed read
// path.
//
// Clocking is hybrid: the network edge runs on the wall clock while the
// simulated device advances its own virtual clock. -metrics-listen serves
// a combined /metrics exposition carrying both timebases. -pprof serves
// net/http/pprof for live profiling (on the metrics mux when the addresses
// match, on its own listener otherwise). -trace N attaches per-shard trace
// rings of N events: INFO grows a # Trace section with ring health and the
// live latency-attribution headline, and /metrics gains the blame families.
// Every address is bound before anything is served, and lifecycle lines,
// each bound address among them, go to stderr.
//
// SIGINT/SIGTERM (or the SHUTDOWN command) stop accepting, drain in-flight
// commands, close every connection, and then close the DB. The exit status
// is 0 after a clean drain, 2 for a usage or flag error, and 1 for any other
// failure (an address that cannot be bound among them).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"bandslim"
	"bandslim/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-server:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a usage or flag error: main exits 2 on it, 1 on any other.
var errUsage = errors.New("usage")

// registerPprof mounts the net/http/pprof handlers on a non-default mux, so
// profiling shares (or avoids) the metrics listener per the -pprof flag.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// parseCache maps the -cache flag to a cache config: off, the serving
// profile, or the serving profile with a specific eviction policy.
func parseCache(name string) (bandslim.CacheConfig, error) {
	switch strings.ToLower(name) {
	case "", "off":
		return bandslim.CacheConfig{}, nil
	case "serving":
		return bandslim.ServingCacheConfig(), nil
	}
	pol, err := bandslim.ParseCachePolicy(name)
	if err != nil {
		return bandslim.CacheConfig{}, fmt.Errorf("unknown cache profile %q (want off|serving|lru|2q)", name)
	}
	cc := bandslim.ServingCacheConfig()
	cc.Policy = pol
	return cc, nil
}

// run is the whole command: it serves until ctx is cancelled or a client
// sends SHUTDOWN, drains, and returns nil. Every failure comes back as the
// error; -h is a success.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("bandslim-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":6379", "TCP listen address")
		shards        = fs.Int("shards", 4, "simulated device shards")
		window        = fs.Int("window", server.DefaultWindow, "per-connection burst window: most commands one burst executes")
		method        = fs.String("method", "adaptive", "transfer method: baseline|piggyback|hybrid|adaptive")
		cacheProfile  = fs.String("cache", "off", "read cache: off|serving|lru|2q (serving = 4MiB device-DRAM value cache + 64-page cache; a policy name uses the serving profile with that eviction policy)")
		metricsListen = fs.String("metrics-listen", "", "serve /metrics on this address (empty: off)")
		pprofListen   = fs.String("pprof", "", "serve net/http/pprof on this address (empty: off; reuses -metrics-listen's mux when equal)")
		traceCap      = fs.Int("trace", 0, "per-shard trace ring capacity in events (0: tracing off; enables INFO blame and /metrics blame families)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight commands at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}

	if *window < 1 {
		return fmt.Errorf("-window %d: want at least 1", *window)
	}
	m, err := bandslim.ParseMethod(*method)
	if err != nil {
		return err
	}
	cc, err := parseCache(*cacheProfile)
	if err != nil {
		return err
	}
	cfg := bandslim.DefaultConfig()
	cfg.Method = m
	// -window is one knob spanning the network edge and the simulated device:
	// the shards' submission depth tracks it, capped at 32 (the useful
	// concurrency of the simulated NAND array). A window of 1 degenerates to
	// the paper's synchronous testbed. INFO reports the policy under
	// submission_*.
	cfg.Submission = bandslim.WindowedSubmission(min(*window, 32))
	cfg.Cache = cc
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:        *shards,
		PerShard:      cfg,
		TraceCapacity: *traceCap,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	srv, err := server.New(server.Config{DB: db, Window: *window, Logf: logf})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	defer ln.Close()
	var httpServers []*http.Server
	var httpWG sync.WaitGroup
	defer func() {
		for _, h := range httpServers {
			h.Close()
		}
		httpWG.Wait()
	}()
	// serveHTTP binds flagAddr before serving mux there, so an address that
	// cannot be bound fails the command instead of a background goroutine.
	serveHTTP := func(flagName, flagAddr, path string, mux *http.ServeMux) error {
		hl, err := net.Listen("tcp", flagAddr)
		if err != nil {
			return fmt.Errorf("-%s: %w", flagName, err)
		}
		h := &http.Server{Handler: mux}
		httpServers = append(httpServers, h)
		httpWG.Add(1)
		go func() {
			defer httpWG.Done()
			if err := h.Serve(hl); !errors.Is(err, http.ErrServerClosed) {
				logf("bandslim-server: %s: %v", path, err)
			}
		}()
		logf("bandslim-server: serving %s on %s", path, hl.Addr())
		return nil
	}
	if *metricsListen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := srv.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		if *pprofListen == *metricsListen {
			registerPprof(mux)
		}
		if err := serveHTTP("metrics-listen", *metricsListen, "/metrics", mux); err != nil {
			return err
		}
	}
	if *pprofListen != "" && *pprofListen != *metricsListen {
		mux := http.NewServeMux()
		registerPprof(mux)
		if err := serveHTTP("pprof", *pprofListen, "/debug/pprof/", mux); err != nil {
			return err
		}
	}

	// Serve until ctx is cancelled or the SHUTDOWN command closes the
	// listener; either way the drain finishes before the DB closes.
	var serveErr error
	served := make(chan struct{})
	go func() {
		serveErr = srv.Serve(ln)
		close(served)
	}()
	select {
	case <-ctx.Done():
		logf("bandslim-server: stopping, draining")
	case <-served:
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(dctx)
	<-served
	return errors.Join(serveErr, err)
}
