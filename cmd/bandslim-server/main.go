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
// commands are coalesced per event-loop tick onto the sharded batch path;
// per-connection in-flight windows (-window) bound memory and push
// backpressure onto clients through TCP flow control.
//
// -cache enables the tiered read path: a simulated device-DRAM value/page
// cache plus a host-side negative cache that short-circuits known-miss GETs
// and DEL existence probes before any NVMe command is issued. "serving"
// picks the default profile; a policy name (lru|2q) selects the
// eviction policy; "off" (the default) keeps the seed read path.
//
// Clocking is hybrid: the network edge runs on the wall clock while the
// simulated device advances its own virtual clock. -metrics-listen serves
// a combined /metrics exposition carrying both timebases. -pprof serves
// net/http/pprof for live profiling (on the metrics mux when the addresses
// match, on its own listener otherwise). -trace N attaches per-shard trace
// rings of N events: INFO grows a # Trace section with ring health and the
// live latency-attribution headline, and /metrics gains the blame families.
//
// SIGINT/SIGTERM (or the SHUTDOWN command) stop accepting, drain in-flight
// commands, close every connection, and then close the DB.
//
// -smoke runs a self-test instead of serving: start the server on a
// loopback port, drive PING/SET/GET/DEL/INFO through a client connection,
// shut down cleanly, and exit non-zero on any mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bandslim"
	"bandslim/internal/resp"
	"bandslim/internal/server"
)

// registerPprof mounts the net/http/pprof handlers on a non-default mux, so
// profiling shares (or avoids) the metrics listener per the -pprof flag.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	var (
		addr          = flag.String("addr", ":6379", "TCP listen address")
		shards        = flag.Int("shards", 4, "simulated device shards")
		window        = flag.Int("window", server.DefaultWindow, "per-connection in-flight command window")
		method        = flag.String("method", "adaptive", "transfer method: baseline|piggyback|hybrid|adaptive")
		cacheProfile  = flag.String("cache", "off", "read cache: off|serving|lru|2q (serving = 4MiB device-DRAM value cache + 64-page cache + negative cache; a policy name uses the serving profile with that eviction policy)")
		metricsListen = flag.String("metrics-listen", "", "serve /metrics on this address (empty: off)")
		pprofListen   = flag.String("pprof", "", "serve net/http/pprof on this address (empty: off; reuses -metrics-listen's mux when equal)")
		traceCap      = flag.Int("trace", 0, "per-shard trace ring capacity in events (0: tracing off; enables INFO blame and /metrics blame families)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight commands at shutdown")
		smoke         = flag.Bool("smoke", false, "run a loopback self-test and exit")
		quiet         = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	if err := run(*addr, *shards, *window, *method, *cacheProfile, *metricsListen, *pprofListen, *traceCap, *drainTimeout, *smoke, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "bandslim-server: %v\n", err)
		os.Exit(1)
	}
}

// submissionForWindow derives the per-shard NVMe submission policy from the
// per-connection in-flight window, so -window is one coherent knob spanning
// the network edge and the simulated device: the shard queue depth tracks
// the window (capped at 32, the useful concurrency of the simulated NAND
// array), doorbells batch up to 8 submissions per MMIO write, and
// completions coalesce on a 2µs interrupt grid. A window of 1 degenerates
// to the paper's synchronous testbed. INFO reports the mapping under
// submission_*.
func submissionForWindow(window int) bandslim.SubmissionConfig {
	depth := window
	if depth > 32 {
		depth = 32
	}
	if depth <= 1 {
		return bandslim.SubmissionConfig{}
	}
	return bandslim.SubmissionConfig{
		QueueDepth:       depth,
		DoorbellBatch:    8,
		CoalesceInterval: 2 * bandslim.SimMicrosecond,
	}
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

// parseMethod maps the -method flag to a transfer method.
func parseMethod(name string) (bandslim.TransferMethod, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return bandslim.Baseline, nil
	case "piggyback":
		return bandslim.Piggyback, nil
	case "hybrid":
		return bandslim.Hybrid, nil
	case "adaptive":
		return bandslim.Adaptive, nil
	}
	return 0, fmt.Errorf("unknown method %q", name)
}

func run(addr string, shards, window int, method, cacheProfile, metricsListen, pprofListen string, traceCap int, drainTimeout time.Duration, smoke, quiet bool) error {
	m, err := parseMethod(method)
	if err != nil {
		return err
	}
	cc, err := parseCache(cacheProfile)
	if err != nil {
		return err
	}
	cfg := bandslim.DefaultConfig()
	cfg.Method = m
	cfg.Submission = submissionForWindow(window)
	cfg.Cache = cc
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:        shards,
		PerShard:      cfg,
		TraceCapacity: traceCap,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv, err := server.New(server.Config{DB: db, Window: window, Logf: logf})
	if err != nil {
		return err
	}

	if smoke {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	var msrv *http.Server
	if metricsListen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := srv.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		if pprofListen == metricsListen {
			registerPprof(mux)
		}
		msrv = &http.Server{Addr: metricsListen, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logf("bandslim-server: metrics listener: %v", err)
			}
		}()
		defer msrv.Close()
	}
	if pprofListen != "" && pprofListen != metricsListen {
		mux := http.NewServeMux()
		registerPprof(mux)
		psrv := &http.Server{Addr: pprofListen, Handler: mux}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logf("bandslim-server: pprof listener: %v", err)
			}
		}()
		defer psrv.Close()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if smoke {
		err := runSmoke(ln.Addr().String(), traceCap > 0)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
		if serr := <-serveErr; err == nil {
			err = serr
		}
		if err == nil {
			fmt.Println("server smoke: ok")
		}
		return err
	}

	// Serve until a signal or the SHUTDOWN command stops us.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logf("bandslim-server: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-serveErr
	case err := <-serveErr:
		// Serve returned on its own: accept failure, or SHUTDOWN command
		// (which runs the drain itself before Serve returns).
		return err
	}
}

// runSmoke drives one client session over loopback and checks every reply.
// With tracing on it also requires INFO's # Trace section: ring health plus
// the latency-attribution headline reconstructed from the live ring.
func runSmoke(addr string, traced bool) error {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	r, w := resp.NewReader(nc), resp.NewWriter(nc)
	do := func(args ...string) (resp.Reply, error) {
		w.Array(len(args))
		for _, a := range args {
			w.BulkString(a)
		}
		if err := w.Flush(); err != nil {
			return resp.Reply{}, err
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		return r.ReadReply()
	}
	expect := func(check func(resp.Reply) bool, args ...string) error {
		rep, err := do(args...)
		if err != nil {
			return fmt.Errorf("%v: %w", args, err)
		}
		if !check(rep) {
			return fmt.Errorf("%v: unexpected reply %+v (%q)", args, rep, rep.Str)
		}
		return nil
	}
	simple := func(want string) func(resp.Reply) bool {
		return func(rep resp.Reply) bool { return rep.Kind == resp.KindSimple && string(rep.Str) == want }
	}
	bulk := func(want string) func(resp.Reply) bool {
		return func(rep resp.Reply) bool { return rep.Kind == resp.KindBulk && !rep.Null && string(rep.Str) == want }
	}
	steps := []error{
		expect(simple("PONG"), "PING"),
		expect(simple("OK"), "SET", "smoke-key", "smoke-value"),
		expect(bulk("smoke-value"), "GET", "smoke-key"),
		expect(func(rep resp.Reply) bool { return rep.Kind == resp.KindBulk && rep.Null }, "GET", "no-such-key"),
		expect(func(rep resp.Reply) bool { return rep.Kind == resp.KindInteger && rep.Int == 1 }, "DEL", "smoke-key"),
		expect(func(rep resp.Reply) bool {
			if rep.Kind != resp.KindBulk || !strings.Contains(string(rep.Str), "sim_time_ns:") {
				return false
			}
			if !traced {
				return true
			}
			return strings.Contains(string(rep.Str), "trace_buffered:") &&
				strings.Contains(string(rep.Str), "blame_ops:")
		}, "INFO"),
	}
	for _, err := range steps {
		if err != nil {
			return err
		}
	}
	return nil
}
