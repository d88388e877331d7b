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
//
// SIGINT/SIGTERM (or the SHUTDOWN command) stop accepting, drain in-flight
// commands, close every connection, and then close the DB.
//
// -smoke runs a self-test instead of serving: start the server on a
// loopback port, drive PING/SET/GET/DEL/MSET/MGET/INFO and one pipelined
// SET/GET/MGET burst through a client connection, shut down cleanly, and exit
// non-zero on any mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
		window        = flag.Int("window", server.DefaultWindow, "per-connection burst window: most commands one burst executes")
		method        = flag.String("method", "adaptive", "transfer method: baseline|piggyback|hybrid|adaptive")
		cacheProfile  = flag.String("cache", "off", "read cache: off|serving|lru|2q (serving = 4MiB device-DRAM value cache + 64-page cache; a policy name uses the serving profile with that eviction policy)")
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

func run(addr string, shards, window int, method, cacheProfile, metricsListen, pprofListen string, traceCap int, drainTimeout time.Duration, smoke, quiet bool) error {
	m, err := bandslim.ParseMethod(method)
	if err != nil {
		return err
	}
	cc, err := parseCache(cacheProfile)
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
	cfg.Submission = bandslim.WindowedSubmission(min(window, 32))
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

// runSmoke drives one client session over loopback and checks every reply
// byte for byte. With tracing on it also requires INFO's # Trace section:
// ring health plus the latency-attribution headline reconstructed from the
// live ring.
func runSmoke(addr string, traced bool) error {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	w := resp.NewWriter(nc)
	// exchange sends cmds in one write and requires the replies to be want.
	exchange := func(want string, cmds ...[]string) error {
		for _, args := range cmds {
			w.Array(len(args))
			for _, a := range args {
				w.BulkString(a)
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(nc, got); err != nil {
			return fmt.Errorf("%v: %w", cmds, err)
		}
		if string(got) != want {
			return fmt.Errorf("%v: replied %q, want %q", cmds, got, want)
		}
		return nil
	}
	for _, st := range []struct {
		want string
		cmds [][]string
	}{
		{"+PONG\r\n", [][]string{{"PING"}}},
		{"+OK\r\n", [][]string{{"SET", "smoke-key", "smoke-value"}}},
		{"$11\r\nsmoke-value\r\n", [][]string{{"GET", "smoke-key"}}},
		{"$-1\r\n", [][]string{{"GET", "no-such-key"}}},
		{":1\r\n", [][]string{{"DEL", "smoke-key"}}},
		{"+OK\r\n", [][]string{{"MSET", "smoke-m1", "m1-value", "smoke-m2", "m2-value"}}},
		{"*2\r\n$8\r\nm1-value\r\n$-1\r\n", [][]string{{"MGET", "smoke-m1", "no-such-key"}}},
		// One pipelined write, which the server can serve as one burst: a
		// write run, then a read run.
		{"+OK\r\n$7\r\nb-value\r\n*2\r\n$8\r\nm1-value\r\n$7\r\nb-value\r\n",
			[][]string{{"SET", "smoke-b", "b-value"}, {"GET", "smoke-b"}, {"MGET", "smoke-m1", "smoke-b"}}},
	} {
		if err := exchange(st.want, st.cmds...); err != nil {
			return err
		}
	}

	w.Array(1)
	w.BulkString("INFO")
	if err := w.Flush(); err != nil {
		return err
	}
	rep, err := resp.NewReader(nc).ReadReply()
	if err != nil {
		return fmt.Errorf("INFO: %w", err)
	}
	info := string(rep.Str)
	if rep.Kind != resp.KindBulk || !strings.Contains(info, "sim_time_ns:") ||
		traced && !(strings.Contains(info, "trace_buffered:") && strings.Contains(info, "blame_ops:")) {
		return fmt.Errorf("INFO: unexpected reply %+v (%q)", rep, rep.Str)
	}
	return nil
}
