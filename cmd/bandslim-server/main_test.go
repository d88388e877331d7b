package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bandslim/internal/resp"
)

// logBuf is run's stderr: the server's goroutines write it while the test
// polls it for the addresses run bound.
type logBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// instance is one in-process run of the command.
type instance struct {
	log    logBuf
	cancel context.CancelFunc
	done   chan struct{} // closed when run returns err
	err    error
}

// start runs the command on a loopback port with two shards plus args. The
// test's cleanup cancels the run and waits for it.
func start(t *testing.T, args ...string) *instance {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	in := &instance{cancel: cancel, done: make(chan struct{})}
	go func() {
		in.err = run(ctx, append([]string{"-addr", "127.0.0.1:0", "-shards", "2"}, args...), &in.log)
		close(in.done)
	}()
	t.Cleanup(func() {
		cancel()
		<-in.done
	})
	return in
}

// addr waits for the log line "<what> <address>" and returns the address.
func (in *instance) addr(t *testing.T, what string) string {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(what) + ` (\S+)`)
	deadline := time.After(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(in.log.String()); m != nil {
			return m[1]
		}
		select {
		case <-in.done:
			t.Fatalf("run returned %v before logging %q:\n%s", in.err, what, in.log.String())
		case <-deadline:
			t.Fatalf("no %q line in:\n%s", what, in.log.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// wait returns run's error once it has drained and returned.
func (in *instance) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-in.done:
		return in.err
	case <-time.After(20 * time.Second):
		t.Fatalf("run did not return:\n%s", in.log.String())
		return nil
	}
}

// dial opens a RESP connection to addr; do round-trips one command on it.
func dial(t *testing.T, addr string) func(args ...string) resp.Reply {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	w, r := resp.NewWriter(nc), resp.NewReader(nc)
	return func(args ...string) resp.Reply {
		t.Helper()
		w.Array(len(args))
		for _, a := range args {
			w.BulkString(a)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return rep
	}
}

// get fetches url and returns its body, requiring 200 OK.
func get(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, res.Status)
	}
	return string(body)
}

// requireAll fails unless out contains every want.
func requireAll(t *testing.T, what, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s lacks %q:\n%s", what, w, out)
		}
	}
}

// The serving profile with tracing, metrics and pprof sharing one listener:
// INFO carries the simulated clock and the # Trace section, /metrics the
// simulation, cache, blame and server families, the metrics mux serves
// pprof, and the SHUTDOWN command ends run with a clean drain.
func TestServeTracedThenShutdownCommand(t *testing.T) {
	in := start(t, "-cache", "serving", "-trace", "65536",
		"-metrics-listen", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	do := dial(t, in.addr(t, "listening on"))
	metrics := "http://" + in.addr(t, "serving /metrics on")

	if rep := do("SET", "k", "v"); string(rep.Str) != "OK" {
		t.Fatalf("SET: %+v", rep)
	}
	if rep := do("GET", "k"); rep.Kind != resp.KindBulk || string(rep.Str) != "v" {
		t.Fatalf("GET: %+v", rep)
	}
	rep := do("INFO")
	if rep.Kind != resp.KindBulk {
		t.Fatalf("INFO: %+v", rep)
	}
	requireAll(t, "INFO", string(rep.Str), "sim_time_ns:", "# Trace\r\n", "trace_buffered:", "blame_ops:")

	requireAll(t, "/metrics", get(t, metrics+"/metrics"),
		"bandslim_host_puts", "bandslim_sim_time_ns",
		"bandslim_cache_value_hits", "bandslim_cache_page_misses",
		"bandslim_blame_ops",
		"bandslim_server_conns_accepted_total 1", "bandslim_server_cmd_set_total 1", "bandslim_server_cmd_latency_ns")
	requireAll(t, "/debug/pprof/ on the metrics listener", get(t, metrics+"/debug/pprof/"), "goroutine")

	if rep := do("SHUTDOWN"); string(rep.Str) != "OK" {
		t.Fatalf("SHUTDOWN: %+v", rep)
	}
	if err := in.wait(t); err != nil {
		t.Fatalf("run after SHUTDOWN: %v\n%s", err, in.log.String())
	}
	requireAll(t, "log", in.log.String(), "server: shut down")
}

// On an address of its own, pprof gets its own listener and the metrics mux
// serves no pprof; cancelling run's context drains and returns nil.
func TestPprofOwnListenerThenCancel(t *testing.T) {
	in := start(t, "-metrics-listen", "127.0.0.1:0", "-pprof", "localhost:0")
	metrics := "http://" + in.addr(t, "serving /metrics on")
	pprof := "http://" + in.addr(t, "serving /debug/pprof/ on")
	if metrics == pprof {
		t.Fatalf("pprof shares %s with metrics", metrics)
	}
	requireAll(t, "/debug/pprof/", get(t, pprof+"/debug/pprof/"), "goroutine")
	requireAll(t, "/metrics", get(t, metrics+"/metrics"), "bandslim_server_conns_accepted_total 0")
	if res, err := http.Get(metrics + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if res.Body.Close(); res.StatusCode != http.StatusNotFound {
		t.Errorf("metrics listener answers /debug/pprof/ with %s", res.Status)
	}

	in.cancel()
	if err := in.wait(t); err != nil {
		t.Fatalf("run after cancel: %v\n%s", err, in.log.String())
	}
	requireAll(t, "log", in.log.String(), "draining", "server: shut down")
}

// Bad arguments fail before anything listens: flag and usage errors wrap
// errUsage (exit 2), bad values do not (exit 1); -h succeeds.
func TestBadArgumentsFailBeforeListening(t *testing.T) {
	for _, c := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-bogus"}, true},
		{[]string{"stray"}, true},
		{[]string{"-method", "warp"}, false},
		{[]string{"-cache", "huge"}, false},
		{[]string{"-window", "-1"}, false},
		{[]string{"-window", "0"}, false},
		{[]string{"-shards", "0"}, false},
	} {
		var log logBuf
		err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, c.args...), &log)
		if err == nil || errors.Is(err, errUsage) != c.usage {
			t.Errorf("%q: err %v, want a usage error: %v", c.args, err, c.usage)
		}
		if strings.Contains(log.String(), "listening") {
			t.Errorf("%q: listened before failing:\n%s", c.args, log.String())
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard); err != nil {
		t.Errorf("-h: %v", err)
	}
}

// An address that cannot be bound fails run with the bind error, whichever
// flag names it.
func TestOccupiedAddressFails(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, flagName := range []string{"-addr", "-metrics-listen", "-pprof"} {
		var log logBuf
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", flagName, busy.Addr().String()}, &log)
		if !errors.Is(err, syscall.EADDRINUSE) || !strings.HasPrefix(err.Error(), flagName+":") {
			t.Errorf("%s on a bound port: err %v, want %s: ... address already in use", flagName, err, flagName)
		}
		if strings.Contains(log.String(), "listening") {
			t.Errorf("%s on a bound port: served anyway:\n%s", flagName, log.String())
		}
	}
}
