package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandslim"
	"bandslim/internal/resp"
)

// testDB opens a small sharded stack for serving tests.
func testDB(t *testing.T, shards int) *bandslim.DB {
	t.Helper()
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:   shards,
		PerShard: bandslim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer builds a server over db, starts Serve on a loopback listener,
// and registers an idempotent stop func that shuts everything down.
func startServer(t *testing.T, db *bandslim.DB, window int) (*Server, string, func()) {
	t.Helper()
	s, err := New(Config{DB: db, Window: window, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
			db.Close()
		})
	}
	t.Cleanup(stop)
	return s, ln.Addr().String(), stop
}

// client is a minimal RESP client over one TCP connection.
type client struct {
	t  *testing.T
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{t: t, nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
}

// send queues one command without flushing (for pipelining).
func (c *client) send(args ...string) {
	c.t.Helper()
	c.w.Array(len(args))
	for _, a := range args {
		c.w.BulkString(a)
	}
}

// flush pushes queued commands onto the wire.
func (c *client) flush() {
	c.t.Helper()
	if err := c.w.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

// reply reads one reply.
func (c *client) reply() resp.Reply {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rep, err := c.r.ReadReply()
	if err != nil {
		c.t.Fatalf("read reply: %v", err)
	}
	return rep
}

// do round-trips one command.
func (c *client) do(args ...string) resp.Reply {
	c.t.Helper()
	c.send(args...)
	c.flush()
	return c.reply()
}

func (c *client) expectSimple(want string, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if rep.Kind != resp.KindSimple || string(rep.Str) != want {
		c.t.Fatalf("%v: got %+v (%q), want +%s", args, rep, rep.Str, want)
	}
}

// expectOK reads one reply, which must be +OK.
func (c *client) expectOK() {
	c.t.Helper()
	if rep := c.reply(); rep.Kind != resp.KindSimple || string(rep.Str) != "OK" {
		c.t.Fatalf("got %+v (%q), want +OK", rep, rep.Str)
	}
}

func (c *client) expectBulk(want string, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if rep.Kind != resp.KindBulk || rep.Null || string(rep.Str) != want {
		c.t.Fatalf("%v: got %+v (%q), want bulk %q", args, rep, rep.Str, want)
	}
}

func TestServeBasic(t *testing.T) {
	db := testDB(t, 2)
	s, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)

	c.expectSimple("PONG", "PING")
	c.expectBulk("hello", "PING", "hello")
	c.expectBulk("echoed", "ECHO", "echoed")
	c.expectSimple("OK", "SELECT", "0")

	c.expectSimple("OK", "SET", "alpha", "one")
	c.expectBulk("one", "GET", "alpha")

	if rep := c.do("GET", "missing"); rep.Kind != resp.KindBulk || !rep.Null {
		t.Fatalf("GET missing: %+v, want null bulk", rep)
	}

	if rep := c.do("DEL", "alpha", "missing"); rep.Kind != resp.KindInteger || rep.Int != 1 {
		t.Fatalf("DEL: %+v, want :1", rep)
	}
	if rep := c.do("GET", "alpha"); !rep.Null {
		t.Fatalf("GET after DEL: %+v, want null", rep)
	}

	c.expectSimple("OK", "MSET", "k1", "v1", "k2", "v2", "k3", "v3")
	rep := c.do("MGET", "k1", "nope", "k3")
	if rep.Kind != resp.KindArray || rep.N != 3 {
		t.Fatalf("MGET header: %+v", rep)
	}
	for _, want := range []struct {
		null bool
		str  string
	}{{false, "v1"}, {true, ""}, {false, "v3"}} {
		el := c.reply()
		if el.Null != want.null || string(el.Str) != want.str {
			t.Fatalf("MGET element: %+v, want null=%v %q", el, want.null, want.str)
		}
	}

	// COMMAND (the redis-cli handshake probe) gets an empty array.
	if rep := c.do("COMMAND", "DOCS"); rep.Kind != resp.KindArray || rep.N != 0 {
		t.Fatalf("COMMAND: %+v, want *0", rep)
	}

	// INFO carries both clocks and the serving counters.
	rep = c.do("INFO")
	if rep.Kind != resp.KindBulk {
		t.Fatalf("INFO: %+v", rep)
	}
	info := string(rep.Str)
	for _, want := range []string{"# Server", "connections_active:1", "sim_time_ns:", "puts:", "uptime_wall_seconds:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q in:\n%s", want, info)
		}
	}

	// Errors: unknown command and wrong arity, connection stays usable.
	if rep := c.do("FROBNICATE"); rep.Kind != resp.KindError || !strings.Contains(string(rep.Str), "unknown command") {
		t.Fatalf("unknown command: %+v", rep)
	}
	if rep := c.do("SET", "just-a-key"); rep.Kind != resp.KindError || !strings.Contains(string(rep.Str), "wrong number of arguments") {
		t.Fatalf("arity error: %+v", rep)
	}
	c.expectSimple("PONG", "PING")

	st := s.Stats()
	if st.Accepted != 1 || st.Active != 1 {
		t.Fatalf("conn counters: %+v", st)
	}
	if st.Set != 2 || st.Get != 3 || st.Del != 1 || st.MSet != 1 || st.MGet != 1 || st.Info != 1 {
		t.Fatalf("command counters: %+v", st)
	}
	if st.Errors != 2 {
		t.Fatalf("error counter: %+v", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not moving: %+v", st)
	}
}

func TestServeInlineCommands(t *testing.T) {
	db := testDB(t, 1)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)

	// Raw inline protocol, as telnet or nc would send it.
	if _, err := c.nc.Write([]byte("PING\r\nSET ik iv\r\nGET ik\r\n")); err != nil {
		t.Fatal(err)
	}
	if rep := c.reply(); rep.Kind != resp.KindSimple || string(rep.Str) != "PONG" {
		t.Fatalf("inline PING: %+v", rep)
	}
	if rep := c.reply(); rep.Kind != resp.KindSimple || string(rep.Str) != "OK" {
		t.Fatalf("inline SET: %+v", rep)
	}
	if rep := c.reply(); rep.Kind != resp.KindBulk || string(rep.Str) != "iv" {
		t.Fatalf("inline GET: %+v", rep)
	}
}

func TestServePipelining(t *testing.T) {
	db := testDB(t, 4)
	s, addr, _ := startServer(t, db, 8) // window smaller than the pipeline
	c := dial(t, addr)

	const n = 200
	for i := 0; i < n; i++ {
		c.send("SET", fmt.Sprintf("pk%03d", i), fmt.Sprintf("pv%03d", i))
	}
	c.flush()
	for i := 0; i < n; i++ {
		if rep := c.reply(); rep.Kind != resp.KindSimple || string(rep.Str) != "OK" {
			t.Fatalf("SET %d: %+v", i, rep)
		}
	}
	for i := 0; i < n; i++ {
		c.send("GET", fmt.Sprintf("pk%03d", i))
	}
	c.flush()
	for i := 0; i < n; i++ {
		rep := c.reply()
		if rep.Kind != resp.KindBulk || string(rep.Str) != fmt.Sprintf("pv%03d", i) {
			t.Fatalf("GET %d: %+v (%q)", i, rep, rep.Str)
		}
	}

	// A pipeline 25x deeper than the window must have stalled the reader at
	// least once — that is the backpressure path working.
	if st := s.Stats(); st.Stalls == 0 {
		t.Error("no backpressure stalls recorded for a deep pipeline over a small window")
	}
	// Coalescing must have handed runs to the batch path: the DB saw the
	// puts, and correctness above proves ordering survived.
	if got := db.Stats().Host.Puts; got < n {
		t.Errorf("db saw %d puts, want >= %d", got, n)
	}
}

func TestServeScan(t *testing.T) {
	db := testDB(t, 2)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)

	want := make([]string, 0, 25)
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("scan%02d", i)
		c.expectSimple("OK", "SET", k, "x")
		want = append(want, k)
	}

	var got []string
	cursor := "0"
	for rounds := 0; ; rounds++ {
		if rounds > 10 {
			t.Fatal("SCAN did not terminate")
		}
		rep := c.do("SCAN", cursor, "COUNT", "10")
		if rep.Kind != resp.KindArray || rep.N != 2 {
			t.Fatalf("SCAN header: %+v", rep)
		}
		cur := c.reply()
		keys := c.reply()
		if keys.Kind != resp.KindArray {
			t.Fatalf("SCAN keys: %+v", keys)
		}
		for i := 0; i < keys.N; i++ {
			got = append(got, string(c.reply().Str))
		}
		cursor = string(cur.Str)
		if cursor == "0" {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("SCAN returned %d keys, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SCAN key %d = %q, want %q", i, got[i], want[i])
		}
	}

	// COUNT is the client's number: the largest one pages like any other
	// and sizes no allocation.
	rep := c.do("SCAN", "0", "COUNT", strconv.FormatInt(math.MaxInt64, 10))
	if rep.Kind != resp.KindArray || rep.N != 2 {
		t.Fatalf("SCAN COUNT MaxInt64 header: %+v", rep)
	}
	if cur := c.reply(); string(cur.Str) != "0" {
		t.Fatalf("SCAN COUNT MaxInt64 cursor %q, want 0", cur.Str)
	}
	keys := c.reply()
	if keys.Kind != resp.KindArray || keys.N != len(want) {
		t.Fatalf("SCAN COUNT MaxInt64 keys: %+v, want %d", keys, len(want))
	}
	for i := range want {
		if k := c.reply(); string(k.Str) != want[i] {
			t.Fatalf("SCAN COUNT MaxInt64 key %d = %q, want %q", i, k.Str, want[i])
		}
	}
}

func TestServeProtocolErrorCloses(t *testing.T) {
	db := testDB(t, 1)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)

	c.expectSimple("PONG", "PING")
	if _, err := c.nc.Write([]byte("*1\r\n:3\r\n")); err != nil {
		t.Fatal(err)
	}
	rep := c.reply()
	if rep.Kind != resp.KindError || !strings.Contains(string(rep.Str), "Protocol error") {
		t.Fatalf("protocol error reply: %+v (%q)", rep, rep.Str)
	}
	// The server closes the connection after a protocol error, like redis.
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadReply(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestExecuteStopsAtClose: a command pipelined behind QUIT or SHUTDOWN in
// the same burst is not run, whatever the burst's timing.
func TestExecuteStopsAtClose(t *testing.T) {
	for _, closing := range []string{"QUIT", "SHUTDOWN"} {
		t.Run(closing, func(t *testing.T) {
			db := testDB(t, 1)
			defer db.Close()
			s, err := New(Config{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			c := &conn{s: s, db: db, w: resp.NewWriter(&out)}
			served, closeAfter := c.execute(burstOf([]string{"SET", "a", "1"}, []string{closing}, []string{"SET", "b", "2"}))
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
			if served != 2 || !closeAfter {
				t.Errorf("served %d commands, close %v; want 2, true", served, closeAfter)
			}
			if out.String() != "+OK\r\n+OK\r\n" {
				t.Errorf("replied %q, want %q", out.String(), "+OK\r\n+OK\r\n")
			}
			if _, err := db.Get([]byte("b")); err == nil {
				t.Error("the SET pipelined behind " + closing + " ran")
			}
		})
	}
}

// TestServeQuitEndsBurst is TestExecuteStopsAtClose over a socket: one write
// carries SET, QUIT and SET, and only the first SET lands.
func TestServeQuitEndsBurst(t *testing.T) {
	db := testDB(t, 1)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)
	c.send("SET", "a", "1")
	c.send("QUIT")
	c.send("SET", "b", "2")
	c.flush()
	c.expectOK()
	c.expectOK()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := c.r.ReadReply(); err == nil {
		t.Fatalf("reply %+v after QUIT, want the connection closed", rep)
	}
	if rep := dial(t, addr).do("GET", "b"); !rep.Null {
		t.Fatalf("GET b: %+v, want null: the SET behind QUIT ran", rep)
	}
}

// countingListener counts the socket writes and the bytes read on the
// connections it accepts.
type countingListener struct {
	net.Listener
	writes, read atomic.Int64
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, l: l}, nil
}

func (c countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

// startCounting is startServer behind a countingListener.
func startCounting(t *testing.T, db *bandslim.DB) (*Server, *countingListener) {
	t.Helper()
	s, err := New(Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	})
	return s, ln
}

// TestServeOneWritePerBurst: sixteen commands pipelined in one client write
// run as one burst and are answered with one socket write.
func TestServeOneWritePerBurst(t *testing.T) {
	_, ln := startCounting(t, testDB(t, 2))
	c := dial(t, ln.Addr().String())
	for i := 0; i < 8; i++ {
		c.send("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		c.send("GET", fmt.Sprintf("k%d", i))
	}
	c.flush()
	for i := 0; i < 8; i++ {
		c.expectOK()
		if rep := c.reply(); string(rep.Str) != fmt.Sprintf("v%d", i) {
			t.Fatalf("GET k%d: %+v (%q)", i, rep, rep.Str)
		}
	}
	if got := ln.writes.Load(); got != 1 {
		t.Errorf("16 pipelined commands were answered in %d socket writes, want 1", got)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	db := testDB(t, 4)
	s, addr, stop := startServer(t, db, 16)

	const clients, ops = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			r, w := resp.NewReader(nc), resp.NewWriter(nc)
			rt := func(args ...string) (resp.Reply, error) {
				w.Array(len(args))
				for _, a := range args {
					w.BulkString(a)
				}
				if err := w.Flush(); err != nil {
					return resp.Reply{}, err
				}
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				return r.ReadReply()
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("c%dk%02d", g, i%10)
				val := fmt.Sprintf("c%dv%02d", g, i)
				if rep, err := rt("SET", key, val); err != nil || rep.Kind != resp.KindSimple {
					errs <- fmt.Errorf("client %d SET: %+v %v", g, rep, err)
					return
				}
				if rep, err := rt("GET", key); err != nil || rep.Kind != resp.KindBulk || string(rep.Str) != val {
					errs <- fmt.Errorf("client %d GET: %+v %v", g, rep, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Accepted != clients || st.Set != clients*ops || st.Get != clients*ops {
		t.Fatalf("counters after concurrent run: %+v", st)
	}
	stop()
}

// TestShutdownDrainsAndDoesNotLeak proves the drain path: in-flight work
// completes, connections close, every goroutine exits, and the DB is still
// open for its owner afterwards.
func TestShutdownDrainsAndDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	db := testDB(t, 2)
	s, addr, _ := startServer(t, db, 4)
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		c.send("SET", fmt.Sprintf("dk%02d", i), "dv")
	}
	c.flush()
	for i := 0; i < 50; i++ {
		if rep := c.reply(); rep.Kind != resp.KindSimple {
			t.Fatalf("SET %d: %+v", i, rep)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The client connection is closed out from under us.
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadReply(); err == nil {
		t.Fatal("connection survived shutdown")
	}
	// New connections are refused.
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after shutdown")
	}
	// The server does not own the DB: it must still be usable...
	if err := db.Put([]byte("after"), []byte("shutdown")); err != nil {
		t.Fatalf("db unusable after server shutdown: %v", err)
	}
	// ...until its owner closes it.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Every server goroutine must be gone. Allow the runtime a moment to
	// retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownWithPartialCommand: a connection blocked reading the rest of a
// half-sent command is kicked by Shutdown, which returns with every server
// goroutine gone.
func TestShutdownWithPartialCommand(t *testing.T) {
	before := runtime.NumGoroutine()

	s, ln := startCounting(t, testDB(t, 1))
	c := dial(t, ln.Addr().String())
	c.expectSimple("OK", "SET", "k", "v")
	const half = "*3\r\n$3\r\nSET\r\n$1\r\nk"
	if _, err := c.nc.Write([]byte(half)); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has read the half command into its buffer.
	sent := s.Stats().BytesIn + int64(len(half))
	deadline := time.Now().Add(5 * time.Second)
	for ln.read.Load() < sent {
		if time.Now().After(deadline) {
			t.Fatal("the server never read the half command")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := c.r.ReadReply(); err == nil {
		t.Fatalf("reply %+v to a half command", rep)
	}
	c.nc.Close()
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLateRequestsGetCleanError: a request racing a closed DB maps to a
// stable RESP error instead of leaking internals or wedging the connection.
func TestLateRequestsGetCleanError(t *testing.T) {
	db := testDB(t, 1)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)
	c.expectSimple("OK", "SET", "k", "v")

	// Close the DB under the running server: the drain-order contract is
	// server first, DB second, so this is the worst-case race.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep := c.do("SET", "late", "write")
	if rep.Kind != resp.KindError || string(rep.Str) != "ERR server shutting down" {
		t.Fatalf("late write: %+v (%q), want clean shutdown error", rep, rep.Str)
	}
	rep = c.do("GET", "k")
	if rep.Kind != resp.KindError || string(rep.Str) != "ERR server shutting down" {
		t.Fatalf("late read: %+v (%q)", rep, rep.Str)
	}
	// The connection itself stays up for PING.
	c.expectSimple("PONG", "PING")
}

// TestShutdownCommand drives the whole stop path over the wire, then proves
// the watcher-driven drain leaves the server externally stoppable: a later
// Shutdown call must return instead of deadlocking on the watcher's own
// WaitGroup slot, and no server goroutine may outlive it.
func TestShutdownCommand(t *testing.T) {
	before := runtime.NumGoroutine()

	db := testDB(t, 1)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	c := dial(t, ln.Addr().String())
	c.expectSimple("OK", "SET", "k", "v")
	c.expectSimple("OK", "SHUTDOWN")

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v after SHUTDOWN", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after SHUTDOWN command")
	}
	if st := s.Stats(); st.Shutdown != 1 {
		t.Fatalf("shutdown counter: %+v", st)
	}

	// Regression: SIGTERM handling (or any embedder's deferred stop) calls
	// Shutdown after the wire-initiated drain already ran. It must observe
	// the finished drain and return, honoring its context.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("external Shutdown after wire SHUTDOWN: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("external Shutdown after wire SHUTDOWN never returned")
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The SHUTDOWN watcher (and every other server goroutine) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after wire SHUTDOWN: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWriteMetrics(t *testing.T) {
	db := testDB(t, 2)
	s, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)
	c.expectSimple("OK", "SET", "mk", "mv")
	c.expectBulk("mv", "GET", "mk")
	// A command's latency is observed after its reply is flushed, so the GET's
	// reply alone does not order its observation before the scrape; the reply
	// to a later command on the same connection does.
	c.expectSimple("PONG", "PING")

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bandslim_host_puts",                     // simulation families
		"bandslim_server_conns_accepted_total 1", // server scalars
		"bandslim_server_cmd_set_total 1",
		"bandslim_server_cmd_latency_ns", // wall-clock digests
		`op="get"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// loopSource answers every Read with one whole burst of wire bytes, so a
// connection reading it serves the same burst forever.
type loopSource []byte

func (l loopSource) Read(p []byte) (int, error) {
	if len(p) < len(l) {
		return 0, io.ErrShortBuffer
	}
	return copy(p, l), nil
}

// burstOf makes one burst of commands, each given as its arguments.
func burstOf(lines ...[]string) []cmd {
	burst := make([]cmd, len(lines))
	for i, line := range lines {
		args := make([][]byte, len(line))
		for j, a := range line {
			args[j] = []byte(a)
		}
		burst[i] = parsed(args, nil)
	}
	return burst
}

// TestServeBurstAllocsSteadyState guards the acceptance criterion: the
// steady-state service path (the burst's parse, coalesced execution, reply
// encoding, latency observation) adds zero allocations per op beyond the DB
// path it sits on. It drives the connection's own loop body over a source
// that delivers the same pipelined burst on every read.
func TestServeBurstAllocsSteadyState(t *testing.T) {
	run := func(t *testing.T, db *bandslim.DB, lines [][]string) {
		t.Helper()
		s, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		w := resp.NewWriter(&wire)
		for _, line := range lines {
			w.Array(len(line))
			for _, a := range line {
				w.BulkString(a)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		c := &conn{s: s, db: db, r: resp.NewReader(loopSource(wire.Bytes())), w: resp.NewWriter(io.Discard)}
		step := func() {
			if !c.serveBurst() {
				t.Fatal("burst closed the connection")
			}
			if len(c.burst) != len(lines) {
				t.Fatalf("served a burst of %d commands, want %d", len(c.burst), len(lines))
			}
		}
		for i := 0; i < 8; i++ { // warm scratch, lanes and DB pools
			step()
		}
		// One call of all the runs, so that the count is exact.
		if n := testing.AllocsPerRun(1, func() {
			for range 300 {
				step()
			}
		}); n != 0 {
			t.Errorf("300 steady-state bursts made %.0f allocations, want 0", n)
		}
	}

	t.Run("set_pipeline", func(t *testing.T) {
		// NAND off, like the core Put alloc guards: flush/compaction noise
		// is the DB's own cost, not the serving path's.
		cfg := bandslim.DefaultConfig()
		cfg.DisableNAND = true
		db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var lines [][]string
		for i := 0; i < 8; i++ {
			lines = append(lines, []string{"SET", fmt.Sprintf("sk%02d", i), "steady-value"})
		}
		run(t, db, lines)
	})

	t.Run("mset_mget_pipeline", func(t *testing.T) {
		cfg := bandslim.DefaultConfig()
		cfg.DisableNAND = true
		db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		run(t, db, [][]string{
			{"MSET", "mk00", "steady-value", "mk01", "steady-value", "mk02", "steady-value"},
			{"SET", "mk03", "steady-value"},
			{"MGET", "mk00", "mk01", "absent", "mk03"},
			{"GET", "mk02"},
			{"MGET", "mk01"},
		})
	})

	t.Run("get_pipeline", func(t *testing.T) {
		db := testDB(t, 2)
		defer db.Close()
		var lines [][]string
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("gk%02d", i)
			if err := db.Put([]byte(k), []byte("warm-value")); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, []string{"GET", k})
		}
		lines = append(lines, []string{"PING"}) // break + restart a run
		for i := 0; i < 4; i++ {
			lines = append(lines, []string{"GET", fmt.Sprintf("gk%02d", i)})
		}
		run(t, db, lines)
	})
}

// TestBurstMatchesOnePerBurst is the batch path's differential check: one
// burst that mixes writes, reads, DEL, PING and a wrong-arity MSET must give,
// byte for byte, the replies and ServerStats of the same commands sent one
// per burst, and those replies must be the ones listed here. The reads hit,
// miss, and read keys written earlier in the same burst, so a run that
// reorders, merges or drops replies fails it.
func TestBurstMatchesOnePerBurst(t *testing.T) {
	long := strings.Repeat("k", 17) // one byte past the NVMe key field
	script := [][]string{
		{"SET", "a", "1"},
		{"MSET", "b", "2", "c", "3"},
		{"SET", "a", "4"},
		{"GET", "a"},
		{"MGET", "b", "nope", "c"},
		{"GET", "nope"},
		{"MSET", "d"},
		{"MGET", "c", "d"},
		{"DEL", "b", "nope"},
		{"PING"},
		{"GET", "b"},
		{"MSET", "e", "5", "f", "6"},
		{"SET", "g", "7"},
		{"MGET", "e", "g", "a"},
		{"GET", "f"},
		// A key the batch path refuses fails only its own command, not
		// the run around it.
		{"SET", "h", "8"},
		{"MSET", "i", "9", long, "x"},
		{"SET", "j", "0"},
		{"SET", "big", strings.Repeat("v", 64<<10)},
		{"SET", long, "x"},
		{"GET", "h"},
		{"MGET", "j", long},
		{"GET", "j"},
	}
	const want = "+OK\r\n+OK\r\n+OK\r\n" +
		"$1\r\n4\r\n" +
		"*3\r\n$1\r\n2\r\n$-1\r\n$1\r\n3\r\n" +
		"$-1\r\n" +
		"-ERR wrong number of arguments for 'mset' command\r\n" +
		"*2\r\n$1\r\n3\r\n$-1\r\n" +
		":1\r\n" +
		"+PONG\r\n" +
		"$-1\r\n" +
		"+OK\r\n+OK\r\n" +
		"*3\r\n$1\r\n5\r\n$1\r\n7\r\n$1\r\n4\r\n" +
		"$1\r\n6\r\n" +
		"+OK\r\n" +
		"-ERR driver: batch key length 17 out of range\r\n" +
		"+OK\r\n" +
		"-ERR driver: record of 65544 bytes exceeds batch capacity\r\n" +
		"-ERR driver: batch key length 17 out of range\r\n" +
		"$1\r\n8\r\n" +
		"-ERR nvme: key length 17 exceeds 16\r\n" +
		"$1\r\n0\r\n"
	// run serves the script in bursts of size commands and returns the
	// replies and the server counters.
	run := func(size int) (string, bandslim.ServerStats) {
		db := testDB(t, 2)
		defer db.Close()
		s, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		c := &conn{s: s, db: db, w: resp.NewWriter(&out)}
		for at := 0; at < len(script); at += size {
			if _, closeAfter := c.execute(burstOf(script[at:min(at+size, len(script))]...)); closeAfter {
				t.Fatal("burst requested close")
			}
		}
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.String(), s.Stats()
	}
	single, singleStats := run(1)
	if single != want {
		t.Fatalf("one command per burst replied\n%q\nwant\n%q", single, want)
	}
	burst, burstStats := run(len(script))
	if burst != single {
		t.Errorf("one burst replied\n%q\none command per burst replied\n%q", burst, single)
	}
	if burstStats != singleStats {
		t.Errorf("one burst counted %+v\none command per burst counted %+v", burstStats, singleStats)
	}
}

// TestDelCommandBudget pins the NVMe cost of the DEL existence probe: once
// the store is flushed, every DEL of a missing key costs one read command
// that the tables' filters answer without a NAND page read, and an existing
// key adds only its delete.
func TestDelCommandBudget(t *testing.T) {
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 1, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, db, 4)
	c := dial(t, addr)

	expectInt := func(want int64, args ...string) {
		t.Helper()
		rep := c.do(args...)
		if rep.Kind != resp.KindInteger || rep.Int != want {
			t.Fatalf("%v: %+v, want :%d", args, rep, want)
		}
	}
	// cost runs one DEL and reports the commands it issued and the NAND
	// pages it read.
	cost := func(want int64, args ...string) (cmds, pages int64) {
		t.Helper()
		before := db.Stats()
		expectInt(want, args...)
		after := db.Stats()
		return after.Host.Commands - before.Host.Commands, after.Device.NANDPageReads - before.Device.NANDPageReads
	}

	for i := 0; i < 64; i++ {
		c.expectSimple("OK", "SET", fmt.Sprintf("k%02d", i), "v")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every probe of a missing key is one read the filters answer. The key
	// sorts inside the flushed table's range (k39 < k3ghost < k40), so it is
	// the filter that rules the table out, not its fences.
	const ghost = "k3ghost"
	for i := 0; i < 3; i++ {
		if cmds, pages := cost(0, "DEL", ghost); cmds != 1 || pages != 0 {
			t.Errorf("DEL of a missing key issued %d commands and read %d NAND pages, want 1 and 0", cmds, pages)
		}
	}

	// An existing key costs exactly probe + delete.
	c.expectSimple("OK", "SET", "real", "v")
	if cmds, _ := cost(1, "DEL", "real"); cmds != 2 {
		t.Errorf("DEL of an existing key issued %d commands, want 2 (probe + delete)", cmds)
	}

	// A mixed multi-key DEL probes both keys in one sparse batch and deletes
	// the one that exists.
	c.expectSimple("OK", "SET", "real", "v2")
	if cmds, _ := cost(1, "DEL", "real", ghost); cmds != 3 {
		t.Errorf("mixed DEL issued %d commands, want 3 (two probes + delete)", cmds)
	}
}

// TestInfoAfterDBClose reaches the closed-store path the way a client can: the
// owning process closed the DB while a connection is still open. INFO must
// answer from the final snapshot (it used to panic inside Submission) and a
// write must get the stable shutting-down error on a connection that stays up.
func TestInfoAfterDBClose(t *testing.T) {
	db := testDB(t, 2)
	_, addr, _ := startServer(t, db, 0)
	c := dial(t, addr)
	c.expectSimple("OK", "SET", "k", "v")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep := c.do("INFO")
	if rep.Kind != resp.KindBulk || !strings.Contains(string(rep.Str), "submission_queue_depth:") {
		t.Fatalf("INFO after DB close: %+v", rep)
	}
	if rep := c.do("SET", "k", "v2"); rep.Kind != resp.KindError || !strings.Contains(string(rep.Str), "shutting down") {
		t.Fatalf("SET after DB close: %+v (%q)", rep, rep.Str)
	}
	c.expectSimple("PONG", "PING")
}
