package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
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

// TestServeBurstAllocsSteadyState guards the acceptance criterion: the
// steady-state service path (argument capture, coalesced execution, reply
// encoding, latency observation) adds zero allocations per op beyond the DB
// path it sits on. It drives the same code the writer goroutine runs, minus
// the channel hops (which do not allocate).
func TestServeBurstAllocsSteadyState(t *testing.T) {
	newBurst := func(parts ...[][]byte) []*cmd {
		burst := make([]*cmd, len(parts))
		for i, args := range parts {
			burst[i] = &cmd{}
			burst[i].capture(args)
		}
		return burst
	}
	args := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	run := func(t *testing.T, db *bandslim.DB, burst []*cmd, templates [][][]byte) {
		t.Helper()
		s, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		c := &conn{s: s, db: db, w: resp.NewWriter(io.Discard)}
		step := func() {
			// The reader's work: re-capture arguments into slot lanes.
			for i, tmpl := range templates {
				burst[i].capture(tmpl)
				burst[i].t0 = time.Now()
			}
			// The writer's work: coalesced execute, flush, observe.
			if closeAfter := c.execute(burst); closeAfter {
				t.Fatal("burst requested close")
			}
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
			now := time.Now()
			for _, cm := range burst {
				s.observeLatency(cm.op, now.Sub(cm.t0))
			}
		}
		for i := 0; i < 8; i++ { // warm lanes, scratch, and DB pools
			step()
		}
		if avg := testing.AllocsPerRun(300, step); avg != 0 {
			t.Errorf("steady-state burst allocates %.2f objects/run, want 0", avg)
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
		var templates [][][]byte
		for i := 0; i < 8; i++ {
			templates = append(templates, args("SET", fmt.Sprintf("sk%02d", i), "steady-value"))
		}
		run(t, db, newBurst(templates...), templates)
	})

	t.Run("get_pipeline", func(t *testing.T) {
		db := testDB(t, 2)
		defer db.Close()
		var templates [][][]byte
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("gk%02d", i)
			if err := db.Put([]byte(k), []byte("warm-value")); err != nil {
				t.Fatal(err)
			}
			templates = append(templates, args("GET", k))
		}
		templates = append(templates, args("PING")) // break + restart a run
		for i := 0; i < 4; i++ {
			templates = append(templates, args("GET", fmt.Sprintf("gk%02d", i)))
		}
		run(t, db, newBurst(templates...), templates)
	})
}

// TestDelCommandBudget pins the NVMe cost of the DEL existence probe: with
// the negative cache armed, repeatedly deleting a missing key stops issuing
// commands once the key is admitted to the recent-miss ring, and a mixed
// multi-key DEL pays nothing for the known-missing keys.
func TestDelCommandBudget(t *testing.T) {
	cfg := bandslim.DefaultConfig()
	cfg.Cache = bandslim.CacheConfig{NegativeEntries: 64}
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 1, PerShard: cfg})
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

	// Admission: the first DEL's probe reads through and arms the bloom
	// filter, the second admits the key to the recent-miss ring. Both cost
	// one read command.
	expectInt(0, "DEL", "ghost")
	expectInt(0, "DEL", "ghost")
	settled := db.Stats().Host.Commands

	// From here the probe short-circuits host-side: zero NVMe commands.
	for i := 0; i < 3; i++ {
		expectInt(0, "DEL", "ghost")
	}
	if got := db.Stats().Host.Commands; got != settled {
		t.Errorf("cached-miss DELs issued %d commands, want 0", got-settled)
	}

	// An existing key costs exactly probe + delete.
	c.expectSimple("OK", "SET", "real", "v")
	before := db.Stats().Host.Commands
	expectInt(1, "DEL", "real")
	if got := db.Stats().Host.Commands - before; got != 2 {
		t.Errorf("DEL of an existing key issued %d commands, want 2 (probe + delete)", got)
	}

	// A mixed multi-key DEL pays the same two commands: the known-missing
	// key resolves host-side inside the sparse probe batch.
	c.expectSimple("OK", "SET", "real", "v2")
	before = db.Stats().Host.Commands
	expectInt(1, "DEL", "real", "ghost")
	if got := db.Stats().Host.Commands - before; got != 2 {
		t.Errorf("mixed DEL issued %d commands, want 2 (probe + delete)", got)
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
