package bandslim

// Tests that pin the one-engine shape: DB and ShardedDB are the same Store,
// a one-shard ShardedDB is a DB, nothing panics after Close, and concurrent
// callers, scrapers, and a mid-run Close only ever see ErrClosed.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// openStores opens a DB and a ShardedDB over the same per-stack config.
func openStores(t *testing.T, shards int, cfg Config) map[string]Store {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := OpenSharded(ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"DB": db, "ShardedDB": sdb}
}

// Every method of a closed store answers ErrClosed or a readable snapshot —
// never a panic. (ShardedDB.Submission after Close used to send on the shard
// worker's closed channel; the server's INFO reaches it.)
func TestStoreAfterClose(t *testing.T) {
	cfg := smallConfig()
	cfg.MetricsInterval = 50 * SimMicrosecond
	cfg.Tracer = NewRecorder(1 << 12)
	for name, st := range openStores(t, 2, cfg) {
		t.Run(name, func(t *testing.T) {
			key, val := []byte("k"), []byte("v")
			if err := st.Put(key, val); err != nil {
				t.Fatal(err)
			}
			it, err := st.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			type result struct {
				op  string
				err error
			}
			keys, one := [][]byte{key}, func(_ any, err error) error { return err }
			method := Piggyback
			closed := []result{
				{"Put", st.Put(key, val)},
				{"Get", one(st.Get(key))},
				{"GetInto", one(st.GetInto(key, nil))},
				{"PutBatch", st.PutBatch(keys, keys)},
				{"GetBatch", one(st.GetBatch(keys, nil))},
				{"GetBatchSparse", one(st.GetBatchSparse(keys, nil, make([]bool, 1)))},
				{"Delete", st.Delete(key)},
				{"NewIterator", one(st.NewIterator(nil))},
				{"Flush", st.Flush()},
				{"Recover", st.Recover()},
				{"Tune", st.Tune(Tuning{Method: &method})},
			}
			if db, ok := st.(*DB); ok {
				closed = append(closed,
					result{"Identify", one(db.Identify())},
					result{"CompactVLog", one(db.CompactVLog(1))})
			}
			for _, c := range closed {
				if !errors.Is(c.err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", c.op, c.err)
				}
			}
			if it.Next(); it.Valid() || !errors.Is(it.Err(), ErrClosed) {
				t.Errorf("outstanding iterator after Close: valid=%v err=%v, want ErrClosed", it.Valid(), it.Err())
			}
			if err := st.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}

			// The read-only surface stays a snapshot of the final state.
			if st.Now() <= 0 {
				t.Error("Now unreadable after Close")
			}
			stats := st.Stats()
			if stats.Host.Puts != 1 || stats.Trace.Buffered == 0 {
				t.Errorf("Stats after Close: puts=%d trace=%+v", stats.Host.Puts, stats.Trace)
			}
			if st.Series().Len() == 0 {
				t.Error("Series unreadable after Close")
			}
			if err := st.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus after Close = %v", err)
			}
			if rep := st.Blame(); rep == nil || len(rep.Ops) == 0 {
				t.Error("Blame unreadable after Close")
			}
			switch d := st.(type) {
			case *DB:
				if ins := d.Inspect(); ins.Now != st.Now() || ins.Trace != stats.Trace {
					t.Errorf("Inspect after Close = now %v trace %+v", ins.Now, ins.Trace)
				}
				if d.VLogFreeBytes() <= 0 {
					t.Error("VLogFreeBytes unreadable after Close")
				}
			case *ShardedDB:
				if sub := d.Submission(); sub != cfg.Submission {
					t.Errorf("Submission after Close = %+v", sub)
				}
				var puts int64
				for i := 0; i < d.NumShards(); i++ {
					puts += d.ShardStats(i).Host.Puts
				}
				if puts != 1 {
					t.Errorf("ShardStats after Close sum to %d puts", puts)
				}
				if len(d.TraceEvents()) == 0 || d.TraceDropped() != 0 {
					t.Error("trace stream unreadable after Close")
				}
				d.ResetTrace()
				if got := d.Stats().Trace.Buffered; got != 0 {
					t.Errorf("ResetTrace after Close left %d events", got)
				}
			}
		})
	}
}

// Run with -race: Now and VLogFreeBytes are documented safe for concurrent
// use, so they must take the lock the writer holds.
func TestNowAndVLogFreeBytesBesideWriter(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	sdb := openSharded(t, 2, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("nw%03d", i))
			if err := db.Put(key, make([]byte, 200)); err != nil {
				t.Error(err)
			}
			if err := sdb.Put(key, make([]byte, 200)); err != nil {
				t.Error(err)
			}
		}
	}()
	var last SimTime
	for i := 0; i < 300; i++ {
		if now := db.Now(); now < last {
			t.Fatalf("Now went backwards: %v after %v", now, last)
		} else {
			last = now
		}
		if db.VLogFreeBytes() <= 0 {
			t.Fatal("no vLog space reported")
		}
		_ = sdb.Now()
	}
	wg.Wait()
}

// storeScript drives one fixed op sequence through st: point ops, PutBatch,
// strict and sparse batch reads at window depth 1 and 8 with absent keys
// (repeated, so the negative cache answers some), a scan, and — when the
// config arms a fault plan — Recover after every power cut. It reports how
// many recoveries it performed.
func storeScript(t *testing.T, st Store) (recoveries int) {
	t.Helper()
	// must recovers from a power cut (the op it interrupted stays lost, so
	// later reads of its key may miss) and fails on anything else.
	must := func(what string, err error) {
		t.Helper()
		for IsPowerLoss(err) {
			recoveries++
			err = st.Recover()
		}
		if err != nil && !(recoveries > 0 && IsNotFound(err)) {
			t.Fatalf("%s: %v", what, err)
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%03d", i)) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 24+(i*131)%3000) }

	for i := 0; i < 120; i++ {
		must("Put", st.Put(key(i), value(i)))
		if i%5 == 0 {
			_, err := st.Get(key(i))
			must("Get", err)
		}
		if i%9 == 0 {
			must("Delete", st.Delete(key(i)))
		}
	}
	var dst []byte
	for i := 1; i < 120; i += 7 {
		if i%9 == 0 {
			continue // deleted above
		}
		v, err := st.GetInto(key(i), dst)
		must("GetInto", err)
		if err == nil && !bytes.Equal(v, value(i)) {
			t.Fatalf("GetInto(%s) returned %d bytes", key(i), len(v))
		}
		dst = v
	}
	var bkeys, bvals [][]byte
	for i := 200; i < 264; i++ {
		bkeys, bvals = append(bkeys, key(i)), append(bvals, value(i))
	}
	must("PutBatch", st.PutBatch(bkeys, bvals))

	probe := append([][]byte(nil), bkeys...)
	for i := 900; i < 908; i++ { // never written
		probe = append(probe, key(i))
	}
	lanes, miss := make([][]byte, len(probe)), make([]bool, len(probe))
	for _, depth := range []int{1, 8} {
		sub := SubmissionConfig{QueueDepth: depth}
		must("Tune", st.Tune(Tuning{Submission: &sub}))
		_, err := st.GetBatch(bkeys, lanes[:len(bkeys)])
		must("GetBatch", err)
		for round := 0; round < 3; round++ {
			_, err := st.GetBatchSparse(probe, lanes, miss)
			must("GetBatchSparse", err)
			for i := range probe {
				if err == nil && miss[i] != (i >= len(bkeys)) {
					t.Fatalf("depth %d: miss[%d] = %v", depth, i, miss[i])
				}
			}
		}
		if _, err = st.GetBatch(probe, lanes); err == nil {
			t.Fatalf("depth %d: strict GetBatch over absent keys succeeded", depth)
		} else if !IsNotFound(err) {
			must("strict GetBatch", err)
		}
	}

	it, err := st.NewIterator(key(50))
	must("NewIterator", err)
	if err == nil {
		for n := 0; it.Valid() && n < 40; n++ {
			it.Next()
		}
		must("scan", it.Err())
	}
	must("Flush", st.Flush())
	for i := 300; i < 340; i++ {
		must("Put", st.Put(key(i), value(i)))
	}
	must("Close", st.Close())
	return recoveries
}

// fingerprint renders everything the equivalence check compares.
func fingerprint(t *testing.T, st Store) (Stats, string, string) {
	t.Helper()
	var prom, csv bytes.Buffer
	if err := st.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesCSV(&csv, st.Series()); err != nil {
		t.Fatal(err)
	}
	return st.Stats(), prom.String(), csv.String()
}

// A one-shard ShardedDB is a DB: the same script leaves equal Stats, Series,
// and exposition bytes — plain, traced, and under a fault plan with Recover.
func TestOneShardEqualsDB(t *testing.T) {
	base := func() Config {
		cfg := smallConfig()
		cfg.MetricsInterval = 50 * SimMicrosecond
		cfg.Cache = CacheConfig{ValueBytes: 256 << 10, Pages: 8, Policy: CacheLRU, NegativeEntries: 64}
		return cfg
	}
	cases := []struct {
		name   string
		config func(t *testing.T) Config
	}{
		{"plain", func(*testing.T) Config { return base() }},
		{"traced", func(*testing.T) Config {
			cfg := base()
			cfg.Tracer = NewRecorder(1 << 16)
			return cfg
		}},
		{"faults", func(t *testing.T) Config {
			plan, err := ParseFaultPlan("seed 7\nexec nth=90 powercut\nexec nth=400 powercut\ndma.in every=25 transient\n")
			if err != nil {
				t.Fatal(err)
			}
			cfg := base()
			cfg.Faults = plan
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Separate configs, so a traced run gives each store its own ring.
			db, err := Open(tc.config(t))
			if err != nil {
				t.Fatal(err)
			}
			sdb, err := OpenSharded(ShardedConfig{Shards: 1, PerShard: tc.config(t)})
			if err != nil {
				t.Fatal(err)
			}
			ra, rb := storeScript(t, db), storeScript(t, sdb)
			if ra != rb || (tc.name == "faults") != (ra > 0) {
				t.Fatalf("recoveries: DB %d, ShardedDB %d", ra, rb)
			}
			sa, pa, ca := fingerprint(t, db)
			sb, pb, cb := fingerprint(t, sdb)
			if sa != sb {
				t.Errorf("Stats diverged:\nDB        %+v\nShardedDB %+v", sa, sb)
			}
			if pa != pb {
				t.Error("WritePrometheus bytes diverged")
			}
			if ca != cb {
				t.Error("Series CSV bytes diverged")
			}
			if sa.Cache.NegHits == 0 || (tc.name == "traced") != (sa.Trace.Buffered > 0) {
				t.Errorf("script coverage: neg hits %d, trace %+v", sa.Cache.NegHits, sa.Trace)
			}
		})
	}
}

// A recorder shared by every shard through PerShard.Tracer is one ring: its
// health is reported once, not once per shard.
func TestSharedRecorderCountedOnce(t *testing.T) {
	rec := NewRecorder(1 << 16)
	cfg := smallConfig()
	cfg.Tracer = rec
	sdb, err := OpenSharded(ShardedConfig{Shards: 2, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	storeScript(t, sdb)
	want := TraceStats{Buffered: int64(rec.Len()), Dropped: rec.Dropped()}
	if want.Buffered == 0 {
		t.Fatal("shared recorder saw no events")
	}
	if got := sdb.Stats().Trace; got != want {
		t.Errorf("Stats().Trace = %+v, want %+v", got, want)
	}
	if got := sdb.TraceDropped(); got != want.Dropped {
		t.Errorf("TraceDropped = %d, want %d", got, want.Dropped)
	}
	var prom bytes.Buffer
	if err := sdb.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("bandslim_trace_buffered %d\n", want.Buffered); !bytes.Contains(prom.Bytes(), []byte(line)) {
		t.Errorf("exposition lacks %q", line)
	}
}

// Run with -race: four any-key callers mix point and batch ops across four
// shards while one goroutine scrapes and another closes the store mid-run.
// Nothing may deadlock or panic, and the only error anyone sees is ErrClosed.
func TestShardedSoakCloseMidRun(t *testing.T) {
	s := openSharded(t, 4, func(c *Config) {
		c.MetricsInterval = 100 * SimMicrosecond
		c.Submission = SubmissionConfig{QueueDepth: 8}
	})
	const callers, rounds = 4, 400
	var (
		wg     sync.WaitGroup
		served sync.WaitGroup // callers only
		half   = make(chan struct{})
	)
	fail := func(what string, err error) bool {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("%s: %v", what, err)
		}
		return err != nil
	}
	for g := 0; g < callers; g++ {
		wg.Add(1)
		served.Add(1)
		go func(g int) {
			defer wg.Done()
			defer served.Done()
			keys, vals := make([][]byte, 8), make([][]byte, 8)
			lanes, miss := make([][]byte, 8), make([]bool, 8)
			var dst []byte
			for r := 0; r < rounds; r++ {
				if g == 0 && r == rounds/2 {
					close(half)
				}
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("q%d-%02d", g, (r+i)%32))
					vals[i] = bytes.Repeat([]byte{byte(g)}, 32+i)
				}
				var err error
				switch r % 4 {
				case 0:
					err = s.Put(keys[0], vals[0])
					if err == nil {
						dst, err = s.GetInto(keys[0], dst[:0])
					}
				case 1:
					err = s.PutBatch(keys, vals)
				default:
					_, err = s.GetBatchSparse(keys, lanes, miss)
				}
				if fail("caller", err) {
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scraper: keeps going across the Close
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
			_ = s.Series()
			_ = s.Now()
			fail("WritePrometheus", s.WritePrometheus(io.Discard))
		}
	}()
	wg.Add(1)
	go func() { // closer
		defer wg.Done()
		<-half
		fail("Close", s.Close())
	}()
	served.Wait()
	close(stop)
	wg.Wait()
	if err := s.Put([]byte("late"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after the soak's Close = %v, want ErrClosed", err)
	}
}
