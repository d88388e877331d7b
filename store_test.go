package bandslim

// Tests that pin the DB surface at several shard counts: nothing panics after
// Close, the former single-device methods keep one meaning across shards, and
// concurrent callers, scrapers, and a mid-run Close only ever see ErrClosed.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
)

// Every exported method of a closed DB answers ErrClosed or a readable
// snapshot — never a panic — at one shard and at four; the method set comes
// from reflection, so a new method must join one of the two lists.
// (Submission after Close used to send on a shard worker's closed channel;
// the server's INFO reaches it.)
func TestStoreAfterClose(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"DB", 1}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.MetricsInterval = 50 * SimMicrosecond
			cfg.Tracer = NewRecorder(1 << 12)
			db, err := OpenSharded(ShardedConfig{Shards: tc.shards, PerShard: cfg})
			if err != nil {
				t.Fatal(err)
			}
			key, val := []byte("k"), []byte("v")
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			type result struct {
				op  string
				err error
			}
			keys, one := [][]byte{key}, func(_ any, err error) error { return err }
			closedOps := []result{
				{"Put", db.Put(key, val)},
				{"Get", one(db.Get(key))},
				{"GetInto", one(db.GetInto(key, nil))},
				{"PutBatch", db.PutBatch(keys, keys)},
				{"GetBatchSparse", one(db.GetBatchSparse(keys, nil, make([]bool, 1)))},
				{"Delete", db.Delete(key)},
				{"NewIterator", one(db.NewIterator(nil))},
				{"Flush", db.Flush()},
				{"Recover", db.Recover()},
				{"Identify", one(db.Identify())},
				{"CompactVLog", one(db.CompactVLog(1))},
			}
			// The snapshot methods, each called below.
			snapshots := []string{"Close", "Now", "Stats", "Series", "WritePrometheus", "Blame",
				"VLogFreeBytes", "Submission", "ShardStats", "TraceEvents", "ResetTrace"}
			checked := map[string]bool{}
			for _, c := range closedOps {
				checked[c.op] = true
				if !errors.Is(c.err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", c.op, c.err)
				}
			}
			for _, name := range snapshots {
				checked[name] = true
			}
			methods := reflect.TypeOf(db)
			for i := 0; i < methods.NumMethod(); i++ {
				if name := methods.Method(i).Name; !checked[name] {
					t.Errorf("DB.%s is in neither the ErrClosed list nor the snapshot list", name)
				}
			}
			for name := range checked {
				if _, ok := methods.MethodByName(name); !ok {
					t.Errorf("DB has no method %s; drop it from the lists", name)
				}
			}
			if it.Next(); it.Valid() || !errors.Is(it.Err(), ErrClosed) {
				t.Errorf("outstanding iterator after Close: valid=%v err=%v, want ErrClosed", it.Valid(), it.Err())
			}
			if err := db.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}

			// The read-only surface stays a snapshot of the final state.
			if db.Now() <= 0 {
				t.Error("Now unreadable after Close")
			}
			stats := db.Stats()
			if stats.Host.Puts != 1 || stats.Trace.Buffered == 0 {
				t.Errorf("Stats after Close: puts=%d trace=%+v", stats.Host.Puts, stats.Trace)
			}
			if db.Series().Len() == 0 {
				t.Error("Series unreadable after Close")
			}
			if err := db.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus after Close = %v", err)
			}
			if rep := db.Blame(); rep == nil || len(rep.Ops) == 0 {
				t.Error("Blame unreadable after Close")
			}
			if free := db.VLogFreeBytes(); free <= 0 || float64(free) != expositionValue(t, db, "vlog_free_bytes") {
				t.Errorf("VLogFreeBytes after Close = %d, exposition %v", free, expositionValue(t, db, "vlog_free_bytes"))
			}
			if sub := db.Submission(); sub != cfg.Submission {
				t.Errorf("Submission after Close = %+v", sub)
			}
			var puts int64
			for i := 0; i < len(db.shards); i++ {
				puts += db.ShardStats(i).Host.Puts
			}
			if puts != 1 || db.ShardStats(db.part.Shard(key)).Host.Puts != 1 {
				t.Errorf("ShardStats after Close sum to %d puts", puts)
			}
			if len(db.TraceEvents()) == 0 || stats.Trace.Dropped != 0 {
				t.Error("trace stream unreadable after Close")
			}
			db.ResetTrace()
			if got := db.Stats().Trace.Buffered; got != 0 {
				t.Errorf("ResetTrace after Close left %d events", got)
			}
		})
	}
}

// CompactVLog and VLogFreeBytes sum over shards: a four-shard DB relocates
// exactly what four one-shard DBs fed its shards' key streams relocate, and
// at one shard and at four VLogFreeBytes equals the exposition's sum gauge.
func TestVLogMethodsSumShards(t *testing.T) {
	const shards, pages = 4, 2
	churn := func(db *DB, keep func(key []byte) bool) {
		t.Helper()
		for i := 0; i < 800; i++ {
			// The first 80 keys stay live in the oldest pages; the rest churn.
			key := []byte(fmt.Sprintf("live%02d", i))
			if i >= 80 {
				key = []byte(fmt.Sprintf("cv%02d", i%40))
			}
			if keep(key) {
				if err := db.Put(key, bytes.Repeat([]byte{byte(i)}, 700)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkFree := func(db *DB) {
		t.Helper()
		if free := db.VLogFreeBytes(); free <= 0 || float64(free) != expositionValue(t, db, "vlog_free_bytes") {
			t.Errorf("%d shards: VLogFreeBytes = %d, exposition %v", len(db.shards), free, expositionValue(t, db, "vlog_free_bytes"))
		}
	}
	sdb := openSharded(t, shards, nil)
	churn(sdb, func([]byte) bool { return true })
	checkFree(sdb)
	want := 0
	for i := 0; i < shards; i++ {
		// Without a tracer or fault plan the shard id changes nothing, so a
		// one-shard DB fed shard i's keys in order is shard i.
		one := openSharded(t, 1, nil)
		churn(one, func(key []byte) bool { return sdb.part.Shard(key) == i })
		checkFree(one)
		n, err := one.CompactVLog(pages)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	free := sdb.VLogFreeBytes()
	got, err := sdb.CompactVLog(pages)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Errorf("CompactVLog(%d) on %d shards relocated %d values, its shards alone %d", pages, shards, got, want)
	}
	if sdb.VLogFreeBytes() <= free {
		t.Error("compaction freed no vLog space")
	}
	checkFree(sdb)
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
// batch reads at st's window depth with absent keys (repeated), a scan, and — when the
// config arms a fault plan — Recover after every power cut. It reports how
// many recoveries it performed.
func storeScript(t *testing.T, st *DB) (recoveries int) {
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
	for round := 0; round < 3; round++ {
		_, err := st.GetBatchSparse(probe, lanes, miss)
		must("GetBatchSparse", err)
		for i := range probe {
			if err == nil && miss[i] != (i >= len(bkeys)) {
				t.Fatalf("miss[%d] = %v", i, miss[i])
			}
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

// A recorder shared by every shard through PerShard.Tracer is one ring: its
// health is reported once, not once per shard.
func TestSharedRecorderCountedOnce(t *testing.T) {
	rec := NewRecorder(1 << 16)
	cfg := smallConfig()
	cfg.Tracer = rec
	cfg.Submission = SubmissionConfig{QueueDepth: 8}
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
