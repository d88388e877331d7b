package bandslim

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"bandslim/internal/sim"
)

func openSharded(t *testing.T, shards int, mutate func(*Config)) *DB {
	t.Helper()
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := OpenSharded(ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// shardedWorkload is a deterministic mixed workload, applied identically to
// any DB.
func shardedWorkload(t *testing.T, kv *DB, ops int) {
	t.Helper()
	rng := sim.NewRNG(99)
	key := make([]byte, 4)
	for i := 0; i < ops; i++ {
		key[0], key[1], key[2], key[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		size := 16 + int(rng.Uint32()%2048)
		if err := kv.Put(key, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, err := kv.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		if i%31 == 0 {
			if err := kv.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedRoundTrip(t *testing.T) {
	s := openSharded(t, 4, nil)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("rt%04d", i))
		if err := s.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("rt%04d", i))
		v, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q", key, v)
		}
	}
	if err := s.Delete([]byte("rt0100")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("rt0100")); err == nil {
		t.Fatal("deleted key still readable")
	}
}

// Keys must spread across shards and always route to the same one.
func TestShardedPartitionStable(t *testing.T) {
	s := openSharded(t, 4, nil)
	counts := make([]int, 4)
	for i := 0; i < 512; i++ {
		key := []byte(fmt.Sprintf("pk%04d", i))
		sh := s.part.Shard(key)
		if sh != s.part.Shard(key) {
			t.Fatal("the partition is unstable")
		}
		counts[sh]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", i)
		}
	}
	// Per-shard stats must account for exactly the routed keys.
	for i := 0; i < 512; i++ {
		key := []byte(fmt.Sprintf("pk%04d", i))
		if err := s.Put(key, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var puts int64
	for i := 0; i < len(s.shards); i++ {
		puts += s.ShardStats(i).Host.Puts
	}
	if puts != 512 {
		t.Fatalf("per-shard Puts sum to %d, want 512", puts)
	}
	if got := s.Stats().Host.Puts; got != 512 {
		t.Fatalf("aggregate Puts = %d, want 512", got)
	}
}

func TestShardedIteratorGlobalOrder(t *testing.T) {
	s := openSharded(t, 3, nil)
	var want []string
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("it%04d", i))
		if err := s.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(key))
	}
	sort.Strings(want)
	it, err := s.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for it.Valid() {
		got = append(got, string(it.Key()))
		it.Next()
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	s := openSharded(t, 4, nil)
	shardedWorkload(t, s, 400)
	agg := s.Stats()
	var sum Stats
	var maxElapsed sim.Duration
	for i := 0; i < len(s.shards); i++ {
		p := s.ShardStats(i)
		sum.Host.Puts += p.Host.Puts
		sum.Host.Commands += p.Host.Commands
		sum.PCIe.Bytes += p.PCIe.Bytes
		sum.PCIe.TotalBytes += p.PCIe.TotalBytes
		sum.Device.NANDPageWrites += p.Device.NANDPageWrites
		sum.Device.VLogFlushes += p.Device.VLogFlushes
		if p.Host.Elapsed > maxElapsed {
			maxElapsed = p.Host.Elapsed
		}
	}
	if agg.Host.Puts != sum.Host.Puts || agg.Host.Puts != 400 {
		t.Errorf("Puts: aggregate %d, shard sum %d, want 400", agg.Host.Puts, sum.Host.Puts)
	}
	if agg.Host.Commands != sum.Host.Commands {
		t.Errorf("Commands: aggregate %d, shard sum %d", agg.Host.Commands, sum.Host.Commands)
	}
	if agg.PCIe.Bytes != sum.PCIe.Bytes || agg.PCIe.TotalBytes != sum.PCIe.TotalBytes {
		t.Errorf("PCIe ledgers: aggregate %d/%d, shard sums %d/%d",
			agg.PCIe.Bytes, agg.PCIe.TotalBytes, sum.PCIe.Bytes, sum.PCIe.TotalBytes)
	}
	if agg.Device.NANDPageWrites != sum.Device.NANDPageWrites {
		t.Errorf("NANDPageWrites: aggregate %d, shard sum %d", agg.Device.NANDPageWrites, sum.Device.NANDPageWrites)
	}
	if agg.Host.Elapsed != maxElapsed {
		t.Errorf("Elapsed: aggregate %v, max shard %v", agg.Host.Elapsed, maxElapsed)
	}
	if agg.Host.WriteResp.Mean <= 0 {
		t.Error("merged WriteRespMean not positive")
	}
	if agg.Host.ThroughputKops <= 0 {
		t.Error("aggregate ThroughputKops not positive")
	}
}

func TestShardedClose(t *testing.T) {
	s := openSharded(t, 2, nil)
	if err := s.Put([]byte("ck"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Put([]byte("ck"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Get([]byte("ck")); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := s.NewIterator(nil); err != ErrClosed {
		t.Fatalf("NewIterator after Close: %v, want ErrClosed", err)
	}
	it.Next()
	if it.Err() != ErrClosed {
		t.Fatalf("outstanding iterator after Close: %v, want ErrClosed", it.Err())
	}
	// Stats and Now stay readable after Close.
	if s.Stats().Host.Puts != 1 {
		t.Fatal("Stats unreadable after Close")
	}
	if s.Now() <= 0 {
		t.Fatal("Now unreadable after Close")
	}
}

func TestOpenShardedValidates(t *testing.T) {
	if _, err := OpenSharded(ShardedConfig{Shards: 0}); err == nil {
		t.Fatal("Shards: 0 accepted")
	}
	if _, err := OpenSharded(ShardedConfig{Shards: -3}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// Run with -race: concurrent Put/Get/Delete plus Stats against four shards.
func TestShardedConcurrentAccess(t *testing.T) {
	s := openSharded(t, 4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines share shards, so values are read through GetInto
			// with a goroutine-owned dst (Get returns per-shard views).
			var dst []byte
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("cc%d-%03d", g, i))
				if err := s.Put(key, bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					t.Error(err)
					return
				}
				v, err := s.GetInto(key, dst)
				if err != nil || len(v) != 64 || v[0] != byte(g) {
					t.Errorf("GetInto(%s) = %d bytes, %v", key, len(v), err)
					return
				}
				dst = v
				if i%10 == 0 {
					if err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = s.Stats()
			_ = s.Now()
		}
	}()
	wg.Wait()
	if got := s.Stats().Host.Puts; got != 8*50 {
		t.Fatalf("Puts = %d, want %d", got, 8*50)
	}
}

// Run with -race: a deep-queue storm — concurrent batch reads riding the
// depth-8 submission window on every shard, interleaved with batch writes
// and Stats/Submission polling. Exercises the window FIFO and wait-frame
// recycling under maximal interleaving.
func TestShardedWindowStorm(t *testing.T) {
	s := openSharded(t, 4, func(c *Config) {
		c.Submission = SubmissionConfig{
			QueueDepth:       8,
			DoorbellBatch:    4,
			CoalesceInterval: SimMicrosecond,
		}
	})
	const nkeys = 48
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("st%03d", i))
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 96)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([][]byte, nkeys)
			miss := make([]bool, nkeys)
			for round := 0; round < 25; round++ {
				if g%2 == 0 {
					out, err := s.GetBatch(keys, vals)
					if err != nil {
						t.Errorf("storm GetBatch: %v", err)
						return
					}
					for i := range out {
						if len(out[i]) != 96 || out[i][0] != byte(i) {
							t.Errorf("storm GetBatch: key %d holds %d bytes", i, len(out[i]))
							return
						}
					}
				} else {
					if _, err := s.GetBatchSparse(keys, vals, miss); err != nil {
						t.Errorf("storm GetBatchSparse: %v", err)
						return
					}
					for i := range miss {
						if miss[i] {
							t.Errorf("storm GetBatchSparse: key %d reported missing", i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wkeys := make([][]byte, 8)
		wvals := make([][]byte, 8)
		for i := range wkeys {
			wkeys[i] = []byte(fmt.Sprintf("sw%03d", i))
			wvals[i] = bytes.Repeat([]byte{0xAB}, 64)
		}
		for round := 0; round < 25; round++ {
			if err := s.PutBatch(wkeys, wvals); err != nil {
				t.Errorf("storm PutBatch: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = s.Stats()
			_ = s.Submission()
		}
	}()
	wg.Wait()
	if sub := s.Submission(); sub.QueueDepth != 8 {
		t.Fatalf("Submission after storm = %+v, want depth 8", sub)
	}
}
