package bandslim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bandslim/internal/device"
	"bandslim/internal/nand"
)

// smallConfig keeps tests fast: a compact geometry with the real page size.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Device.Geometry = nand.Geometry{
		Channels: 2, WaysPerChannel: 2, BlocksPerWay: 64, PagesPerBlock: 32, PageSize: 16 * 1024,
	}
	cfg.Device.LSM.MemTableEntries = 256
	return cfg
}

func openSmall(t *testing.T, mutate func(*Config)) *DB {
	t.Helper()
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db, err := Open(Config{Method: Adaptive, Policy: BackfillPacking})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestPutGetDeleteLifecycle(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	if err := db.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("alpha")); err == nil {
		t.Fatal("deleted key still readable")
	}
}

func TestValuesAcrossSizesAndMethods(t *testing.T) {
	for _, m := range []TransferMethod{Baseline, Piggyback, Hybrid, Adaptive} {
		db := openSmall(t, func(c *Config) { c.Method = m })
		for _, size := range []int{1, 8, 35, 36, 56, 100, 2048, 4096, 4096 + 32, 9000} {
			key := []byte(fmt.Sprintf("s%d", size))
			v := bytes.Repeat([]byte{byte(size)}, size)
			if err := db.Put(key, v); err != nil {
				t.Fatalf("%v Put(%d): %v", m, size, err)
			}
			got, err := db.Get(key)
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%v Get(%d) mismatch: %v", m, size, err)
			}
		}
		db.Close()
	}
}

func TestIterator(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	for i := 0; i < 25; i++ {
		if err := db.Put([]byte(fmt.Sprintf("it%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator([]byte("it10"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 25; i++ {
		if !it.Valid() {
			t.Fatalf("iterator died at %d: %v", i, it.Err())
		}
		if want := fmt.Sprintf("it%02d", i); string(it.Key()) != want {
			t.Fatalf("key %q, want %q", it.Key(), want)
		}
		if it.Value()[0] != byte(i) {
			t.Fatalf("value %v at %d", it.Value(), i)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator ran past the data")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestIteratorFromStart(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.Valid() {
		count++
		it.Next()
	}
	if count != 2 {
		t.Fatalf("scanned %d", count)
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	db := openSmall(t, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := db.Put([]byte("k"), nil); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Delete([]byte("k")); err != ErrClosed {
		t.Fatalf("Delete after close: %v", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Fatalf("Flush after close: %v", err)
	}
	if _, err := db.NewIterator(nil); err != ErrClosed {
		t.Fatalf("NewIterator after close: %v", err)
	}
}

// A fully zero Thresholds is the "use defaults" sentinel; a deliberate
// Threshold1 = 0 (any other field non-zero) must be honored, not silently
// replaced with the defaults.
func TestThresholdsZeroValueSentinel(t *testing.T) {
	// Zero value: defaults apply, so a small value goes inline.
	db := openSmall(t, func(c *Config) {
		c.Method = Adaptive
		c.Thresholds = Thresholds{}
	})
	defer db.Close()
	if err := db.Put([]byte("k"), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Adaptive.Inline != 1 || s.Adaptive.PRP != 0 {
		t.Fatalf("zero Thresholds did not adopt defaults: inline=%d prp=%d",
			s.Adaptive.Inline, s.Adaptive.PRP)
	}

	// Deliberate Threshold1 = 0: the same small value must take the DMA path.
	db2 := openSmall(t, func(c *Config) {
		c.Method = Adaptive
		c.Thresholds = Thresholds{Alpha: 1, Beta: 1}
	})
	defer db2.Close()
	if err := db2.Put([]byte("k"), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if s := db2.Stats(); s.Adaptive.Inline != 0 || s.Adaptive.PRP != 1 {
		t.Fatalf("deliberate Threshold1=0 was overridden: inline=%d prp=%d",
			s.Adaptive.Inline, s.Adaptive.PRP)
	}
}

// Closing the DB invalidates outstanding iterators: the next advance fails
// with ErrClosed instead of touching a torn-down stack.
func TestIteratorInvalidatedByClose(t *testing.T) {
	db := openSmall(t, nil)
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Valid() {
		t.Fatal("iterator empty before Close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	it.Next()
	if it.Valid() {
		t.Fatal("iterator still valid after Close")
	}
	if it.Err() != ErrClosed {
		t.Fatalf("Err after Close: %v, want ErrClosed", it.Err())
	}
}

// An iterator left open across enough writes to compact the index must not
// go on reading: compaction frees and recycles the SSTable pages under its
// snapshot, and before the fix the scan came back out of order ("16380 after
// 18103") with a nil Err. Whatever it returns is ordered and is a prefix of
// the keys present at open; it either covers them all or says why it stopped.
func TestIteratorAcrossCompaction(t *testing.T) {
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const before, during = 20000, 60000
	name := func(i int) []byte { return []byte(fmt.Sprintf("%08d", i*7919%100003)) }
	for i := 0; i < before; i++ {
		if err := db.Put(name(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	seen := 0
	step := func() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("scan out of order after %d keys: %s after %s", seen, it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		seen++
		it.Next()
	}
	for seen < 100 && it.Valid() {
		step()
	}
	for i := before; i < before+during; i++ {
		if err := db.Put(name(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for it.Valid() {
		step()
	}
	switch err := it.Err(); {
	case err == nil && seen < before:
		t.Fatalf("scan ended silently after %d of the %d keys present at open", seen, before)
	case err != nil && !errors.Is(err, ErrIteratorInvalidated):
		t.Fatalf("scan stopped with %v, want ErrIteratorInvalidated", err)
	case err != nil:
		// A stopped iterator stays stopped, with the same answer.
		it.Next()
		if it.Valid() || !errors.Is(it.Err(), ErrIteratorInvalidated) {
			t.Fatalf("after the error: valid=%v err=%v", it.Valid(), it.Err())
		}
	}
	// A fresh iterator sees everything, in order.
	it, err = db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	prev, seen = nil, 0
	for it.Valid() {
		step()
	}
	if it.Err() != nil || seen != before+during {
		t.Fatalf("fresh scan: %d keys, err %v; want %d", seen, it.Err(), before+during)
	}
}

// An iterator outlives the MemTable it was opened on: 2 × MemTableEntries new
// keys behind it flush that table and the next one. The scan yields the keys
// present at open and the new ones that landed in its own table (the MemTable
// is a live view), nothing from the tables after, each with its value.
func TestIteratorAcrossMemTableFlushes(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	n := smallConfig().Device.LSM.MemTableEntries
	name := func(i int) []byte { return []byte(fmt.Sprintf("mt%05d", i)) }
	value := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	for i := 0; i < n/2; i++ {
		if err := db.Put(name(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n/2+2*n; i++ {
		if err := db.Put(name(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for ; it.Valid(); it.Next() {
		if seen >= n || !bytes.Equal(it.Key(), name(seen)) || !bytes.Equal(it.Value(), value(seen)) {
			t.Fatalf("pair %d is %q → %v, want %q → %v of %d", seen, it.Key(), it.Value(), name(seen), value(seen), n)
		}
		seen++
	}
	if it.Err() != nil || seen != n {
		t.Fatalf("scan ended after %d of %d pairs: %v", seen, n, it.Err())
	}
}

// Filling a small device to the brim is an answer, not an accident: the Put
// that does not fit fails as IsNoSpace (NVMe capacity exceeded), nothing
// panics, and every key acknowledged before it still reads back.
func TestFillToFullIsNoSpace(t *testing.T) {
	for _, tc := range []struct {
		name      string
		valueSize int
		vlogShare float64
	}{
		{"value_log_full", 4096, 0.75},
		{"index_region_full", 1, 0.97},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Device.Geometry = nand.Geometry{
				Channels: 1, WaysPerChannel: 2, BlocksPerWay: 8, PagesPerBlock: 8, PageSize: 16 * 1024,
			}
			cfg.Device.Buffer.MaxEntries = 4
			cfg.Device.LSM.MemTableEntries = 64
			cfg.Device.VLogFraction = tc.vlogShare
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			value := bytes.Repeat([]byte{0xA5}, tc.valueSize)
			name := func(i int) []byte { return []byte(fmt.Sprintf("full%06d", i)) }
			stored := 0
			for ; stored < 1<<20; stored++ {
				value[0] = byte(stored)
				if err = db.Put(name(stored), value); err != nil {
					break
				}
			}
			if !IsNoSpace(err) {
				t.Fatalf("Put %d failed with %v, want a no-space error", stored, err)
			}
			if stored == 0 {
				t.Fatal("the device was full before the first Put")
			}
			for i := 0; i < stored; i++ {
				got, err := db.Get(name(i))
				if err != nil || len(got) != tc.valueSize || got[0] != byte(i) {
					t.Fatalf("key %d of %d after the device filled: %d bytes, %v", i, stored, len(got), err)
				}
			}
		})
	}
}

func TestFlushPersistsAndCountsNAND(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	before := db.Stats().Device.NANDPageWrites
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Device.NANDPageWrites <= before {
		t.Fatal("Flush wrote nothing")
	}
}

func TestStatsSnapshot(t *testing.T) {
	db := openSmall(t, func(c *Config) { c.Method = Piggyback })
	defer db.Close()
	db.Put([]byte("k1"), make([]byte, 32))
	db.Get([]byte("k1"))
	s := db.Stats()
	if s.Host.Puts != 1 || s.Host.Gets != 1 {
		t.Fatalf("ops %d/%d", s.Host.Puts, s.Host.Gets)
	}
	if s.Host.Commands < 2 {
		t.Fatalf("commands %d", s.Host.Commands)
	}
	if s.Host.WriteResp.Mean <= 0 || s.Host.Elapsed <= 0 {
		t.Fatal("timings missing")
	}
	if s.Host.ThroughputKops <= 0 {
		t.Fatal("throughput missing")
	}
	if s.Adaptive.Inline != 1 {
		t.Fatalf("InlineChosen = %d", s.Adaptive.Inline)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestStatsAmplificationHelpers(t *testing.T) {
	s := Stats{PCIe: PCIeStats{Bytes: 4160}, Device: DeviceStats{NANDPageWrites: 2}}
	if got := s.TrafficAmplification(32); got != 130.0 {
		t.Fatalf("TAF = %v", got)
	}
	if got := s.WriteAmplification(1024, 16*1024); got != 32.0 {
		t.Fatalf("WAF = %v", got)
	}
	if s.TrafficAmplification(0) != 0 || s.WriteAmplification(0, 1) != 0 {
		t.Fatal("zero payload must report 0")
	}
}

func TestDisableNAND(t *testing.T) {
	db := openSmall(t, func(c *Config) { c.DisableNAND = true })
	defer db.Close()
	db.Put([]byte("k"), make([]byte, 100))
	if db.Stats().Device.NANDPageWrites != 0 {
		t.Fatal("NAND written despite DisableNAND")
	}
}

func TestCalibrateThresholds(t *testing.T) {
	thr, err := CalibrateThresholds(8)
	if err != nil {
		t.Fatal(err)
	}
	// The §3.2 result: piggybacking wins up to somewhere in [35, 128];
	// beyond 128 B the trailing-command round trips lose.
	if thr.Threshold1 < 35 || thr.Threshold1 > 128 {
		t.Fatalf("Threshold1 = %d, want in [35,128]", thr.Threshold1)
	}
	if thr.Threshold2 < 4 || thr.Threshold2 > 4096 {
		t.Fatalf("Threshold2 = %d", thr.Threshold2)
	}
	if _, err := CalibrateThresholds(0); err == nil {
		t.Fatal("perSize=0 accepted")
	}
}

func TestCompactVLogAPI(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	free0 := db.VLogFreeBytes()
	if free0 <= 0 {
		t.Fatal("fresh DB reports no vLog space")
	}
	// Churn one key so dead versions pile up.
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte("churn"), bytes.Repeat([]byte{byte(i)}, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.VLogFreeBytes() >= free0 {
		t.Fatal("churn consumed no space")
	}
	relocated, err := db.CompactVLog(4)
	if err != nil {
		t.Fatal(err)
	}
	if relocated > 1 {
		t.Fatalf("relocated %d values, want ≤1", relocated)
	}
	got, err := db.Get([]byte("churn"))
	if err != nil || got[0] != 49 {
		t.Fatalf("live value wrong after GC: %v %v", got[:1], err)
	}
	db.Close()
	if _, err := db.CompactVLog(1); err != ErrClosed {
		t.Fatalf("CompactVLog after close: %v", err)
	}
}

func TestPipelinedConfig(t *testing.T) {
	serial := openSmall(t, func(c *Config) { c.Method = Piggyback; c.DisableNAND = true })
	serial.Put([]byte("k"), make([]byte, 1024))
	sOps := serial.Stats().Host.WriteResp.Mean
	serial.Close()

	pipe := openSmall(t, func(c *Config) { c.Method = Piggyback; c.DisableNAND = true; c.Submission = PipelinedSubmission() })
	pipe.Put([]byte("k"), make([]byte, 1024))
	pOps := pipe.Stats().Host.WriteResp.Mean
	pipe.Close()

	if pOps >= sOps/2 {
		t.Fatalf("pipelined response %v not ≪ serial %v", pOps, sOps)
	}
}

func TestSGLMethodAPI(t *testing.T) {
	db := openSmall(t, func(c *Config) { c.Method = SGL })
	defer db.Close()
	v := bytes.Repeat([]byte{9}, 5000)
	if err := db.Put([]byte("s"), v); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("s"))
	if err != nil || !bytes.Equal(got, v) {
		t.Fatal("SGL round trip failed")
	}
}

// The DB serializes concurrent callers; under -race this validates the
// locking discipline.
func TestConcurrentAccess(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Get returns a view into the driver's read buffer, so concurrent
			// readers retain values through GetInto with a goroutine-owned dst.
			var dst []byte
			for i := 0; i < 30; i++ {
				key := []byte(fmt.Sprintf("c%d-%d", g, i))
				if err := db.Put(key, []byte{byte(g), byte(i)}); err != nil {
					errs <- err
					return
				}
				got, err := db.GetInto(key, dst)
				if err != nil || got[0] != byte(g) || got[1] != byte(i) {
					errs <- fmt.Errorf("goroutine %d read mismatch: %v %v", g, got, err)
					return
				}
				dst = got
			}
			db.Stats()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Stats().Host.Puts != 8*30 {
		t.Fatalf("Puts = %d", db.Stats().Host.Puts)
	}
}

// Run with -race: Put, Get, Delete, and iterators hammered from many
// goroutines against one DB. Iterators may observe snapshot invalidation
// (writes interleave with iteration), but nothing may race or panic.
func TestConcurrentMixedOps(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	for i := 0; i < 64; i++ {
		if err := db.Put([]byte(fmt.Sprintf("seed%03d", i)), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := []byte(fmt.Sprintf("m%d-%d", g, i))
				if err := db.Put(key, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Get(key); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					if err := db.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				it, err := db.NewIterator(nil)
				if err != nil {
					t.Error(err)
					return
				}
				for it.Valid() {
					if it.Key() == nil {
						t.Error("valid iterator with nil key")
						return
					}
					it.Next()
				}
				// Concurrent writes legitimately invalidate the device
				// snapshot; only the race detector is the judge here.
				_ = it.Err()
			}
		}()
	}
	wg.Wait()
	if got := db.Stats().Host.Puts; got != 64+4*30 {
		t.Fatalf("Puts = %d, want %d", got, 64+4*30)
	}
}

func TestOpenZeroDeviceConfigGetsDefaults(t *testing.T) {
	db, err := Open(Config{Method: Baseline, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id, err := db.Identify()
	if err != nil {
		t.Fatal(err)
	}
	def := device.DefaultConfig().Geometry
	if id.Channels != def.Channels || id.WaysPerChannel != def.WaysPerChannel ||
		id.NANDPageSize != def.PageSize || id.CapacityBytes != def.CapacityBytes() {
		t.Fatal("zero config did not default")
	}
}

// A Device that sets a field but leaves Geometry zero cannot take the
// default geometry without dropping that field, so Open refuses it with a
// ConfigError naming Device.Geometry.
func TestOpenRefusesPartialDeviceConfig(t *testing.T) {
	var cfg Config
	cfg.Device.LSM.MemTableEntries = 256
	db, err := Open(cfg)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Device.Geometry" {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with only Device.LSM.MemTableEntries set = %v, want a ConfigError on Device.Geometry", err)
	}
}

// A negative sampling interval or trace capacity has no meaning, so
// OpenSharded refuses each with a ConfigError naming the field.
func TestOpenShardedRefusesNegativeObservability(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   ShardedConfig
	}{
		{"MetricsInterval", ShardedConfig{Shards: 1, PerShard: Config{MetricsInterval: -1}}},
		{"TraceCapacity", ShardedConfig{Shards: 2, TraceCapacity: -1}},
	} {
		db, err := OpenSharded(c.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			if err == nil {
				db.Close()
			}
			t.Errorf("OpenSharded with a negative %s = %v, want a ConfigError on it", c.field, err)
		}
	}
}

// Open answers a device setting no hardware has with an error, never a panic
// or a run on nonsense timings.
func TestOpenRejectsNegativeDeviceSettings(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*device.Config)
	}{
		{"Buffer.DLTCap", func(d *device.Config) { d.Buffer.DLTCap = -1 }},
		{"Latency.Read", func(d *device.Config) { d.Latency.Read = -1 }},
		{"Latency.Prog", func(d *device.Config) { d.Latency.Prog = -1 }},
		{"Latency.Erase", func(d *device.Config) { d.Latency.Erase = -1 }},
		{"Memcpy.Fixed", func(d *device.Config) { d.Memcpy.Fixed = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Open panicked: %v", r)
				}
			}()
			cfg := smallConfig()
			c.mutate(&cfg.Device)
			db, err := Open(cfg)
			if err == nil {
				db.Close()
				t.Fatal("Open accepted the config")
			}
		})
	}
}

// The FTL numbers pages with int32s, so a geometry of more than 2^31-1
// pages is refused at Open, naming the count, rather than opened with page
// numbers that wrap. Four blocks of 2^29 pages keep the refusal cheap to
// reach.
func TestOpenRefusesGeometryPastInt32Pages(t *testing.T) {
	cfg := smallConfig()
	cfg.Device.Geometry = nand.Geometry{Channels: 1, WaysPerChannel: 1, BlocksPerWay: 4, PagesPerBlock: 1 << 29, PageSize: 512}
	db, err := Open(cfg)
	if err == nil {
		db.Close()
		t.Fatal("Open accepted 2^31 physical pages")
	}
	if !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("Open error %q does not name the page count 2147483648", err)
	}
}

// The MemTable's arrays are sized from MemTableEntries when the tree is
// built, so a size no host can hold is refused at Open, naming the setting,
// rather than attempted.
func TestOpenRefusesOversizedMemTable(t *testing.T) {
	cfg := smallConfig()
	cfg.Device.LSM.MemTableEntries = 1 << 40
	db, err := Open(cfg)
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a MemTable of 2^40 entries")
	}
	if !strings.Contains(err.Error(), "MemTableEntries") {
		t.Fatalf("Open error %q does not name MemTableEntries", err)
	}
}

func TestIdentifyAPI(t *testing.T) {
	db := openSmall(t, nil)
	id, err := db.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Model == "" || !id.KVCommandSet {
		t.Fatalf("identify = %+v", id)
	}
	if id.InlineWriteBytes != 35 || id.InlineXferBytes != 56 {
		t.Fatalf("inline capacities %d/%d", id.InlineWriteBytes, id.InlineXferBytes)
	}
	db.Close()
	if _, err := db.Identify(); err != ErrClosed {
		t.Fatalf("Identify after close: %v", err)
	}
}
