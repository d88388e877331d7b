package bench

// Tiered read-path ablation: how far the device-DRAM read cache lifts
// skewed-read tail latency over the cache-off seed behavior. The sweep
// crosses cache size × eviction policy × Zipfian skew, times every read on
// the virtual clock, and splits latencies into the hot set (the top 1% of
// ranks, which the cache must capture) and the cold remainder. Every figure
// is simulated, so two runs with the same scale and seed produce
// byte-identical BENCH_cache.json — the determinism gate
// TestEveryExperimentRunsAndRepeats relies on that. The sweep hard-fails if
// the hot-read p99 at the default operating point (LRU, 4 MiB, s=0.99) does
// not improve at least 3x over cache-off at the same skew.

import (
	"fmt"

	"bandslim"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// cacheSkews is the Zipfian skew sweep; 0.99 is YCSB's default.
var cacheSkews = []float64{0.80, 0.99, 1.20}

// cacheSizes is the device-DRAM value-cache capacity sweep in bytes.
var cacheSizes = []int{1 << 20, 4 << 20}

// cachePolicies is the eviction-policy sweep for each size.
var cachePolicies = []bandslim.CachePolicy{bandslim.CacheLRU, bandslim.Cache2Q}

// cacheChunk is the keys-per-PutBatch call during the load phase.
const cacheChunk = 256

// cacheMinSpeedup is the hard acceptance floor on the hot-read p99
// improvement at the default operating point.
const cacheMinSpeedup = 3.0

// cacheDefaultSize / cacheDefaultPolicy / cacheDefaultSkew name the default
// operating point the speedup gate checks.
const (
	cacheDefaultSize = 4 << 20
	cacheDefaultSkew = 0.99
)

// CachePoint is one sweep cell, shaped for BENCH_cache.json. All fields are
// simulated and deterministic.
type CachePoint struct {
	Policy    string  `json:"policy"` // "off", "lru", "2q"
	SizeBytes int     `json:"size_bytes"`
	Skew      float64 `json:"skew"`
	Keys      int     `json:"keys"`
	HotKeys   int     `json:"hot_keys"`
	Reads     int64   `json:"reads"`
	HotReads  int64   `json:"hot_reads"`
	HitRate   float64 `json:"hit_rate"` // value-cache hits / lookups, measured phase
	HotP50Us  float64 `json:"hot_p50_us"`
	HotP99Us  float64 `json:"hot_p99_us"`
	ColdP50Us float64 `json:"cold_p50_us"`
	ColdP99Us float64 `json:"cold_p99_us"`
	SimKops   float64 `json:"sim_kops"`
	// HotP99SpeedupVsOff is cache-off hot p99 / this cell's hot p99 at the
	// same skew (1.0 for the off rows themselves).
	HotP99SpeedupVsOff float64 `json:"hot_p99_speedup_vs_off"`
}

// runCachePoint builds a fresh single-shard stack with the given cache
// config (zero = cache off), loads the keyspace, warms the hot set, then
// times a Zipfian read phase op by op on the virtual clock.
func runCachePoint(o Options, cc bandslim.CacheConfig, skew float64, label string) (CachePoint, error) {
	cfg := headlineConfig()
	cfg.Cache = cc
	db, err := bandslim.Open(cfg)
	if err != nil {
		return CachePoint{}, err
	}
	defer db.Close()

	nkeys := max(o.Scale, 1024)
	// Key index is Zipfian rank: rc0000000 is the hottest key. The hot set
	// is the top 1% of ranks — small enough that every policy and size in
	// the sweep can retain it against cold-read pollution.
	hotN := max(nkeys/100, 1)
	keys, _, err := loadKeyspace(db, "rc", nkeys, 1024, cacheChunk, sim.NewRNG(o.Seed^0xCA))
	if err != nil {
		return CachePoint{}, fmt.Errorf("bench: cache %s: fill: %w", label, err)
	}

	// Warm: one pass over the hot set so the measured phase sees the cache
	// in steady state rather than charging cold-start fills to the tail.
	// The pass runs cache-off too, keeping the measured op sequence — and
	// the LSM/vLog state it reads — identical across cells.
	buf := make([]byte, 0, 4096)
	for i := 0; i < hotN; i++ {
		if _, err := db.GetInto(keys[i], buf[:0]); err != nil {
			return CachePoint{}, fmt.Errorf("bench: cache %s: warm %s: %w", label, keys[i], err)
		}
	}

	z, err := workload.NewZipfian(nkeys, skew, o.Seed^0x2C)
	if err != nil {
		return CachePoint{}, fmt.Errorf("bench: cache %s: %w", label, err)
	}
	reads := int64(2 * nkeys)
	pre := db.Stats()
	var hot, cold []sim.Duration
	start := db.Now()
	for i := int64(0); i < reads; i++ {
		r := z.Next()
		t0 := db.Now()
		if _, err := db.GetInto(keys[r], buf[:0]); err != nil {
			return CachePoint{}, fmt.Errorf("bench: cache %s: read %s: %w", label, keys[r], err)
		}
		lat := db.Now().Sub(t0)
		if r < hotN {
			hot = append(hot, lat)
		} else {
			cold = append(cold, lat)
		}
	}
	elapsed := db.Now().Sub(start)
	st := db.Stats()

	hitRate := 0.0
	if lookups := (st.Cache.Hits - pre.Cache.Hits) + (st.Cache.Misses - pre.Cache.Misses); lookups > 0 {
		hitRate = float64(st.Cache.Hits-pre.Cache.Hits) / float64(lookups)
	}
	return CachePoint{
		Policy:    label,
		SizeBytes: cc.ValueBytes,
		Skew:      skew,
		Keys:      nkeys,
		HotKeys:   hotN,
		Reads:     reads,
		HotReads:  int64(len(hot)),
		HitRate:   hitRate,
		HotP50Us:  pct(hot, 0.50),
		HotP99Us:  pct(hot, 0.99),
		ColdP50Us: pct(cold, 0.50),
		ColdP99Us: pct(cold, 0.99),
		SimKops:   simKops(reads, elapsed),
	}, nil
}

// RunCacheSweep crosses cache size × policy × Zipfian skew against the
// cache-off baseline and gates on the hot-read p99 improvement at the
// default operating point. Identical options reproduce the table and JSON
// bit-for-bit.
func RunCacheSweep(o Options) (*Table, []CachePoint, error) {
	o = o.normalized()
	t := &Table{
		ID: "cache", Title: "Tiered Read Path: Device-DRAM Cache vs Skewed Reads",
		XLabel:  "policy/size/skew",
		Columns: []string{"hit_rate", "hot_p50_us", "hot_p99_us", "cold_p99_us", "sim_kops", "hot_p99_speedup"},
		Notes: []string{
			fmt.Sprintf("scale=%d keys, single shard, 2x-scale Zipfian read phase, hot set = top 1%% of ranks", o.Scale),
			"off rows are the seed read path; cache rows charge hits device-DRAM latency and skip NAND",
			fmt.Sprintf("gate: hot p99 must improve >= %.0fx at lru/%dMiB/s=%.2f", cacheMinSpeedup, cacheDefaultSize>>20, cacheDefaultSkew),
			"all values simulated and deterministic for a given -scale/-seed",
		},
	}
	var points []CachePoint
	var gateSpeedup float64
	for _, skew := range cacheSkews {
		off, err := runCachePoint(o, bandslim.CacheConfig{}, skew, "off")
		if err != nil {
			return nil, nil, err
		}
		off.HotP99SpeedupVsOff = 1.0
		points = append(points, off)
		t.AddRow(fmt.Sprintf("off/-/s=%.2f", skew),
			off.HitRate, off.HotP50Us, off.HotP99Us, off.ColdP99Us, off.SimKops, 1.0)
		for _, pol := range cachePolicies {
			for _, size := range cacheSizes {
				cc := bandslim.CacheConfig{ValueBytes: size, Pages: 64, Policy: pol}
				p, err := runCachePoint(o, cc, skew, pol.String())
				if err != nil {
					return nil, nil, err
				}
				if off.HotP99Us > 0 && p.HotP99Us > 0 {
					p.HotP99SpeedupVsOff = off.HotP99Us / p.HotP99Us
				}
				if pol == bandslim.CacheLRU && size == cacheDefaultSize && skew == cacheDefaultSkew {
					gateSpeedup = p.HotP99SpeedupVsOff
				}
				points = append(points, p)
				t.AddRow(fmt.Sprintf("%s/%dMiB/s=%.2f", pol, size>>20, skew),
					p.HitRate, p.HotP50Us, p.HotP99Us, p.ColdP99Us, p.SimKops, p.HotP99SpeedupVsOff)
			}
		}
	}
	if gateSpeedup < cacheMinSpeedup {
		return nil, nil, fmt.Errorf(
			"bench: cache: hot-read p99 speedup %.2fx at lru/%dMiB/s=%.2f below the %.0fx acceptance floor",
			gateSpeedup, cacheDefaultSize>>20, cacheDefaultSkew, cacheMinSpeedup)
	}
	return t, points, nil
}
