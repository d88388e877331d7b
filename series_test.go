package bandslim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/timeseries"
)

// metricsWorkload drives enough mixed-size PUTs and GETs to advance the
// simulated clock across many sampling boundaries, then flushes.
func metricsWorkload(t *testing.T, put func(k, v []byte) error, get func(k []byte) ([]byte, error), flush func() error) {
	t.Helper()
	sizes := []int{16, 512, 2048, 4096 + 32, 8192}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := put(key, make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 3 {
		if _, err := get([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

// seriesColumn extracts one scalar metric's values across a series' samples,
// or nil when the series has no such metric.
func seriesColumn(s MetricSeries, name string) []float64 {
	for i, d := range s.Descs {
		if d.Name == name {
			col := make([]float64, len(s.Samples))
			for j, sm := range s.Samples {
				col[j] = sm.Values[i]
			}
			return col
		}
	}
	return nil
}

func TestSeriesEmptyWithoutInterval(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s := db.Series(); s.Len() != 0 {
		t.Fatalf("Series without MetricsInterval has %d samples, want 0", s.Len())
	}
}

func TestSeriesRecordsTrajectory(t *testing.T) {
	db := openSmall(t, func(c *Config) { c.MetricsInterval = 5 * sim.Microsecond })
	metricsWorkload(t, db.Put, db.Get, db.Flush)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s := db.Series() // readable after Close, includes the final flush
	if s.Len() < 3 {
		t.Fatalf("series has %d samples, want several boundaries crossed", s.Len())
	}
	if s.Samples[0].T != 0 {
		t.Fatalf("first sample T = %v, want 0", s.Samples[0].T)
	}
	for i, sm := range s.Samples {
		if sm.T != sim.Time(int64(s.Interval)*int64(i)) {
			t.Fatalf("sample %d T = %v, off the fixed grid", i, sm.T)
		}
	}
	puts := seriesColumn(s, "host_puts")
	if puts == nil {
		t.Fatal("host_puts column missing")
	}
	if puts[0] != 0 {
		t.Fatalf("host_puts at t=0 = %v, want 0", puts[0])
	}
	if last := puts[len(puts)-1]; last != 200 {
		t.Fatalf("final host_puts = %v, want 200", last)
	}
	for i := 1; i < len(puts); i++ {
		if puts[i] < puts[i-1] {
			t.Fatalf("counter host_puts decreased at sample %d", i)
		}
	}
	if len(s.HistKeys) == 0 {
		t.Fatal("series recorded no latency histograms")
	}
}

// DeterminismExports renders metricsWorkload's exposition and series CSV: a
// row of TestDeterminism.
func DeterminismExports(t *testing.T) map[string][]byte {
	db := openSmall(t, func(c *Config) { c.MetricsInterval = 5 * sim.Microsecond })
	metricsWorkload(t, db.Put, db.Get, db.Flush)
	var prom, csv bytes.Buffer
	if err := db.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesCSV(&csv, db.Series()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"exposition": prom.Bytes(), "series.csv": csv.Bytes()}
}

// A one-shard DB's Series is its sampler's series as it is, and skipping
// the merge moves no exported byte.
func TestOneShardSeriesIsTheSamplers(t *testing.T) {
	db := openSmall(t, func(c *Config) { c.MetricsInterval = 50 * sim.Microsecond })
	metricsWorkload(t, db.Put, db.Get, db.Flush)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, want := db.Series(), db.shards[0].sampler.Series()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("one-shard Series differs from the sampler's series")
	}
	var direct, merged bytes.Buffer
	if err := WriteSeriesCSV(&direct, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesCSV(&merged, timeseries.MergeSeries(want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), merged.Bytes()) {
		t.Fatal("the series CSV differs with and without the one-shard merge")
	}
}

func TestShardedCountersSumAcrossShards(t *testing.T) {
	cfg := smallConfig()
	cfg.MetricsInterval = 5 * sim.Microsecond
	sdb, err := OpenSharded(ShardedConfig{Shards: 4, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := sdb.Put(key, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sdb.Flush(); err != nil {
		t.Fatal(err)
	}
	s := sdb.Series()
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	puts := seriesColumn(s, "host_puts")
	if len(puts) == 0 {
		t.Fatal("host_puts column missing from merged series")
	}
	if last := puts[len(puts)-1]; last != n {
		t.Fatalf("merged final host_puts = %v, want %d", last, n)
	}
	stats := sdb.Stats()
	if got := stats.Host.Puts; int64(puts[len(puts)-1]) != got {
		t.Fatalf("merged series (%v) disagrees with Stats (%d)", puts[len(puts)-1], got)
	}
}
