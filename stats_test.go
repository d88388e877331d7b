package bandslim

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bandslim/internal/timeseries"
)

// A metric cannot be half-declared: every int64/sim.Duration field of the
// row-driven Stats groups must be the target of exactly one row. The groups'
// struct and float fields (WriteResp/ReadResp, ThroughputKops, BufferUtil) do
// not sum across shards and are written once by hand; Host.Elapsed is the one
// integer that is not a row's target, because it is the sim_time_ns gauge.
func TestEveryStatsFieldHasOneRow(t *testing.T) {
	// Number the fields, so the number a row's accessor reads names its target.
	var s Stats
	var fields []string
	for _, group := range []string{"Host", "PCIe", "Device", "Adaptive", "Cache", "Faults", "Server"} {
		g := reflect.ValueOf(&s).Elem().FieldByName(group)
		for i := 0; i < g.NumField(); i++ {
			if f := g.Field(i); f.Kind() == reflect.Int64 {
				fields = append(fields, group+"."+g.Type().Field(i).Name)
				f.SetInt(int64(len(fields)))
			}
		}
	}
	targets := map[string][]string{}
	names := map[string]bool{}
	for _, r := range slices.Concat(stackRows, serverRows) {
		if names[r.Name] {
			t.Errorf("metric %s is declared twice", r.Name)
		}
		names[r.Name] = true
		if r.field == nil {
			if r.live == nil {
				t.Errorf("metric %s has neither a Stats field nor a live reading", r.Name)
			}
			continue
		}
		n := *r.field(&s)
		if n < 1 || int(n) > len(fields) {
			t.Errorf("metric %s targets something other than an integer field of a row-driven Stats group", r.Name)
			continue
		}
		targets[fields[n-1]] = append(targets[fields[n-1]], r.Name)
	}
	for _, r := range stackRows {
		if r.field != nil && r.read == nil {
			t.Errorf("metric %s has a Stats field but no way to read it off a stack", r.Name)
		}
	}
	for _, f := range fields {
		want := 1
		if f == "Host.Elapsed" {
			want = 0
		}
		if got := targets[f]; len(got) != want {
			t.Errorf("Stats.%s is the target of %d rows %v, want %d: declare it with one counter(...) row in stats.go",
				f, len(got), got, want)
		}
	}
}

// statsChurn is a deterministic mixed workload that keeps going through
// injected faults: failed ops are skipped and a power cut is recovered.
func statsChurn(t *testing.T, kv *DB) {
	t.Helper()
	sizes := []int{8, 64, 900, 4096 + 40, 8192, 16}
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("k%06d", (i*7919)%300))
		var err error
		switch {
		case i%5 < 3:
			err = kv.Put(key, make([]byte, sizes[i%len(sizes)]))
		case i%25 == 4:
			err = kv.Delete(key)
		case i%25 == 9:
			_, err = kv.Get([]byte(fmt.Sprintf("absent%02d", i%50)))
		default:
			_, err = kv.Get(key)
		}
		if IsPowerLoss(err) {
			if err := kv.Recover(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := kv.Flush(); err != nil && !IsPowerLoss(err) {
		t.Fatal(err)
	}
}

// expositionValue parses one scalar out of a Prometheus exposition.
func expositionValue(t *testing.T, kv *DB, metric string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := kv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "bandslim_"+metric+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no %s", metric)
	return 0
}

// With faults and caches armed, a sharded DB's Stats is its shards' Stats
// folded row by row: every AggSum row's field is the exact sum, Elapsed the
// max, and BufferUtil the flush-weighted mean.
func TestShardedStatsFoldEveryRow(t *testing.T) {
	plan, err := ParseFaultPlan("seed 7\ndma.in every=40 transient\nnand.program every=15 media\nexec nth=600 powercut\n")
	if err != nil {
		t.Fatal(err)
	}
	s := openSharded(t, 4, func(c *Config) {
		c.Device.Buffer.MaxEntries = 8
		c.Faults = plan
		c.Cache = ServingCacheConfig()
	})
	statsChurn(t, s)

	agg := s.Stats()
	parts := make([]Stats, len(s.shards))
	for i := range parts {
		parts[i] = s.ShardStats(i)
	}
	nonzero := 0
	for _, r := range stackRows {
		if r.field == nil || r.Agg != timeseries.AggSum {
			continue
		}
		var sum int64
		for i := range parts {
			sum += *r.field(&parts[i])
		}
		if got := *r.field(&agg); got != sum {
			t.Errorf("%s: aggregate %d, shard sum %d", r.Name, got, sum)
		}
		if sum != 0 {
			nonzero++
		}
	}
	// The workload must actually exercise the fault and cache sections, or
	// the sums above prove nothing about them.
	if agg.Faults.PowerCuts == 0 || agg.Faults.Retries == 0 || agg.Cache.Misses == 0 || agg.Cache.NegHits == 0 {
		t.Errorf("workload left a section idle: faults %+v, cache %+v", agg.Faults, agg.Cache)
	}
	if nonzero < 30 {
		t.Errorf("only %d of the additive rows moved", nonzero)
	}

	var maxElapsed SimDuration
	var weighted, unweighted float64
	for _, p := range parts {
		maxElapsed = max(maxElapsed, p.Host.Elapsed)
		weighted += p.Device.BufferUtil * float64(p.Device.VLogFlushes)
		unweighted += p.Device.BufferUtil
	}
	if agg.Host.Elapsed != maxElapsed {
		t.Errorf("Elapsed: aggregate %v, max shard %v", agg.Host.Elapsed, maxElapsed)
	}
	// buffer_util has two aggregations today, pinned here as they are: Stats
	// weights each shard by the pages it flushed, the exposition's AggMean
	// row averages the shards unweighted. Unifying them changes exported
	// numbers, so it is a behaviour change for a later PR, not a refactor.
	if want := weighted / float64(agg.Device.VLogFlushes); agg.Device.BufferUtil != want {
		t.Errorf("Stats BufferUtil = %v, want the flush-weighted mean %v", agg.Device.BufferUtil, want)
	}
	if got, want := expositionValue(t, s, "buffer_util"), unweighted/float64(len(parts)); got != want {
		t.Errorf("exposition buffer_util = %v, want the unweighted mean %v", got, want)
	}
	if agg.Device.BufferUtil == unweighted/float64(len(parts)) {
		t.Error("the shards flushed equal page counts: the two buffer_util aggregations cannot be told apart")
	}
}
