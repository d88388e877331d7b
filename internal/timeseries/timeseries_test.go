package timeseries

import (
	"bytes"
	"strings"
	"testing"

	"bandslim/internal/metrics"
	"bandslim/internal/sim"
)

var testDescs = []Desc{
	{Name: "ops", Kind: KindCounter, Agg: AggSum, Help: "operations completed"},
	{Name: "clock_ns", Kind: KindGauge, Agg: AggMax, Help: "simulated clock"},
	{Name: "util", Kind: KindGauge, Agg: AggMean, Help: "utilization"},
}

// fakeSource returns a snapshot source backed by mutable counters the test
// advances between polls.
type fakeSource struct {
	ops   float64
	clock float64
	util  float64
	hists []Hist
}

func (f *fakeSource) snapshot() Snapshot {
	hists := make([]Hist, len(f.hists))
	for i, h := range f.hists {
		hists[i] = Hist{Key: h.Key, H: h.H.Clone()}
	}
	return Snapshot{Values: []float64{f.ops, f.clock, f.util}, Hists: hists}
}

func TestSamplerBoundaries(t *testing.T) {
	src := &fakeSource{}
	s := NewSampler(100, testDescs, src.snapshot)

	// The t = 0 baseline sample is recorded at construction.
	if got := s.Series(); got.Len() != 1 || got.Samples[0].T != 0 {
		t.Fatalf("after construction: %d samples, first T %v", got.Len(), got.Samples[0].T)
	}

	// No boundary crossed: nothing recorded.
	src.ops = 5
	s.Poll(99)
	if got := s.Series(); got.Len() != 1 {
		t.Fatalf("poll before boundary recorded a sample: %d", got.Len())
	}

	// One boundary crossed exactly at t = 100.
	s.Poll(100)
	got := s.Series()
	if got.Len() != 2 || got.Samples[1].T != 100 {
		t.Fatalf("after first boundary: %d samples, T %v", got.Len(), got.Samples[1].T)
	}
	if got.Samples[1].Values[0] != 5 {
		t.Fatalf("sample 1 ops = %v, want 5", got.Samples[1].Values[0])
	}

	// One long operation crossing three boundaries records three samples
	// that share the same snapshot values.
	src.ops = 42
	s.Poll(450)
	got = s.Series()
	if got.Len() != 5 {
		t.Fatalf("after multi-boundary poll: %d samples, want 5", got.Len())
	}
	for i := 2; i <= 4; i++ {
		if got.Samples[i].T != sim.Time(i)*100 {
			t.Fatalf("sample %d T = %v, want %v", i, got.Samples[i].T, i*100)
		}
		if got.Samples[i].Values[0] != 42 {
			t.Fatalf("sample %d ops = %v, want 42 (shared snapshot)", i, got.Samples[i].Values[0])
		}
	}

	// A later poll continues from the next unfilled boundary.
	src.ops = 50
	s.Poll(500)
	if got := s.Series(); got.Len() != 6 || got.Samples[5].Values[0] != 50 {
		t.Fatalf("after t=500 poll: %d samples, ops %v", got.Len(), got.Samples[5].Values[0])
	}
}

func TestSamplerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSampler(0) did not panic")
		}
	}()
	NewSampler(0, testDescs, (&fakeSource{}).snapshot)
}

// column extracts one scalar metric's values across a series' samples.
func column(s Series, name string) []float64 {
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

func TestSamplerTracksNewHistKeys(t *testing.T) {
	src := &fakeSource{}
	s := NewSampler(100, testDescs, src.snapshot)

	h := metrics.NewHistogram()
	h.Observe(500)
	src.hists = []Hist{{Key: HistKey{Name: "lat_ns", Label: "op", Value: "PUT"}, H: h}}
	s.Poll(100)

	h2 := metrics.NewHistogram()
	h2.Observe(900)
	src.hists = append(src.hists, Hist{Key: HistKey{Name: "lat_ns", Label: "op", Value: "GET"}, H: h2})
	s.Poll(200)

	series := s.Series()
	if len(series.HistKeys) != 2 {
		t.Fatalf("HistKeys = %v, want 2 keys in first-observation order", series.HistKeys)
	}
	if series.HistKeys[0].Value != "PUT" || series.HistKeys[1].Value != "GET" {
		t.Fatalf("HistKeys order = %v", series.HistKeys)
	}
	// The first sample has no histogram for either key.
	if histAt(series.Samples[0], series.HistKeys[0]) != nil {
		t.Fatal("t=0 sample unexpectedly has the PUT histogram")
	}
	if got := histAt(series.Samples[2], series.HistKeys[1]); got == nil || got.Count() != 1 {
		t.Fatal("t=200 sample missing the GET histogram")
	}
}

func TestMergeSeriesIdentityOnCounters(t *testing.T) {
	src := &fakeSource{}
	s := NewSampler(100, testDescs, src.snapshot)
	for i := 1; i <= 3; i++ {
		src.ops = float64(i)
		src.clock = float64(i * 100)
		src.util = 0.5
		s.Poll(sim.Time(i * 100))
	}
	one := s.Series()
	merged := MergeSeries(one)
	if merged.Len() != one.Len() {
		t.Fatalf("identity merge changed length: %d vs %d", merged.Len(), one.Len())
	}
	for _, name := range []string{"ops", "clock_ns", "util"} {
		a, b := column(one, name), column(merged, name)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("identity merge changed %s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

func TestMergeSeriesAggregatesAndCarriesForward(t *testing.T) {
	// Shard A records 3 boundaries, shard B only 1: B's final sample must
	// carry forward to A's later boundaries.
	mk := func(ops, clock, util []float64) Series {
		src := &fakeSource{}
		s := NewSampler(100, testDescs, src.snapshot)
		for i := range ops {
			src.ops, src.clock, src.util = ops[i], clock[i], util[i]
			s.Poll(sim.Time((i + 1) * 100))
		}
		return s.Series()
	}
	a := mk([]float64{10, 20, 30}, []float64{100, 200, 300}, []float64{0.2, 0.4, 0.6})
	b := mk([]float64{5}, []float64{100}, []float64{1.0})

	m := MergeSeries(a, b)
	if m.Len() != 4 {
		t.Fatalf("merged length = %d, want 4 (longest part)", m.Len())
	}
	ops := column(m, "ops")
	// Counter sums; b stays flat at 5 after its clock stops.
	for i, want := range []float64{0, 15, 25, 35} {
		if ops[i] != want {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], want)
		}
	}
	clock := column(m, "clock_ns")
	for i, want := range []float64{0, 100, 200, 300} {
		if clock[i] != want {
			t.Fatalf("clock_ns[%d] = %v, want %v (AggMax)", i, clock[i], want)
		}
	}
	util := column(m, "util")
	for i, want := range []float64{0, 0.6, 0.7, 0.8} { // mean of a and carried-forward b
		if util[i] != want {
			t.Fatalf("util[%d] = %v, want %v (AggMean)", i, util[i], want)
		}
	}
	// The time axis stays on the shared grid.
	for i, sm := range m.Samples {
		if sm.T != sim.Time(i*100) {
			t.Fatalf("merged sample %d T = %v, want %v", i, sm.T, i*100)
		}
	}
}

func TestMergeSeriesPanicsOnIntervalMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interval mismatch did not panic")
		}
	}()
	a := Series{Interval: 100}
	b := Series{Interval: 200}
	MergeSeries(a, b)
}

func TestMergeSnapshotsHistogramsBucketExact(t *testing.T) {
	key := HistKey{Name: "lat_ns", Label: "op", Value: "PUT"}
	h1 := metrics.NewHistogram()
	h2 := metrics.NewHistogram()
	combined := metrics.NewHistogram()
	for i := 0; i < 200; i++ {
		v := float64(100 + i*37)
		combined.Observe(v)
		if i%2 == 0 {
			h1.Observe(v)
		} else {
			h2.Observe(v)
		}
	}
	snap := MergeSnapshots(testDescs, []Snapshot{
		{Values: []float64{1, 2, 3}, Hists: []Hist{{Key: key, H: h1}}},
		{Values: []float64{4, 5, 6}, Hists: []Hist{{Key: key, H: h2}}},
	})
	if snap.Values[0] != 5 { // AggSum
		t.Fatalf("ops = %v, want 5", snap.Values[0])
	}
	if snap.Values[1] != 5 { // AggMax
		t.Fatalf("clock = %v, want 5", snap.Values[1])
	}
	if snap.Values[2] != 4.5 { // AggMean
		t.Fatalf("util = %v, want 4.5", snap.Values[2])
	}
	if len(snap.Hists) != 1 {
		t.Fatalf("merged hists = %d, want 1", len(snap.Hists))
	}
	got := snap.Hists[0].H.CumulativeBuckets()
	want := combined.CumulativeBuckets()
	if len(got) != len(want) {
		t.Fatalf("bucket layouts differ")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: merged %+v, combined %+v", i, got[i], want[i])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	h := metrics.NewHistogram()
	h.Observe(1500)
	h.Observe(2500)
	snap := Snapshot{
		Values: []float64{12, 3400, 0.25},
		Hists:  []Hist{{Key: HistKey{Name: "lat_ns", Label: "op", Value: "PUT"}, H: h}},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "bandslim", testDescs, snap, map[string]string{"lat_ns": "latency"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# HELP bandslim_ops_total operations completed",
		"# TYPE bandslim_ops_total counter",
		"bandslim_ops_total 12",
		"# TYPE bandslim_clock_ns gauge",
		"bandslim_clock_ns 3400",
		"bandslim_util 0.25",
		"# HELP bandslim_lat_ns latency",
		"# TYPE bandslim_lat_ns histogram",
		`bandslim_lat_ns_bucket{op="PUT",le="+Inf"} 2`,
		`bandslim_lat_ns_sum{op="PUT"} 4000`,
		`bandslim_lat_ns_count{op="PUT"} 2`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Cumulative le buckets are monotone and every finite bucket precedes +Inf.
	var infSeen bool
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
		} else if infSeen && strings.Contains(line, "_bucket{") {
			t.Fatalf("finite bucket after +Inf: %s", line)
		}
	}

	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheus(&buf2, "bandslim", testDescs, snap, map[string]string{"lat_ns": "latency"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WritePrometheus is not byte-stable across renders")
	}
}

func TestWritePrometheusEmptyHistogram(t *testing.T) {
	snap := Snapshot{
		Values: []float64{0, 0, 0},
		Hists:  []Hist{{Key: HistKey{Name: "lat_ns"}, H: metrics.NewHistogram()}},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "x", testDescs, snap, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`x_lat_ns_bucket{le="+Inf"} 0`,
		"x_lat_ns_sum 0",
		"x_lat_ns_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty-histogram output missing %q:\n%s", want, out)
		}
	}
	// No finite buckets for an empty distribution.
	if strings.Count(out, "_bucket") != 1 {
		t.Fatalf("empty histogram emitted finite buckets:\n%s", out)
	}
}

func TestWriteCSVShape(t *testing.T) {
	src := &fakeSource{}
	s := NewSampler(sim.Duration(sim.Microsecond), testDescs, src.snapshot)
	h := metrics.NewHistogram()
	h.Observe(777)
	src.ops, src.clock, src.util = 10, 1000, 0.5
	src.hists = []Hist{{Key: HistKey{Name: "lat_ns", Label: "op", Value: "PUT"}, H: h}}
	s.Poll(sim.Time(sim.Microsecond))

	var buf bytes.Buffer
	if err := WriteCSV(&buf, s.Series()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 samples", len(lines))
	}
	header := strings.Split(lines[0], ",")
	wantHeader := []string{
		"t_us", "ops", "clock_ns", "util", "ops_per_sec",
		"lat_ns.PUT_count", "lat_ns.PUT_mean", "lat_ns.PUT_p50", "lat_ns.PUT_p99",
	}
	if len(header) != len(wantHeader) {
		t.Fatalf("header = %v, want %v", header, wantHeader)
	}
	for i := range header {
		if header[i] != wantHeader[i] {
			t.Fatalf("header[%d] = %q, want %q", i, header[i], wantHeader[i])
		}
	}
	// The t=0 row has zero scalars and zero histogram columns (key unseen).
	row0 := strings.Split(lines[1], ",")
	for i, f := range row0 {
		if f != "0" {
			t.Fatalf("t=0 row field %d = %q, want 0", i, f)
		}
	}
	row1 := strings.Split(lines[2], ",")
	if row1[0] != "1" || row1[1] != "10" || row1[4] != "1e+07" {
		t.Fatalf("t=1us row = %v", row1)
	}
	if row1[5] != "1" || row1[6] != "777" {
		t.Fatalf("histogram columns = %v", row1[5:])
	}

	// Determinism across renders.
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, s.Series()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteCSV is not byte-stable across renders")
	}
}
