package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("Value = %d, want 6", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestWelfordMeanVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty Welford must report zeros")
	}
	w.Observe(3)
	if w.Mean() != 3 || w.Min() != 3 || w.Max() != 3 {
		t.Fatal("single-sample stats wrong")
	}
}

// Property: Welford mean always equals the arithmetic mean within float
// tolerance, and min/max bracket every sample.
func TestWelfordMatchesNaiveMean(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, s := range samples {
			x := float64(s)
			w.Observe(x)
			sum += x
		}
		naive := sum / float64(len(samples))
		if math.Abs(w.Mean()-naive) > 1e-6*(1+math.Abs(naive)) {
			return false
		}
		return w.Min() <= naive && naive <= w.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..10000 uniformly: median should be ~5000 within bucket resolution.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if p := h.P50(); p < 4300 || p > 5800 {
		t.Fatalf("P50 = %v, want ~5000", p)
	}
	if p := h.P99(); p < 9000 || p > 11000 {
		t.Fatalf("P99 = %v, want ~9900", p)
	}
	if h.w.Min() != 1 || h.Max() != 10000 {
		t.Fatalf("Min/Max = %v/%v", h.w.Min(), h.Max())
	}
}

func TestHistogramEdgeQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Observe(100)
	h.Observe(200)
	if h.Quantile(0) != 100 {
		t.Fatalf("q=0 should be min, got %v", h.Quantile(0))
	}
	if h.Quantile(1) != 200 {
		t.Fatalf("q=1 should be max, got %v", h.Quantile(1))
	}
}

func TestHistogramTinySamples(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.25) // below the smallest bound
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q > 1 {
		t.Fatalf("sub-minimum sample quantile = %v", q)
	}
}

// Property: for constant streams the quantile lies within one bucket (±9%)
// of the constant.
func TestHistogramConstantStreamProperty(t *testing.T) {
	f := func(v uint32, n uint8) bool {
		x := float64(v%1000000) + 1
		h := NewHistogram()
		for i := 0; i < int(n)+1; i++ {
			h.Observe(x)
		}
		q := h.Quantile(0.5)
		return q >= x/1.1 && q <= x*1.1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	var a, b, whole Welford
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9, 1, 13, 0.5, 21}
	for i, x := range samples {
		whole.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged Count = %d, want %d", a.Count(), whole.Count())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Fatalf("merged Mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Observe(5)
	a.Merge(&b) // empty other: no-op
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merging empty changed the accumulator")
	}
	b.Merge(&a) // empty receiver: adopts other
	if b.Count() != 1 || b.Mean() != 5 || b.Min() != 5 || b.Max() != 5 {
		t.Fatal("empty receiver did not adopt other")
	}
	a.Merge(nil)
	if a.Count() != 1 {
		t.Fatal("nil merge changed the accumulator")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b, whole := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 10000; i++ {
		x := float64(i)
		whole.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Observe(0.25) // exercise the under-range bucket
	whole.Observe(0.25)
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged Count = %d, want %d", a.Count(), whole.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("merged Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("merged Mean = %v, want %v", a.Mean(), whole.Mean())
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	h.Observe(100)
	c := h.Clone()
	h.Observe(200)
	if c.Count() != 1 || c.Max() != 100 {
		t.Fatal("clone not independent of original")
	}
	if h.Count() != 2 {
		t.Fatal("original lost samples")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{4 * 1024 * 1024 * 1024, "4.00 GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// A single-sample histogram's quantile estimates must collapse to that
// sample: the bucket midpoint of a sparse top (or bottom) bucket would
// otherwise exceed the observed max or undershoot the min, corrupting P99
// columns in exported series.
func TestQuantileClampedToObservedRange(t *testing.T) {
	h := NewHistogram()
	h.Observe(100)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		if got := h.Quantile(q); got != 100 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 100", q, got)
		}
	}
	// Sub-minimum bucket path: a sample below the first bound.
	lo := NewHistogram()
	lo.Observe(0.25)
	if got := lo.P50(); got != 0.25 {
		t.Fatalf("sub-range P50 = %v, want 0.25", got)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHistogram()
		x := float64(seed%100000) + 1
		h.Observe(x)
		h.Observe(x * 1.5)
		h.Observe(x * 7)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.w.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Merging N split streams must be indistinguishable from observing one
// combined stream — the invariant the per-shard series merge relies on.
func TestSplitMergeMatchesCombined(t *testing.T) {
	const parts = 4
	samples := make([]float64, 0, 1000)
	v := 11.0
	for i := 0; i < 1000; i++ {
		v = math.Mod(v*1.618+3, 5e6) + 1
		samples = append(samples, v)
	}

	combined := NewHistogram()
	split := make([]*Histogram, parts)
	for i := range split {
		split[i] = NewHistogram()
	}
	var combinedW Welford
	splitW := make([]Welford, parts)
	var total int64
	partC := make([]Counter, parts)
	for i, x := range samples {
		combined.Observe(x)
		combinedW.Observe(x)
		split[i%parts].Observe(x)
		splitW[i%parts].Observe(x)
		partC[i%parts].Inc()
	}
	merged := NewHistogram()
	var mergedW Welford
	for i := range split {
		merged.Merge(split[i])
		mergedW.Merge(&splitW[i])
		total += partC[i].Value()
	}

	if total != combined.Count() || merged.Count() != combined.Count() {
		t.Fatalf("counts: counter sum %d, merged %d, combined %d", total, merged.Count(), combined.Count())
	}
	mb, cb := merged.CumulativeBuckets(), combined.CumulativeBuckets()
	if len(mb) != len(cb) {
		t.Fatalf("bucket layouts differ: %d vs %d", len(mb), len(cb))
	}
	for j := range mb {
		if mb[j] != cb[j] {
			t.Fatalf("bucket %d: merged %+v, combined %+v", j, mb[j], cb[j])
		}
	}
	if merged.w.Min() != combined.w.Min() || merged.Max() != combined.Max() {
		t.Fatalf("extremes: merged [%v, %v], combined [%v, %v]",
			merged.w.Min(), merged.Max(), combined.w.Min(), combined.Max())
	}
	if mergedW.Count() != combinedW.Count() {
		t.Fatalf("welford counts: %d vs %d", mergedW.Count(), combinedW.Count())
	}
	if d := math.Abs(mergedW.Mean() - combinedW.Mean()); d > 1e-6*math.Abs(combinedW.Mean()) {
		t.Fatalf("welford means diverge: %v vs %v", mergedW.Mean(), combinedW.Mean())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if merged.Quantile(q) != combined.Quantile(q) {
			t.Fatalf("Quantile(%v): merged %v, combined %v", q, merged.Quantile(q), combined.Quantile(q))
		}
	}
}

func TestCumulativeBucketsShape(t *testing.T) {
	h := NewHistogram()
	if b := h.CumulativeBuckets(); b[len(b)-1].Count != 0 || !math.IsInf(b[len(b)-1].UpperBound, 1) {
		t.Fatalf("empty histogram tail bucket = %+v", b[len(b)-1])
	}
	h.Observe(10)
	h.Observe(1e9)
	b := h.CumulativeBuckets()
	prev := int64(0)
	for _, bk := range b {
		if bk.Count < prev {
			t.Fatalf("cumulative counts decreased at le=%v", bk.UpperBound)
		}
		prev = bk.Count
	}
	if b[len(b)-1].Count != 2 {
		t.Fatalf("tail count = %d, want 2", b[len(b)-1].Count)
	}
	if h.Sum() != 10+1e9 {
		t.Fatalf("Sum = %v", h.Sum())
	}
}

// histSink makes the histograms TestHistogramAllocs builds escape, as a
// caller's would.
var histSink *Histogram

// Every histogram shares one read-only bounds array and keeps its buckets
// inline, so a new histogram or a clone is one allocation.
func TestHistogramAllocs(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	for name, f := range map[string]func(){
		"NewHistogram": func() { histSink = NewHistogram() },
		"Clone":        func() { histSink = h.Clone() },
	} {
		if n := testing.AllocsPerRun(1, func() {
			for range 100 {
				f()
			}
		}); n != 100 {
			t.Errorf("%s: %v allocations in 100 calls, want 100", name, n)
		}
	}
	// histN is the count of bounds from histMin, growing by histGrowth, that
	// fall below histMax.
	if last := histBounds[histN-1]; last >= histMax || last*histGrowth < histMax {
		t.Errorf("histN = %d does not end the bounds at histMax: last %g", histN, last)
	}
}
