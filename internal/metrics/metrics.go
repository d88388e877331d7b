// Package metrics provides the counters and streaming statistics used across
// the simulator: byte/op counters, latency distributions with percentile
// estimation, and helpers for formatting the tables the benchmark harness
// prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing tally (bytes, ops, pages, ...).
type Counter struct {
	v int64
}

// Add increases the counter by n. Negative n panics: counters only grow.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative value")
	}
	c.v += n
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value reports the current tally.
func (c *Counter) Value() int64 { return c.v }

// Welford accumulates the mean and extremes online without storing samples.
type Welford struct {
	n    int64
	mean float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.mean += (x - w.mean) / float64(w.n)
}

// Count reports the number of samples observed.
func (w *Welford) Count() int64 { return w.n }

// Mean reports the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Min reports the smallest sample (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest sample (0 with no samples).
func (w *Welford) Max() float64 { return w.max }

// Sum reports the total of all samples (mean × count).
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Merge folds other's samples into w, as if every sample had been observed
// on w directly (the parallel-run combination of Chan et al.). Used to
// aggregate per-shard accumulators into one distribution.
func (w *Welford) Merge(other *Welford) {
	if other == nil || other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.mean += d * float64(other.n) / float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

// Histogram records samples into exponentially sized buckets and can report
// approximate percentiles. It is designed for latency values in nanoseconds:
// buckets grow by ~8% so percentile error stays under a few percent.
type Histogram struct {
	bounds  []float64    // histBounds, shared and read-only
	buckets [histN]int64 // bucket i holds [bounds[i], bounds[i+1]); the last is open above
	under   int64        // samples below bounds[0]
	w       Welford
}

const (
	histMin    = 1.0     // 1 ns
	histMax    = 1e12    // 1000 s
	histGrowth = 1.08006 // ~8% per bucket
	histN      = 359     // bounds from histMin, each histGrowth times the last, below histMax
)

// histBounds is the one bucket layout every histogram shares: built once,
// never written.
var histBounds = func() (bounds [histN]float64) {
	b := histMin
	for i := range bounds {
		bounds[i] = b
		b *= histGrowth
	}
	return bounds
}()

// NewHistogram returns an empty histogram covering 1ns..1000s.
func NewHistogram() *Histogram { return &Histogram{bounds: histBounds[:]} }

// Observe records one sample (e.g. nanoseconds).
func (h *Histogram) Observe(x float64) {
	h.w.Observe(x)
	if x < h.bounds[0] {
		h.under++
		return
	}
	// First bound strictly greater than x; bucket i-1 holds [bounds[i-1], bounds[i]).
	i := sort.Search(len(h.bounds), func(j int) bool { return h.bounds[j] > x })
	h.buckets[i-1]++
}

// Count reports the number of samples recorded.
func (h *Histogram) Count() int64 { return h.w.Count() }

// Mean reports the exact sample mean.
func (h *Histogram) Mean() float64 { return h.w.Mean() }

// Max reports the exact sample maximum.
func (h *Histogram) Max() float64 { return h.w.Max() }

// Sum reports the exact total of all samples.
func (h *Histogram) Sum() float64 { return h.w.Sum() }

// Bucket is one cumulative histogram bucket: Count samples were observed
// strictly below UpperBound. The final bucket has UpperBound = +Inf and
// Count equal to the total sample count.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// CumulativeBuckets renders the histogram as Prometheus-style cumulative
// buckets over the fixed exponential layout: one entry per bucket boundary
// plus the +Inf bucket. Every histogram shares the layout, so two
// histograms are sample-equivalent iff their cumulative buckets are equal.
func (h *Histogram) CumulativeBuckets() []Bucket {
	out := make([]Bucket, 0, len(h.bounds)+1)
	cum := h.under
	out = append(out, Bucket{UpperBound: h.bounds[0], Count: cum})
	for j := 1; j < len(h.bounds); j++ {
		cum += h.buckets[j-1]
		out = append(out, Bucket{UpperBound: h.bounds[j], Count: cum})
	}
	out = append(out, Bucket{UpperBound: math.Inf(1), Count: h.w.Count()})
	return out
}

// Quantile reports an approximate q-quantile (q in [0,1]) from the buckets.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.w.Count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.w.Min()
	}
	if q >= 1 {
		return h.w.Max()
	}
	target := int64(q * float64(n))
	cum := h.under
	if cum > target {
		return h.clamp(h.bounds[0] / 2)
	}
	for i, c := range &h.buckets {
		cum += c
		if cum > target {
			// Bucket i holds samples in [bounds[i], bounds[i+1]).
			lo := h.bounds[i]
			hi := histMax
			if i+1 < len(h.bounds) {
				hi = h.bounds[i+1]
			}
			return h.clamp((lo + hi) / 2)
		}
	}
	return h.w.Max()
}

// clamp bounds a bucket-midpoint estimate by the exact observed extremes: a
// sparsely populated top (or bottom) bucket's midpoint can exceed the
// observed max (or undershoot the min), which would corrupt percentile
// columns in exported series.
func (h *Histogram) clamp(est float64) float64 {
	if h.w.Count() == 0 {
		return est
	}
	if est < h.w.Min() {
		est = h.w.Min()
	}
	if est > h.w.Max() {
		est = h.w.Max()
	}
	return est
}

// P50 reports the approximate median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P99 reports the approximate 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge folds other's samples into h. Every histogram shares the fixed
// exponential bucket layout, so merging is bucketwise addition plus a
// Welford merge; percentiles of the merged histogram are exactly what a
// single histogram observing both sample streams would report.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, c := range &other.buckets {
		h.buckets[i] += c
	}
	h.under += other.under
	h.w.Merge(&other.w)
}

// Clone returns an independent copy of the histogram — a point-in-time
// snapshot safe to merge or query after the original keeps accumulating.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram()
	c.Merge(h)
	return c
}

// HistogramSet keys histograms by label (an opcode, a transfer method),
// creating them on first observation. Iteration order is insertion order, so
// exports built from a deterministic run are themselves deterministic. A set
// holds a handful of labels, so a lookup scans them. The zero value is an
// empty set.
type HistogramSet struct {
	hs []namedHistogram // in first-observation order
}

type namedHistogram struct {
	name string
	h    *Histogram
}

// NewHistogramSet returns an empty set.
func NewHistogramSet() *HistogramSet { return &HistogramSet{} }

// Observe records one sample under name, creating the histogram if needed.
func (s *HistogramSet) Observe(name string, x float64) {
	h := s.Get(name)
	if h == nil {
		h = NewHistogram()
		s.hs = append(s.hs, namedHistogram{name, h})
	}
	h.Observe(x)
}

// Get returns the histogram for name, or nil if nothing was observed under
// it.
func (s *HistogramSet) Get(name string) *Histogram {
	for i := range s.hs {
		if s.hs[i].name == name {
			return s.hs[i].h
		}
	}
	return nil
}

// Names lists the labels in first-observation order.
func (s *HistogramSet) Names() []string {
	names := make([]string, len(s.hs))
	for i, nh := range s.hs {
		names[i] = nh.name
	}
	return names
}

// FormatBytes renders a byte count with a binary-unit suffix ("3.88 GiB").
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
