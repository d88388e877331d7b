// Package timeseries samples the simulator's cumulative statistics on the
// simulated clock and renders the resulting per-metric series for export.
//
// A Sampler polls a snapshot source whenever the simulated clock crosses a
// boundary of its fixed interval, producing one Sample per boundary: the
// scalar metric values declared by a Desc table plus point-in-time clones of
// the latency histograms. Because the clock only advances while operations
// execute, sample k records the counter state at the first operation
// boundary at or after t = k·interval; a quiet stretch of simulated time
// repeats the previous values, which is exactly what a trajectory plot
// should show.
//
// Per-shard series produced from the same Desc table and interval merge on
// the simulated-time axis with MergeSeries: counters and sums add, gauges
// aggregate per their declared mode, and histograms merge bucket-exactly
// via metrics.Histogram.Merge. Everything here is a pure function of the
// samples, so a deterministic simulation yields byte-identical exports.
package timeseries

import (
	"fmt"

	"bandslim/internal/metrics"
	"bandslim/internal/sim"
)

// Kind distinguishes how a scalar metric accumulates.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing cumulative tally.
	KindCounter Kind = iota
	// KindGauge is an instantaneous reading that can move both ways.
	KindGauge
)

// Agg selects how per-shard readings of one metric combine when series or
// snapshots merge.
type Agg uint8

const (
	// AggSum adds readings (byte ledgers, op counts, free space).
	AggSum Agg = iota
	// AggMax keeps the largest reading (clocks, wear).
	AggMax
	// AggMean averages readings over all shards (utilizations).
	AggMean
)

// Desc declares one scalar metric: its series/CSV column name (snake_case,
// unprefixed), kind, cross-shard aggregation, and Prometheus HELP text.
type Desc struct {
	Name string
	Kind Kind
	Agg  Agg
	Help string
}

// HistKey identifies one latency distribution: a metric family name plus an
// optional label pair, e.g. {op_round_trip_ns, op, PUT}.
type HistKey struct {
	Name  string
	Label string
	Value string
}

// Hist pairs a key with a point-in-time histogram clone.
type Hist struct {
	Key HistKey
	H   *metrics.Histogram
}

// Snapshot is one reading of every instrumented metric: scalar values
// parallel to the Desc table plus cloned latency histograms. Sources hand
// out clones, so a Snapshot never races with the live accumulators.
type Snapshot struct {
	Values []float64
	Hists  []Hist
}

// Sample is one recorded Snapshot stamped with its nominal boundary time.
// When one operation crosses several boundaries, the boundaries share the
// underlying slices; treat samples as read-only.
type Sample struct {
	T      sim.Time
	Values []float64
	Hists  []Hist
}

// Series is a recorded sequence of samples on a fixed simulated-time grid:
// sample i sits at T = i·Interval, starting from a zero-state sample at
// t = 0. HistKeys lists every distribution seen, in first-observation order
// (early samples may lack later keys; exports treat missing keys as empty).
type Series struct {
	Interval sim.Duration
	Descs    []Desc
	HistKeys []HistKey
	Samples  []Sample
}

// Len reports the number of samples.
func (s Series) Len() int { return len(s.Samples) }

// histAt finds one sample's histogram for key, or nil if the key had not
// been observed yet at that sample.
func histAt(sm Sample, key HistKey) *metrics.Histogram {
	for _, h := range sm.Hists {
		if h.Key == key {
			return h.H
		}
	}
	return nil
}

// Sampler polls a snapshot source whenever the simulated clock crosses a
// boundary of its interval. It is not internally synchronized: each shard
// of a bandslim.DB serializes its sampler's polls under its mutex.
type Sampler struct {
	interval sim.Duration
	source   func() Snapshot
	next     sim.Time
	series   Series
	seen     map[HistKey]struct{}
}

// NewSampler starts a sampler on the given interval (> 0) and records the
// initial t = 0 sample immediately.
func NewSampler(interval sim.Duration, descs []Desc, source func() Snapshot) *Sampler {
	if interval <= 0 {
		panic(fmt.Sprintf("timeseries: NewSampler interval must be > 0, got %v", interval))
	}
	s := &Sampler{
		interval: interval,
		source:   source,
		series:   Series{Interval: interval, Descs: descs},
		seen:     make(map[HistKey]struct{}),
	}
	s.record(0, source())
	s.next = sim.Time(interval)
	return s
}

// Poll records one sample per interval boundary crossed since the last
// call. The fast path (no boundary crossed) is a single comparison.
func (s *Sampler) Poll(now sim.Time) {
	if now < s.next {
		return
	}
	snap := s.source()
	for now >= s.next {
		s.record(s.next, snap)
		s.next = s.next.Add(s.interval)
	}
}

func (s *Sampler) record(t sim.Time, snap Snapshot) {
	if len(snap.Values) != len(s.series.Descs) {
		panic(fmt.Sprintf("timeseries: snapshot has %d values, Desc table has %d",
			len(snap.Values), len(s.series.Descs)))
	}
	for _, h := range snap.Hists {
		if _, ok := s.seen[h.Key]; !ok {
			s.seen[h.Key] = struct{}{}
			s.series.HistKeys = append(s.series.HistKeys, h.Key)
		}
	}
	s.series.Samples = append(s.series.Samples, Sample{T: t, Values: snap.Values, Hists: snap.Hists})
}

// Series returns the recorded series. The header slices are copied; samples
// share value slices and histogram clones with the sampler's history, which
// is append-only — treat them as read-only.
func (s *Sampler) Series() Series {
	out := s.series
	out.Descs = append([]Desc(nil), s.series.Descs...)
	out.HistKeys = append([]HistKey(nil), s.series.HistKeys...)
	out.Samples = append([]Sample(nil), s.series.Samples...)
	return out
}

// MergeSnapshots folds per-shard snapshots taken against the same Desc
// table into one aggregate: scalars combine per their Agg mode, histograms
// merge bucket-exactly by key (key order: shard index, then
// first-observation order within the shard).
func MergeSnapshots(descs []Desc, snaps []Snapshot) Snapshot {
	vals := make([]float64, len(descs))
	if len(snaps) == 0 {
		return Snapshot{Values: vals}
	}
	for i, d := range descs {
		switch d.Agg {
		case AggSum:
			for _, sn := range snaps {
				vals[i] += sn.Values[i]
			}
		case AggMax:
			vals[i] = snaps[0].Values[i]
			for _, sn := range snaps[1:] {
				if sn.Values[i] > vals[i] {
					vals[i] = sn.Values[i]
				}
			}
		case AggMean:
			for _, sn := range snaps {
				vals[i] += sn.Values[i]
			}
			vals[i] /= float64(len(snaps))
		}
	}
	var keys []HistKey
	seen := make(map[HistKey]struct{})
	for _, sn := range snaps {
		for _, h := range sn.Hists {
			if _, ok := seen[h.Key]; !ok {
				seen[h.Key] = struct{}{}
				keys = append(keys, h.Key)
			}
		}
	}
	hists := make([]Hist, 0, len(keys))
	for _, k := range keys {
		m := metrics.NewHistogram()
		for _, sn := range snaps {
			for _, h := range sn.Hists {
				if h.Key == k {
					m.Merge(h.H)
				}
			}
		}
		hists = append(hists, Hist{Key: k, H: m})
	}
	return Snapshot{Values: vals, Hists: hists}
}

// MergeSeries combines per-shard series recorded on the same interval and
// Desc table onto one simulated-time axis. The merged series spans the
// longest part; a shard whose clock stopped earlier contributes its final
// sample to later boundaries (its counters stay flat once it goes idle).
// With a single part the merge is the identity on every counter metric.
func MergeSeries(parts ...Series) Series {
	if len(parts) == 0 {
		return Series{}
	}
	base := parts[0]
	maxLen := 0
	for _, p := range parts {
		if p.Interval != base.Interval {
			panic(fmt.Sprintf("timeseries: MergeSeries interval mismatch: %v vs %v", p.Interval, base.Interval))
		}
		if len(p.Samples) > maxLen {
			maxLen = len(p.Samples)
		}
	}
	out := Series{
		Interval: base.Interval,
		Descs:    append([]Desc(nil), base.Descs...),
	}
	seen := make(map[HistKey]struct{})
	for _, p := range parts {
		for _, k := range p.HistKeys {
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				out.HistKeys = append(out.HistKeys, k)
			}
		}
	}
	snaps := make([]Snapshot, 0, len(parts))
	for i := 0; i < maxLen; i++ {
		snaps = snaps[:0]
		for _, p := range parts {
			if len(p.Samples) == 0 {
				continue
			}
			j := i
			if j >= len(p.Samples) {
				j = len(p.Samples) - 1
			}
			sm := p.Samples[j]
			snaps = append(snaps, Snapshot{Values: sm.Values, Hists: sm.Hists})
		}
		merged := MergeSnapshots(out.Descs, snaps)
		out.Samples = append(out.Samples, Sample{
			T:      sim.Time(int64(base.Interval) * int64(i)),
			Values: merged.Values,
			Hists:  merged.Hists,
		})
	}
	return out
}
