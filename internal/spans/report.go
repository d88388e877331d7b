// Aggregation and rendering over reconstructed operations: per-opcode ×
// per-stage histograms, the top-K slowest-op forensics list, the critical-
// path digest, and the deterministic table/CSV writers the CLI and the
// TestDeterminism gate consume.
package spans

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"bandslim/internal/metrics"
	"bandslim/internal/sim"
)

// ClassSummary is the exact per-op-kind tally behind the shares the digest
// prints (histograms approximate percentiles; these sums are exact).
type ClassSummary struct {
	Name       string
	Count      int
	Commands   int
	Retries    int
	Total      sim.Duration // sum of end-to-end latencies
	StageTotal [NumStages]sim.Duration
}

// Aggregate is the distributional view of a Report: one histogram per op
// kind for end-to-end latency and for every stage, plus exact totals. Label
// order is first-observation order, so a deterministic run aggregates
// deterministically.
type Aggregate struct {
	E2E     *metrics.HistogramSet
	Stage   [NumStages]*metrics.HistogramSet
	Classes []ClassSummary
}

// Summarize folds a report's ops into histograms and exact totals. Every op
// observes every stage (zeros included), so stage histograms share their op
// kind's count and percentiles are over all ops, not just affected ones.
func Summarize(r *Report) *Aggregate {
	a := &Aggregate{E2E: metrics.NewHistogramSet()}
	for s := range a.Stage {
		a.Stage[s] = metrics.NewHistogramSet()
	}
	idx := make(map[string]int)
	for i := range r.Ops {
		op := &r.Ops[i]
		j, ok := idx[op.Name]
		if !ok {
			j = len(a.Classes)
			idx[op.Name] = j
			a.Classes = append(a.Classes, ClassSummary{Name: op.Name})
		}
		c := &a.Classes[j]
		c.Count++
		c.Commands += op.Commands
		c.Retries += op.Retries
		c.Total += op.E2E()
		a.E2E.Observe(op.Name, float64(op.E2E()))
		for s := Stage(0); s < NumStages; s++ {
			c.StageTotal[s] += op.Stages[s]
			a.Stage[s].Observe(op.Name, float64(op.Stages[s]))
		}
	}
	return a
}

// TopK returns the k slowest ops, by end-to-end latency descending with
// (Shard, Seq) breaking ties — a deterministic forensics shortlist.
func TopK(r *Report, k int) []Op {
	out := append([]Op(nil), r.Ops...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.E2E() != b.E2E() {
			return a.E2E() > b.E2E()
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// CriticalPath digests one op kind's tail: among the ops at or above the
// exact p99 end-to-end latency, which stage absorbs the largest share.
type CriticalPath struct {
	Op        string
	P99       sim.Duration // exact nearest-rank p99 of end-to-end latency
	TailCount int          // ops at or above it
	Stage     Stage        // dominant stage over those ops
	Share     float64      // its fraction of the tail ops' total latency
	TailTotal sim.Duration
	StageNS   [NumStages]sim.Duration
}

// CriticalPaths computes the per-op-kind tail digest, in first-observation
// order. Kinds with no ops are absent.
func CriticalPaths(r *Report) []CriticalPath {
	byName := make(map[string][]sim.Duration)
	var names []string
	for i := range r.Ops {
		op := &r.Ops[i]
		if _, ok := byName[op.Name]; !ok {
			names = append(names, op.Name)
		}
		byName[op.Name] = append(byName[op.Name], op.E2E())
	}
	var out []CriticalPath
	for _, name := range names {
		lats := append([]sim.Duration(nil), byName[name]...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		n := len(lats)
		// Exact nearest-rank p99: the smallest latency with at least 99% of
		// samples at or below it.
		idx := (99*n + 99) / 100
		if idx > 0 {
			idx--
		}
		p99 := lats[idx]
		cp := CriticalPath{Op: name, P99: p99}
		for i := range r.Ops {
			op := &r.Ops[i]
			if op.Name != name || op.E2E() < p99 {
				continue
			}
			cp.TailCount++
			cp.TailTotal += op.E2E()
			for s := Stage(0); s < NumStages; s++ {
				cp.StageNS[s] += op.Stages[s]
			}
		}
		best := StageHost
		for s := Stage(1); s < NumStages; s++ {
			if cp.StageNS[s] > cp.StageNS[best] {
				best = s
			}
		}
		cp.Stage = best
		if cp.TailTotal > 0 {
			cp.Share = float64(cp.StageNS[best]) / float64(cp.TailTotal)
		}
		out = append(out, cp)
	}
	return out
}

// formatFloat matches the timeseries exporters: minimal round-trippable
// digits, byte-stable for identical runs.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the per-op-kind × per-stage breakdown as one CSV table:
// an e2e row followed by one row per stage, per op kind in first-observation
// order. share is the stage's fraction of the kind's total latency; the
// distribution columns come from the stage histograms. Deterministic:
// TestDeterminism diffs this byte-for-byte.
func WriteCSV(w io.Writer, r *Report) error {
	a := Summarize(r)
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "op,stage,count,total_ns,share,mean_ns,p50_ns,p99_ns,max_ns")
	row := func(op, stage string, count int, total sim.Duration, share float64, h *metrics.Histogram) {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%s,%s,%s,%s,%s\n",
			op, stage, count, int64(total), formatFloat(share),
			formatFloat(h.Mean()), formatFloat(h.P50()), formatFloat(h.P99()), formatFloat(h.Max()))
	}
	for _, c := range a.Classes {
		share := 0.0
		if c.Total > 0 {
			share = 1.0
		}
		row(c.Name, "e2e", c.Count, c.Total, share, a.E2E.Get(c.Name))
		for s := Stage(0); s < NumStages; s++ {
			share = 0
			if c.Total > 0 {
				share = float64(c.StageTotal[s]) / float64(c.Total)
			}
			row(c.Name, s.String(), c.Count, c.StageTotal[s], share, a.Stage[s].Get(c.Name))
		}
	}
	return bw.Flush()
}

// WriteBreakdown writes the human-readable forensics report: per-op-kind
// stage table, critical-path digest, and the top-K slowest ops with their
// individual breakdowns. topK <= 0 skips the slowest-ops section.
func WriteBreakdown(w io.Writer, r *Report, topK int) error {
	bw := bufio.NewWriter(w)
	a := Summarize(r)
	fmt.Fprintf(bw, "ops reconstructed: %d", len(r.Ops))
	if r.Unclaimed > 0 {
		fmt.Fprintf(bw, "  (plus %d completed commands outside any op: flushes, scans, missed keys)", r.Unclaimed)
	}
	fmt.Fprintln(bw)
	if r.Incomplete > 0 {
		fmt.Fprintf(bw, "in-flight at stream end or lost to power cuts: %d commands\n", r.Incomplete)
	}
	for _, c := range a.Classes {
		e2e := a.E2E.Get(c.Name)
		fmt.Fprintf(bw, "\n%s: %d ops, %d commands", c.Name, c.Count, c.Commands)
		if c.Retries > 0 {
			fmt.Fprintf(bw, ", %d retries", c.Retries)
		}
		fmt.Fprintf(bw, "  e2e mean=%s p50=%s p99=%s max=%s\n",
			sim.Duration(e2e.Mean()).String(), sim.Duration(e2e.P50()).String(),
			sim.Duration(e2e.P99()).String(), sim.Duration(e2e.Max()).String())
		fmt.Fprintf(bw, "  %-12s %12s %7s %12s %12s\n", "stage", "total", "share", "mean", "p99")
		for s := Stage(0); s < NumStages; s++ {
			share := 0.0
			if c.Total > 0 {
				share = 100 * float64(c.StageTotal[s]) / float64(c.Total)
			}
			h := a.Stage[s].Get(c.Name)
			fmt.Fprintf(bw, "  %-12s %12s %6.1f%% %12s %12s\n",
				s.String(), c.StageTotal[s].String(), share,
				sim.Duration(h.Mean()).String(), sim.Duration(h.P99()).String())
		}
	}
	if cps := CriticalPaths(r); len(cps) > 0 {
		fmt.Fprintln(bw, "\ncritical path (p99 tail):")
		for _, cp := range cps {
			fmt.Fprintf(bw, "  p99 %ss (>=%s, n=%d) spend %.1f%% in %s\n",
				cp.Op, cp.P99.String(), cp.TailCount, 100*cp.Share, cp.Stage.String())
		}
	}
	if topK > 0 && len(r.Ops) > 0 {
		ops := TopK(r, topK)
		fmt.Fprintf(bw, "\ntop %d slowest ops:\n", len(ops))
		for i := range ops {
			op := &ops[i]
			fmt.Fprintf(bw, "  %2d. %s shard=%d seq=%d e2e=%s cmds=%d:",
				i+1, op.Name, op.Shard, op.Seq, op.E2E().String(), op.Commands)
			type ss struct {
				s     Stage
				share float64
			}
			var shares []ss
			for s := Stage(0); s < NumStages; s++ {
				if op.Stages[s] > 0 && op.E2E() > 0 {
					shares = append(shares, ss{s, float64(op.Stages[s]) / float64(op.E2E())})
				}
			}
			sort.SliceStable(shares, func(i, j int) bool {
				if shares[i].share != shares[j].share {
					return shares[i].share > shares[j].share
				}
				return shares[i].s < shares[j].s
			})
			for _, sh := range shares {
				fmt.Fprintf(bw, " %s %.1f%%", sh.s.String(), 100*sh.share)
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
