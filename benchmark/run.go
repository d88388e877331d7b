package main

// One workload run: timedReps x (set-up, timed pass), then (set-up, traced
// pass), then the layer ladder. Workloads run one after the other and every
// stack is closed and its memory returned before the next opens
// (fill_mixgraph alone keeps hundreds of MB of simulated NAND alive).

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"bandslim"
)

type options struct {
	seed    uint64
	seconds float64
	scale   float64
	// trace selects what a run measures and reports: 0 the end-to-end
	// metrics (timedReps timed passes + the traced pass), 1 the per-layer
	// metrics (one timed pass + the traced pass + the ladder), 2 both.
	trace int
}

// setup_s is the median over a run's untraced set-ups. One set-up per timed
// pass is too few: fill_mixgraph's takes 30 ms and spread by 0.26 over ten
// seeds, read_cold_uniform's 0.9 s and spread by 0.15. So before each timed
// pass set-ups are repeated until they add up to setupSampleTime, at most
// maxSetups of them, and the pass runs on the last: 15 samples of a set-up
// under 0.2 s, 6 of a set-up over 0.5 s. Sampling before every pass, not in
// one block, spreads the samples over the run: the box's speed drifts over
// seconds.
const (
	setupSampleTime = time.Second
	maxSetups       = 5
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the interquartile range of the per-rep samples as a share of
	// their median; absent for single-sample (simulated, per-layer) metrics.
	Spread  float64   `json:"spread,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type workloadResult struct {
	Name             string                 `json:"name"`
	Exact            bool                   `json:"exact"`
	StreamDigest     string                 `json:"stream_digest"`
	ExpositionDigest string                 `json:"exposition_digest"`
	Ops              int64                  `json:"ops_per_pass"`
	OpsAttempted     int64                  `json:"ops_attempted"`
	OpsFailed        int64                  `json:"ops_failed"`
	Correct          bool                   `json:"correct"`
	Problems         []string               `json:"problems,omitempty"`
	EndToEnd         map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer         map[string]metricValue `json:"per_layer,omitempty"`
}

// prepared is one opened, loaded stack with its input.
type prepared struct {
	in             *instance
	st             *stack
	setup          time.Duration
	vlogFreeAtOpen float64
}

// prepare is the set-up the setup_s metric times: stream generation, open,
// load, Flush.
func prepare(w *workload, o options, tr bandslim.Tracer) (*prepared, error) {
	t0 := time.Now()
	p := &prepared{in: w.build(o.seed, o.seconds, o.scale)}
	st, err := open(w.stack, w.config(), shards, len(p.in.callers), tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		p.vlogFreeAtOpen = st.gauges()["vlog_free_bytes"]
	}
	if err := st.load(p.in); err != nil {
		st.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	p.st, p.setup = st, time.Since(t0)
	return p, nil
}

// release closes the stack and drops it. The heap is not handed back to the
// OS between the passes of one workload: re-faulting a few hundred MB per pass
// made set-up and fill times follow the hypervisor's memory state (a 40 ms
// set-up jumped to 60 ms for minutes), and a long-running process has a warm
// heap anyway.
func (p *prepared) release() error {
	err := p.st.close()
	p.st, p.in = nil, nil
	return err
}

// readBack verifies a write-only stream after its pass, outside the measured
// region: every sampled Put is read and checked against its generated value.
func readBack(w *workload, p *prepared) (attempted, failed int64) {
	c := newCaller(0, w.valueSize)
	for _, s := range p.in.callers {
		for _, o := range s {
			if o.kind != opPut {
				return 0, 0 // the stream verifies itself
			}
			if !o.sampled {
				continue
			}
			attempted++
			v, err := p.st.kv.GetInto(putKey(c.key[:], o.key), c.dst)
			if err != nil || !checkValue(o.key, v, int(o.size), &c.chk) {
				failed++
				continue
			}
			c.dst = v
		}
	}
	return attempted, failed
}

func runWorkload(w *workload, o options, sl *spanLog) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Exact: w.exact, Correct: true}
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	root := sl.begin("run."+w.name, 0, 0)
	defer sl.end(root)

	reps := timedReps
	if o.trace == 1 {
		reps = 1
	}
	samples := map[string][]float64{}
	var digest uint64
	var lastTimed *passResult
	account := func(p *prepared, pass *passResult) {
		res.Ops = pass.ops
		a, f := readBack(w, p)
		res.OpsAttempted += pass.ops + a
		res.OpsFailed += pass.failed + f
		if d := p.in.digest(); digest == 0 {
			digest = d
		} else if d != digest {
			problem("stream digest changed between set-ups: %016x vs %016x", digest, d)
		}
	}
	for r := 0; r < reps; r++ {
		var p *prepared
		for spent, n := time.Duration(0), 1; ; n++ {
			id := sl.begin("setup", root, 0)
			next, err := prepare(w, o, nil)
			sl.end(id)
			if err != nil {
				return nil, err
			}
			samples["setup_s"] = append(samples["setup_s"], next.setup.Seconds())
			if spent += next.setup; o.trace == 1 || spent >= setupSampleTime || n == maxSetups {
				p = next
				break
			}
			if err := next.release(); err != nil {
				return nil, err
			}
		}
		id := sl.begin("pass.timed", root, 0)
		pass, err := runPass(w, p.in, p.st, nil, sl, id)
		sl.end(id)
		if err != nil {
			p.release()
			return nil, err
		}
		account(p, pass)
		for k, v := range hostMetrics(pass) {
			samples[k] = append(samples[k], v)
		}
		lastTimed = pass
		if err := p.release(); err != nil {
			return nil, err
		}
	}

	sk := &sink{}
	id := sl.begin("setup", root, 0)
	p, err := prepare(w, o, sk)
	sl.end(id)
	if err != nil {
		return nil, err
	}
	id = sl.begin("pass.traced", root, 0)
	traced, err := runPass(w, p.in, p.st, sk, sl, id)
	sl.end(id)
	if err != nil {
		p.release()
		return nil, err
	}
	account(p, traced) // its set-up also fills the sink with the load's events and is not a setup_s sample
	var written int64
	for _, streams := range [][][]op{p.in.load, p.in.callers} {
		for _, s := range streams {
			for _, op := range s {
				if op.kind == opPut {
					written += int64(op.size)
				}
			}
		}
	}
	vlogFreeAtOpen := p.vlogFreeAtOpen
	if err := p.release(); err != nil {
		return nil, err
	}
	res.StreamDigest = fmt.Sprintf("%016x", digest)
	res.ExpositionDigest = fmt.Sprintf("%016x", traced.promDigest)
	if w.exact {
		if !sameCounters(lastTimed.after, traced.after) {
			problem("timed and traced passes ended with different Stats() counters")
		}
		if lastTimed.promDigest != traced.promDigest {
			problem("timed and traced passes ended with different WritePrometheus digests: %016x vs %016x", lastTimed.promDigest, traced.promDigest)
		}
	}
	if res.OpsFailed > 0 {
		problem("%d of %d ops failed", res.OpsFailed, res.OpsAttempted)
	}

	if o.trace != 1 {
		res.EndToEnd = map[string]metricValue{}
		sim := simMetrics(traced, written, w.config().Device.Geometry.PageSize)
		for _, d := range endToEnd {
			if v, ok := sim[d.Name]; ok {
				res.EndToEnd[d.Name] = metricValue{Value: v, Unit: d.Unit}
				continue
			}
			s := samples[d.Name]
			res.EndToEnd[d.Name] = metricValue{Value: median(s), Unit: d.Unit, Spread: spread(s), Samples: s}
		}
	}
	if o.trace != 0 {
		id := sl.begin("ladder", root, 0)
		rungs, err := runLadder(w, o.seed, o.scale, sl, id)
		sl.end(id)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		vals := layerCounters(traced, vlogFreeAtOpen)
		for k, v := range hostLayer(lastTimed) {
			vals[k] = v
		}
		vals["host.trace_overhead_ratio"] = ratio(float64(traced.wall), float64(lastTimed.wall))
		for k, v := range rungs {
			vals[k] = v
		}
		res.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			v, ok := vals[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			res.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	debug.FreeOSMemory() // the next workload starts from a small process
	return res, nil
}

// print lists every metric by name with its unit.
func (r *workloadResult) print() {
	fmt.Printf("== %s  stream=%s exposition=%s ops/pass=%d attempted=%d failed=%d correct=%v\n",
		r.Name, r.StreamDigest, r.ExpositionDigest, r.Ops, r.OpsAttempted, r.OpsFailed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			fmt.Printf("%-20s %-34s %16.6g %-7s spread %.4f\n", r.Name, d.Name, m.Value, m.Unit, m.Spread)
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for n := range r.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.PerLayer[n]
		fmt.Printf("%-20s %-34s %16.6g %s\n", r.Name, n, m.Value, m.Unit)
	}
}
