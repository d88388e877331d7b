package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContractFile: BENCHMARK.json lists exactly the code's workloads and
// metric tables, and stays inside the contract's caps.
func TestContractFile(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("caps: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Fatalf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("workloads: file has %d, code has %d", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: file has %d metrics, code has %d", kind, len(file), len(code))
		}
		for i, m := range file {
			unique(m.Name)
			if m != code[i] {
				t.Errorf("%s[%d]: file %+v, code %+v", kind, i, m, code[i])
			}
			if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s %s: unit %q better %q bound %v", kind, m.Name, m.Unit, m.Better, m.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != lower {
		t.Errorf("first end-to-end metric must be setup_s in s, lower: %+v", b.EndToEnd[0])
	}
	for _, m := range b.EndToEnd {
		if m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestAllWorkloads runs every workload with both passes and the ladder at
// -scale 0.01 and checks that each declared metric is emitted once, finite,
// and that no op failed.
func TestAllWorkloads(t *testing.T) {
	sl := newSpanLog()
	res := &result{Workloads: map[string]*workloadResult{}}
	for i := range workloads {
		w := &workloads[i]
		wr, err := runWorkload(w, options{seed: 42, seconds: 10, scale: 0.01, trace: 2}, sl)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !wr.Correct || wr.OpsFailed != 0 || wr.OpsAttempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, wr.Correct, wr.OpsAttempted, wr.OpsFailed, wr.Problems)
		}
		check := func(kind string, defs []metricDef, got map[string]metricValue) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", w.name, len(got), kind, len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.Name]
				if !ok {
					t.Errorf("%s: %s not emitted", w.name, d.Name)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %q", w.name, d.Name, m.Value, m.Unit)
				}
			}
		}
		check("end-to-end", endToEnd, wr.EndToEnd)
		check("per-layer", perLayer, wr.PerLayer)
		for _, n := range []string{"spans.truncated_events", "spans.residual_ns"} {
			if v := wr.PerLayer[n].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, n, v)
			}
		}
		res.Workloads[w.name] = wr
	}
	var sum struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int64                     `json:"attempted"`
		Failed    *int64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	one := &result{Workloads: map[string]*workloadResult{"w": res.Workloads[workloads[0].name]}}
	if err := json.Unmarshal([]byte(one.summaryLine()), &sum); err != nil || sum.Correct == nil || sum.Attempted == nil || sum.Failed == nil {
		t.Fatalf("summary line: %v %+v", err, sum)
	}
	if len(sum.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("summary line has %d metrics", len(sum.Metrics))
	}
	dir := t.TempDir()
	if err := writeOutputs(dir, res, sl); err != nil {
		t.Fatal(err)
	}
	// A result compared with itself has no worse row and equal digests.
	full := dir + "/result.json"
	if code := compareFiles(full, full); code != 0 {
		t.Errorf("self-compare exit code %d", code)
	}
	// A file that lacks a workload, the end-to-end metrics (a --trace 1 run)
	// or a digest must fail the comparison from either side, not shrink it.
	for name, strip := range map[string]func(*result){
		"workload": func(r *result) { delete(r.Workloads, workloads[0].name) },
		"end_to_end": func(r *result) {
			for _, wr := range r.Workloads {
				wr.EndToEnd = nil
			}
		},
		"digest": func(r *result) {
			for _, wr := range r.Workloads {
				wr.StreamDigest, wr.ExpositionDigest = "", "abc"
			}
		},
	} {
		r, err := readResult(full)
		if err != nil {
			t.Fatal(err)
		}
		strip(r)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		part := dir + "/" + name + ".json"
		if err := os.WriteFile(part, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ab, ba := compareFiles(full, part), compareFiles(part, full); ab != 1 || ba != 1 {
			t.Errorf("compare against a file without %s: exit codes %d and %d, want 1", name, ab, ba)
		}
		if name == "end_to_end" {
			if code := compareFiles(part, part); code != 1 {
				t.Errorf("two files without end-to-end metrics compared with exit code %d, want 1", code)
			}
		}
	}
}

// TestStreamsAreSeedStable: same seed, same bytes; another seed, other bytes.
func TestStreamsAreSeedStable(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.build(7, 10, 0.01).digest(), w.build(7, 10, 0.01).digest(), w.build(8, 10, 0.01).digest()
		if a != b || a == c {
			t.Errorf("%s: digests %016x %016x (seed 7 twice), %016x (seed 8)", w.name, a, b, c)
		}
	}
}

func TestSelfDescribingValues(t *testing.T) {
	var buf, scratch []byte
	for _, size := range []int{1, 5, 11, 12, 13, 128, 1024} {
		buf = fillValue(buf, 99, 3, size)
		if len(buf) != size || !checkValue(99, buf, size, &scratch) {
			t.Errorf("size %d: own value rejected", size)
		}
		if size >= 8 && checkValue(100, buf, size, &scratch) {
			t.Errorf("size %d: accepted under another key", size)
		}
		if size > valueHeader {
			buf[size-1] ^= 1
			if checkValue(99, buf, size, &scratch) {
				t.Errorf("size %d: corrupted body accepted", size)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	r := newRNG(1)
	var sum, small float64
	const n = 200_000
	for i := 0; i < n; i++ {
		s := mixgraphSize(r)
		if s < 1 || s > 1024 {
			t.Fatalf("mixgraph size %d", s)
		}
		sum += float64(s)
		if s < 35 {
			small++
		}
	}
	if mean := sum / n; mean < 45 || mean > 60 || small/n < 0.65 || small/n > 0.75 {
		t.Errorf("mixgraph: mean %.1f, share under 35 B %.3f", mean, small/n)
	}
	z, hits := newZipfian(1000, 0.99), map[int]int{}
	for i := 0; i < n; i++ {
		k := z.next(r)
		if k < 0 || k >= 1000 {
			t.Fatalf("zipfian index %d", k)
		}
		hits[k]++
	}
	if top := hits[0]; float64(top)/n < 0.10 || len(hits) < 900 {
		t.Errorf("zipfian: hottest key %.3f of draws, %d distinct keys", float64(top)/n, len(hits))
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_kops", Better: higher, Bound: 0.10}
	v := func(a, b, spread float64) string {
		return verdict(d, metricValue{Value: a}, metricValue{Value: b, Spread: spread}, false)
	}
	if got := v(100, 95, 0.01); got != "ok" {
		t.Errorf("5%% slower: %s", got)
	}
	if got := v(100, 85, 0.01); got != "worse" {
		t.Errorf("15%% slower: %s", got)
	}
	if got := v(100, 85, 0.2); got != "unresolved" {
		t.Errorf("spread over bound: %s", got)
	}
	if got := verdict(d, metricValue{Value: 1}, metricValue{Value: 1.0000001}, true); got != "differs" {
		t.Errorf("exact: %s", got)
	}
}
