// Command benchmark is the instrument every performance claim about this
// repository is measured with: four closed-loop workloads, twelve end-to-end
// metrics on two clocks (the host's and the simulator's), and a per-layer
// ladder named after the repo's packages. See README.md in this directory.
//
//	benchmark/run.sh --workload fill_mixgraph --seed 42 --seconds 10 --trace 0
//	benchmark/run.sh --seed 42                       # all workloads, every metric
//	benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type result struct {
	Schema     string                     `json:"schema"`
	Claim      *string                    `json:"claim"` // a benchmark change claims no gain
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	CPUModel   string                     `json:"cpu_model"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Scale      float64                    `json:"scale"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (default: all four, one after the other)")
		seed     = fs.Int64("seed", 42, "the only input: every size, choice, order and sample derives from it")
		seconds  = fs.Float64("seconds", 10, "measurement budget per run; op counts are pinned per second of it")
		trace    = fs.Int("trace", 2, "0: end-to-end metrics, 1: per-layer metrics (traced pass + ladder), 2: both")
		scale    = fs.Float64("scale", 1, "multiplies every op count and data-set size (tests use 0.01)")
		out      = fs.String("out", "benchmark/out", "directory for result.json and spans.jsonl")
		compare  = fs.Bool("compare", false, "compare two result.json files given as arguments")
		contract = fs.Bool("contract", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *contract {
		fmt.Println(contractJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark --compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if runtime.GOMAXPROCS(0) < callers {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS=%d; the concurrent workloads pin %d callers and would measure the scheduler\n", runtime.GOMAXPROCS(0), callers)
		return 1
	}
	if *seconds <= 0 || *scale <= 0 || *trace < 0 || *trace > 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be > 0, -trace in 0..2")
		return 2
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{*w}
	}
	o := options{seed: uint64(*seed), seconds: *seconds, scale: *scale, trace: *trace}
	res := &result{
		Schema: "bandslim-benchmark/1", Commit: commit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Workloads: map[string]*workloadResult{},
	}
	sl := newSpanLog()
	for i := range todo {
		wr, err := runWorkload(&todo[i], o, sl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", todo[i].name, err)
			return 1
		}
		wr.print()
		res.Workloads[wr.Name] = wr
	}
	if err := writeOutputs(*out, res, sl); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(res.summaryLine())
	for _, wr := range res.Workloads {
		if !wr.Correct {
			return 1
		}
	}
	return 0
}

func writeOutputs(dir string, res *result, sl *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return sl.write(filepath.Join(dir, "spans.jsonl"))
}

// summaryLine is the run's last line of output: one JSON object with the keys
// correct, attempted, failed and metrics. A run of several workloads prefixes
// each metric with its workload.
func (r *result) summaryLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for _, wr := range r.Workloads {
		sum.Correct = sum.Correct && wr.Correct
		sum.Attempted += wr.OpsAttempted
		sum.Failed += wr.OpsFailed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		for _, set := range []map[string]metricValue{wr.EndToEnd, wr.PerLayer} {
			for k, m := range set {
				sum.Metrics[prefix+k] = mv{m.Value, m.Unit}
			}
		}
	}
	line, _ := json.Marshal(sum)
	return string(line)
}

// contractJSON renders BENCHMARK.json from the tables in workloads.go and
// metrics.go, so the contract file is generated, never edited.
func contractJSON() string {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10, PerLayer: perLayer}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return string(data)
}

// commit reads the checked-out revision from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
