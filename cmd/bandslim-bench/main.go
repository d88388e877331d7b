// Command bandslim-bench regenerates the tables and figures of the BandSlim
// paper's evaluation (§4) on the simulated KV-SSD stack. Every number it
// prints or writes is on the simulated clock; the simulator's own wall-clock
// speed is measured by benchmark/ (see BENCHMARK.json).
//
// Usage:
//
//	bandslim-bench -experiment fig8 [-scale 20000] [-seed 42] [-csv out/]
//	bandslim-bench -experiment qd|blame|cache|ycsb [-scale 20000] [-json out/]
//	bandslim-bench -experiment all|ablations [-csv out/]
//	bandslim-bench -trace out.json [-shards 4]
//	bandslim-bench -trace-jsonl out.jsonl [-shards 4]
//	bandslim-bench -metrics-out out.prom -series-out series.csv [-shards 4] [-listen :9090]
//	bandslim-bench -list
//
// Each experiment prints the same rows/series the paper plots. An experiment
// publishes exactly one kind of artifact: the sweeps with machine-readable
// points (qd, blame, cache, ycsb) write BENCH_<id>.json under -json; every
// other experiment writes one CSV per table under -csv. All of it is
// deterministic: same -scale and -seed, same bytes. -cpuprofile and
// -memprofile capture pprof profiles of any run, including one that fails.
//
// The qd experiment sweeps the submission-window depth on a 4-shard stack
// against the paper's synchronous testbed.
//
// The blame experiment sweeps the submission-window depth and attributes
// every measured op's latency to pipeline stages (host, window wait, fetch,
// device exec, transfer, NAND, coalescing, reap). It fails hard if any op's
// stages do not sum exactly to its end-to-end latency.
//
// The cache experiment sweeps the device-DRAM read cache (size × policy ×
// Zipfian skew) against the cache-off read path. It fails hard if the
// hot-read p99 at the default operating point does not improve at least 3x
// over cache-off.
//
// The ycsb experiment runs the six YCSB core scenarios closed-loop, one op
// at a time (A: update-heavy with a mid-run hotspot shift, B: read-mostly,
// C: read-only, D: read-latest with insert-ordered keyspace growth, E:
// scan-heavy, F: read-modify-write). It fails hard if any
// scenario's realized op mix drifts from its spec. Use `bandslim-cli trace
// record|replay|stat` to capture any scenario to a deterministic trace file
// and replay it bit-identically.
//
// -trace skips the experiments and instead captures a short adaptive-method
// workload with command-level tracing on, writing Chrome trace_event JSON
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing. With
// -shards above 1 the capture runs that many shards and they render as
// processes. -trace-jsonl writes the same capture as one JSON object per
// event — the input format of `bandslim-cli analyze`, which reconstructs
// per-op latency attribution offline.
//
// -metrics-out, -series-out, and -listen likewise skip the experiments and
// run one instrumented workload on -shards shards with the simulated-time
// metrics sampler on: -metrics-out writes the final Prometheus exposition,
// -series-out writes the sampled per-metric series CSV, and -listen serves
// /metrics (live Prometheus scrape) and /progress (JSON: ops done, simulated
// elapsed, current rates) while the run executes. The exported files are
// deterministic: same seed, scale, shards, and interval produce
// byte-identical bytes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
		os.Exit(1)
	}
}

// writeFile renders into path, creating its directory first, and reports the
// path (plus an optional note) on out.
func writeFile(out io.Writer, path, note string, render func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s%s\n", path, note)
	return nil
}

// writeBytes is writeFile for content already in hand.
func writeBytes(out io.Writer, path string, content []byte) error {
	return writeFile(out, path, "", func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
}

// startProfiles begins the requested pprof captures and returns the function
// that finishes them. run defers it, so a failing run — the one most worth
// profiling — still leaves complete profiles behind.
func startProfiles(out io.Writer, cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
			fmt.Fprintln(out, "wrote", cpuPath)
		}
		if memPath != "" {
			runtime.GC()
			if err := writeFile(out, memPath, "", pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			}
		}
	}, nil
}

// runTelemetry drives the instrumented workload behind -metrics-out,
// -series-out, and -listen: start the sharded run, optionally serve the
// live endpoints while it executes, then export the deterministic files.
func runTelemetry(out io.Writer, opts bench.Options, shards int, interval sim.Duration, listen, metricsOut, seriesOut string) error {
	tr, err := bench.StartTelemetry(opts, shards, interval)
	if err != nil {
		return err
	}
	defer tr.DB.Close()

	if listen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := tr.DB.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(tr.Progress()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		srv := &http.Server{Addr: listen, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "bandslim-bench: listen:", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "serving /metrics and /progress on %s\n", listen)
	}

	if err := tr.Wait(); err != nil {
		return err
	}
	if metricsOut != "" {
		if err := writeFile(out, metricsOut, "", tr.DB.WritePrometheus); err != nil {
			return err
		}
	}
	if seriesOut != "" {
		series := tr.DB.Series()
		err := writeFile(out, seriesOut, fmt.Sprintf(" (%d samples)", series.Len()), func(w io.Writer) error {
			return bandslim.WriteSeriesCSV(w, series)
		})
		if err != nil {
			return err
		}
	}
	p := tr.Progress()
	fmt.Fprintf(out, "telemetry run: %d ops on %d shard(s), %.3f ms simulated, %.1f wall Kops\n",
		p.OpsDone, shards, p.SimElapsedUs/1000, p.WallKops)
	return nil
}

// runTrace captures the traced workload behind -trace and -trace-jsonl.
func runTrace(out io.Writer, opts bench.Options, shards int, chromePath, jsonlPath string) error {
	events, err := bench.CaptureTrace(opts, shards)
	if err != nil {
		return err
	}
	note := fmt.Sprintf(" (%d events, %d shard(s))", len(events), shards)
	if chromePath != "" {
		err := writeFile(out, chromePath, note+" — load it at https://ui.perfetto.dev", func(w io.Writer) error {
			return bandslim.WriteChromeTrace(w, events)
		})
		if err != nil {
			return err
		}
	}
	if jsonlPath != "" {
		return writeFile(out, jsonlPath, note+" — feed it to bandslim-cli analyze", func(w io.Writer) error {
			return bandslim.WriteTraceJSONL(w, events)
		})
	}
	return nil
}

// run is the whole command: parse args, then list, trace, run telemetry, or
// run one experiment and publish its artifact. Everything it prints goes to
// out; every failure comes back as the error.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bandslim-bench", flag.ContinueOnError)
	def := bench.DefaultOptions()
	var (
		experiment = fs.String("experiment", "all", "experiment ID (see -list)")
		scale      = fs.Int("scale", def.Scale, "operations per data point (paper: 1M)")
		seed       = fs.Uint64("seed", def.Seed, "workload seed")
		shards     = fs.Int("shards", 1, "shard count of the -trace and -metrics-out runs")
		csvDir     = fs.String("csv", "", "directory to write per-table CSV files")
		jsonDir    = fs.String("json", ".", "directory for BENCH_<experiment>.json")
		tracePath  = fs.String("trace", "", "capture a traced workload and write Chrome trace JSON to this path")
		traceJSONL = fs.String("trace-jsonl", "", "capture a traced workload and write JSONL events to this path (bandslim-cli analyze input)")
		metricsOut = fs.String("metrics-out", "", "run an instrumented workload and write its Prometheus exposition here")
		seriesOut  = fs.String("series-out", "", "run an instrumented workload and write its sampled metric series CSV here")
		listen     = fs.String("listen", "", "serve /metrics and /progress on this address during the instrumented run")
		intervalUs = fs.Int64("metrics-interval-us", 100, "simulated sampling interval for the instrumented run, µs")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this path")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("bad -shards %d (want an integer >= 1)", *shards)
	}
	if *list {
		fmt.Fprintln(out, "experiments:")
		for _, id := range bench.Experiments() {
			fmt.Fprintln(out, "  ", id)
		}
		return nil
	}

	stopProfiles, err := startProfiles(out, *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	opts := bench.Options{Scale: *scale, Seed: *seed}
	if *metricsOut != "" || *seriesOut != "" || *listen != "" {
		return runTelemetry(out, opts, *shards, sim.Duration(*intervalUs)*sim.Microsecond,
			*listen, *metricsOut, *seriesOut)
	}
	if *tracePath != "" || *traceJSONL != "" {
		return runTrace(out, opts, *shards, *tracePath, *traceJSONL)
	}

	start := time.Now()
	res, err := bench.Run(*experiment, opts)
	if err != nil {
		return err
	}
	for _, t := range res.Tables {
		fmt.Fprintln(out, t.Format())
	}
	if res.Points != nil {
		raw, err := res.PointsJSON()
		if err != nil {
			return err
		}
		if err := writeBytes(out, filepath.Join(*jsonDir, "BENCH_"+*experiment+".json"), raw); err != nil {
			return err
		}
	} else if *csvDir != "" {
		for _, t := range res.Tables {
			if err := writeBytes(out, filepath.Join(*csvDir, t.ID+".csv"), []byte(t.CSV())); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "completed %d table(s) in %v (wall clock)\n", len(res.Tables), time.Since(start).Round(time.Millisecond))
	return nil
}
