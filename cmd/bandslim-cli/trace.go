package main

// The `trace` subcommand: record, replay, and inspect deterministic
// workload traces.
//
//	bandslim-cli trace record -scenario a [-records N] [-ops N] [-seed S]
//	                          [-shards K] [-metrics-out live.prom] -o trace.out
//	bandslim-cli trace replay [-shards K] [-metrics-out replay.prom] <trace|->
//	bandslim-cli trace stat <trace|->
//
// `record` runs the named scenario (ycsb-a..ycsb-f or mixed) live against a
// fresh simulated stack while capturing every op — kind, key, and size — to
// the versioned trace format (bandslim-trace v2). `replay` drives a trace file
// through the identical execution engine on an identically configured fresh
// stack: because the simulation is deterministic, the replayed run's Stats
// and Prometheus exposition are byte-identical to the recorded run's
// (-metrics-out on both sides makes that diffable — `make determinism` does
// exactly that). `stat` summarizes a trace without running it.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

func runTrace(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli trace record|replay|stat ...")
		os.Exit(2)
	}
	switch args[0] {
	case "record":
		runTraceRecord(args[1:])
	case "replay":
		runTraceReplay(args[1:])
	case "stat":
		runTraceStat(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "bandslim-cli: unknown trace action %q (want record, replay, or stat)\n", args[0])
		os.Exit(2)
	}
}

// traceStack opens the fixed stack configuration record and replay share:
// identical configs are what make the live and replayed runs comparable
// byte for byte.
func traceStack(shards int) (*bandslim.DB, error) {
	per := bandslim.DefaultConfig()
	per.MetricsInterval = 100 * sim.Microsecond
	return bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: per})
}

// writeExposition renders the stack's final Prometheus exposition, shared
// by record and replay so the two files are diffable. Progress messages go
// to human, which is stderr when the trace itself is being streamed to
// stdout.
func writeExposition(db *bandslim.DB, path string, human io.Writer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(human, "wrote", path)
	return nil
}

// driveAndReport runs a scenario, closes the stack, and exports artifacts.
func driveAndReport(db *bandslim.DB, s workload.Scenario, seed uint64,
	rec *workload.Trace, metricsOut string, human io.Writer) {
	res, err := bench.DriveScenario(db, s, seed, rec)
	if err != nil {
		db.Close()
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	if err := writeExposition(db, metricsOut, human); err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	fmt.Fprintf(human, "%s: %d ops (%d reads, %d updates, %d scans, %d rmws, %d deletes), "+
		"%d misses, %.1f KiB written, %.3f ms simulated, %.1f sim Kops\n",
		s.Name(), res.Ops, res.Reads, res.Updates, res.Scans, res.RMWs, res.Deletes,
		res.Misses, float64(res.BytesWritten)/1024, res.Elapsed.Micros()/1000, res.SimKops())
}

func runTraceRecord(args []string) {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	scenario := fs.String("scenario", "a", "scenario: a..f, ycsb-a..ycsb-f, or mixed")
	records := fs.Int("records", 1000, "initial keyspace size (load-phase inserts)")
	ops := fs.Int("ops", 2000, "run-phase operations")
	seed := fs.Uint64("seed", 42, "scenario and value-content seed")
	shards := fs.Int("shards", 1, "shard count")
	out := fs.String("o", "", "trace output path (- for stdout); required")
	metricsOut := fs.String("metrics-out", "", "write the live run's Prometheus exposition here")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli trace record -scenario a -o trace.out [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *out == "" || fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	s, err := workload.NewScenario(*scenario, workload.ScenarioConfig{
		Records: *records,
		Ops:     *ops,
		Seed:    *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	db, err := traceStack(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	// When the trace streams to stdout, human-readable progress must not
	// pollute it — a piped `record -o - | replay -` would otherwise choke
	// on the summary line.
	human := io.Writer(os.Stdout)
	if *out == "-" {
		human = os.Stderr
	}
	var tr workload.Trace
	driveAndReport(db, s, *seed, &tr, *metricsOut, human)
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
				os.Exit(1)
			}
			fmt.Fprintf(human, "wrote %s (%d ops)\n", *out, len(tr.Ops))
		}()
		w = f
	}
	if err := workload.WriteTrace(w, &tr); err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
}

// readTraceArg parses the one trace-file argument ("-" = stdin).
func readTraceArg(fs *flag.FlagSet) *workload.Trace {
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	var (
		r   io.Reader
		err error
	)
	if name := fs.Arg(0); name == "-" {
		r = os.Stdin
	} else {
		f, ferr := os.Open(name)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "bandslim-cli:", ferr)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	tr, err := workload.ParseTrace(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	return tr
}

func runTraceReplay(args []string) {
	fs := flag.NewFlagSet("trace replay", flag.ExitOnError)
	shards := fs.Int("shards", 1, "shard count (must match the recorded run's)")
	metricsOut := fs.String("metrics-out", "", "write the replayed run's Prometheus exposition here")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli trace replay [-shards K] [-metrics-out out.prom] <trace|->")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	tr := readTraceArg(fs)
	db, err := traceStack(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		os.Exit(1)
	}
	driveAndReport(db, workload.NewReplay(tr), tr.Seed, nil, *metricsOut, os.Stdout)
}

func runTraceStat(args []string) {
	fs := flag.NewFlagSet("trace stat", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli trace stat <trace|->")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	tr := readTraceArg(fs)
	var (
		counts [5]int
		keys   = map[string]struct{}{}
		bytes  int64
	)
	for _, op := range tr.Ops {
		counts[op.Kind]++
		keys[string(op.Key)] = struct{}{}
		if op.Kind == workload.OpPut || op.Kind == workload.OpRMW {
			bytes += int64(op.N)
		}
	}
	fmt.Printf("trace: v%d, seed %d, %d ops\n", workload.TraceVersion, tr.Seed, len(tr.Ops))
	var kinds []string
	for k, n := range counts {
		if n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", workload.OpKind(k), n))
		}
	}
	sort.Strings(kinds)
	fmt.Printf("  ops: %s\n", strings.Join(kinds, " "))
	fmt.Printf("  distinct keys: %d, payload bytes: %d\n", len(keys), bytes)
}
