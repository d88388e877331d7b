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
// (-metrics-out on both sides makes that diffable; TestDeterminism diffs
// them). `stat` summarizes a trace without running it.

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

func (c *cli) trace(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%w: bandslim-cli trace record|replay|stat ...", errUsage)
	}
	switch args[0] {
	case "record":
		return c.traceRecord(args[1:])
	case "replay":
		return c.traceReplay(args[1:])
	case "stat":
		return c.traceStat(args[1:])
	}
	return fmt.Errorf("%w: unknown trace action %q (want record, replay, or stat)", errUsage, args[0])
}

// traceStack opens the fixed stack configuration record and replay share:
// identical configs are what make the live and replayed runs comparable
// byte for byte.
func traceStack(shards int) (*bandslim.DB, error) {
	per := bandslim.DefaultConfig()
	per.MetricsInterval = 100 * sim.Microsecond
	return bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: per})
}

// driveAndReport runs a scenario, closes the stack, and writes its final
// exposition to metricsOut, so that record's and replay's files are
// diffable. Progress messages go to human, which is stderr when the trace
// itself is being streamed to stdout.
func driveAndReport(db *bandslim.DB, s workload.Scenario, seed uint64,
	rec *workload.Trace, metricsOut string, human io.Writer) error {
	res, err := bench.DriveScenario(db, s, seed, rec)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if metricsOut != "" {
		if err := writeFile(human, metricsOut, "", db.WritePrometheus); err != nil {
			return err
		}
	}
	fmt.Fprintf(human, "%s: %d ops (%d reads, %d updates, %d scans, %d rmws, %d deletes), "+
		"%d misses, %.1f KiB written, %.3f ms simulated, %.1f sim Kops\n",
		s.Name(), res.Ops, res.Reads, res.Updates, res.Scans, res.RMWs, res.Deletes,
		res.Misses, float64(res.BytesWritten)/1024, res.Elapsed.Micros()/1000, res.SimKops())
	return nil
}

func (c *cli) traceRecord(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ContinueOnError)
	scenario := fs.String("scenario", "a", "scenario: a..f, ycsb-a..ycsb-f, or mixed")
	records := fs.Int("records", 1000, "initial keyspace size (load-phase inserts)")
	ops := fs.Int("ops", 2000, "run-phase operations")
	seed := fs.Uint64("seed", 42, "scenario and value-content seed")
	shards := fs.Int("shards", 1, "shard count")
	out := fs.String("o", "", "trace output path (- for stdout); required")
	metricsOut := fs.String("metrics-out", "", "write the live run's Prometheus exposition here")
	if err := c.parse(fs, args, "bandslim-cli trace record -scenario a -o trace.out [flags]", 0); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("%w: trace record needs -o", errUsage)
	}
	s, err := workload.NewScenario(*scenario, workload.ScenarioConfig{
		Records: *records,
		Ops:     *ops,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	db, err := traceStack(*shards)
	if err != nil {
		return err
	}
	// When the trace streams to stdout, human-readable progress must not
	// pollute it — a piped `record -o - | replay -` would otherwise choke
	// on the summary line.
	human := c.out
	if *out == "-" {
		human = c.log
	}
	var tr workload.Trace
	if err := driveAndReport(db, s, *seed, &tr, *metricsOut, human); err != nil {
		return err
	}
	render := func(w io.Writer) error { return workload.WriteTrace(w, &tr) }
	if *out == "-" {
		return render(c.out)
	}
	return writeFile(human, *out, fmt.Sprintf(" (%d ops)", len(tr.Ops)), render)
}

// readTrace parses the trace file named by an input argument.
func (c *cli) readTrace(name string) (tr *workload.Trace, err error) {
	err = c.readArg(name, func(r io.Reader) error {
		tr, err = workload.ParseTrace(r)
		return err
	})
	return tr, err
}

func (c *cli) traceReplay(args []string) error {
	fs := flag.NewFlagSet("trace replay", flag.ContinueOnError)
	shards := fs.Int("shards", 1, "shard count (must match the recorded run's)")
	metricsOut := fs.String("metrics-out", "", "write the replayed run's Prometheus exposition here")
	if err := c.parse(fs, args, "bandslim-cli trace replay [-shards K] [-metrics-out out.prom] <trace|->", 1); err != nil {
		return err
	}
	tr, err := c.readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	db, err := traceStack(*shards)
	if err != nil {
		return err
	}
	return driveAndReport(db, workload.NewReplay(tr), tr.Seed, nil, *metricsOut, c.out)
}

func (c *cli) traceStat(args []string) error {
	fs := flag.NewFlagSet("trace stat", flag.ContinueOnError)
	if err := c.parse(fs, args, "bandslim-cli trace stat <trace|->", 1); err != nil {
		return err
	}
	tr, err := c.readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
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
	fmt.Fprintf(c.out, "trace: v%d, seed %d, %d ops\n", workload.TraceVersion, tr.Seed, len(tr.Ops))
	var kinds []string
	for k, n := range counts {
		if n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", workload.OpKind(k), n))
		}
	}
	sort.Strings(kinds)
	fmt.Fprintf(c.out, "  ops: %s\n", strings.Join(kinds, " "))
	fmt.Fprintf(c.out, "  distinct keys: %d, payload bytes: %d\n", len(keys), bytes)
	return nil
}
