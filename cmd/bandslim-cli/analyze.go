// The analyze subcommand: offline latency attribution over a JSONL trace.
// It reconstructs every operation from the event stream (see internal/spans),
// prints the per-op-kind stage breakdown with the critical-path digest and
// the slowest ops, and optionally writes the machine-readable CSV that
// `make determinism` diffs across two analyses of one trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bandslim"
)

func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	csvOut := fs.String("csv", "", "write the per-op-kind x per-stage breakdown CSV here")
	topK := fs.Int("top", 10, "how many slowest ops to list (0 disables)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli analyze [-csv out.csv] [-top K] <trace.jsonl|->")
		fmt.Fprintln(os.Stderr, "  input: JSONL events from bandslim-bench -trace-jsonl or WriteTraceJSONL")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	var in io.Reader
	if name := fs.Arg(0); name == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	events, err := bandslim.ReadTraceJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
		os.Exit(1)
	}
	rep := bandslim.AnalyzeTrace(events)

	// A lossy stream silently skews attribution near the truncation; make
	// the reader confront it before the numbers.
	if rep.Lossy() {
		fmt.Fprintf(os.Stderr,
			"WARNING: trace is lossy — %d events provably missing (ring eviction or recorder reset).\n"+
				"WARNING: stage attribution near the truncation degrades toward coarser stages;\n"+
				"WARNING: recapture with a larger ring (bandslim.NewRecorder / ShardedConfig.TraceCapacity) to trust the tails.\n",
			rep.TruncatedEvents)
	}
	if rep.DuplicateEvents > 0 {
		fmt.Fprintf(os.Stderr,
			"WARNING: %d duplicate (shard, seq) events skipped — was the stream merged with itself?\n",
			rep.DuplicateEvents)
	}

	if err := bandslim.WriteBlameBreakdown(os.Stdout, rep, *topK); err != nil {
		fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
		os.Exit(1)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
			os.Exit(1)
		}
		if err := bandslim.WriteBlameCSV(f, rep); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csvOut)
	}
}
