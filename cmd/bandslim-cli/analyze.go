// The analyze subcommand: offline latency attribution over a JSONL trace.
// It reconstructs every operation from the event stream (see internal/spans),
// prints the per-op-kind stage breakdown with the critical-path digest and
// the slowest ops, and optionally writes the machine-readable CSV that
// TestDeterminism diffs across two analyses of one trace.
package main

import (
	"flag"
	"fmt"
	"io"

	"bandslim"
)

func (c *cli) analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	csvOut := fs.String("csv", "", "write the per-op-kind x per-stage breakdown CSV here")
	topK := fs.Int("top", 10, "how many slowest ops to list (0 disables)")
	usage := "bandslim-cli analyze [-csv out.csv] [-top K] <trace.jsonl|->\n" +
		"  input: JSONL events from bandslim-bench -trace-jsonl or WriteTraceJSONL"
	if err := c.parse(fs, args, usage, 1); err != nil {
		return err
	}
	var events []bandslim.TraceEvent
	err := c.readArg(fs.Arg(0), func(r io.Reader) (err error) {
		events, err = bandslim.ReadTraceJSONL(r)
		return err
	})
	if err != nil {
		return err
	}
	rep := bandslim.AnalyzeTrace(events)

	// A lossy stream silently skews attribution near the truncation; make
	// the reader confront it before the numbers.
	if rep.Lossy() {
		fmt.Fprintf(c.log,
			"WARNING: trace is lossy — %d events provably missing (ring eviction or recorder reset).\n"+
				"WARNING: stage attribution near the truncation degrades toward coarser stages;\n"+
				"WARNING: recapture with a larger ring (bandslim.NewRecorder / ShardedConfig.TraceCapacity) to trust the tails.\n",
			rep.TruncatedEvents)
	}
	if rep.DuplicateEvents > 0 {
		fmt.Fprintf(c.log,
			"WARNING: %d duplicate (shard, seq) events skipped — was the stream merged with itself?\n",
			rep.DuplicateEvents)
	}

	if err := bandslim.WriteBlameBreakdown(c.out, rep, *topK); err != nil {
		return err
	}
	if *csvOut == "" {
		return nil
	}
	return writeFile(c.out, *csvOut, "", func(w io.Writer) error { return bandslim.WriteBlameCSV(w, rep) })
}
