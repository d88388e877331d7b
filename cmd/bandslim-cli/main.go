// Command bandslim-cli is an interactive shell against a simulated BandSlim
// KV-SSD: PUT/GET/DEL/SCAN/FLUSH/COMPACT/STATS/INFO against the full stack,
// with the simulated clock and traffic ledger visible after every command.
//
// Usage:
//
//	bandslim-cli [-method adaptive] [-policy backfill]
//	             [-metrics-interval-us 100] [-metrics-out out.prom] [-series-out out.csv]
//	bandslim-cli faults [-salt N] [-max-occ N] <plan-file|->   dump a resolved fault schedule
//	bandslim-cli analyze [-csv out.csv] [-top K] <trace.jsonl|->   per-op latency attribution
//	bandslim-cli trace record|replay|stat ...   record/replay deterministic workload traces
//
// Commands:
//
//	put <key> <value>       store a pair
//	putn <key> <bytes>      store a synthetic value of the given size
//	get <key>               fetch a value
//	del <key>               delete a key
//	scan <start> [n]        list up to n pairs from start (default 10)
//	flush                   force buffers to NAND
//	compact [pages]         garbage-collect the oldest vLog pages (default 16)
//	stats                   print the Prometheus exposition of every metric
//	info                    print the device's identify data
//	help                    this text
//	quit, exit              leave the shell
//
// With -metrics-out/-series-out the session's final metric state and sampled
// series are exported on exit, so an interactive exploration leaves the same
// artifacts a bench run does.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bandslim"
	"bandslim/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a usage or flag error: main exits 2 on it, 1 on any other.
var errUsage = errors.New("usage")

// cli carries the streams every subcommand reads and prints to.
type cli struct {
	in       io.Reader
	out, log io.Writer
}

// run is the whole command: a subcommand when args[0] names one, else the
// interactive shell over stdin. Every failure comes back as the error; -h
// is a success.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	c := &cli{in: stdin, out: stdout, log: stderr}
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	var err error
	switch sub {
	case "faults":
		err = c.faults(args[1:])
	case "analyze":
		err = c.analyze(args[1:])
	case "trace":
		err = c.trace(args[1:])
	default:
		err = c.shell(args)
	}
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// parse parses a subcommand's flags, printing usage and flag errors to the
// log, and requires nargs positional arguments.
func (c *cli) parse(fs *flag.FlagSet, args []string, usage string, nargs int) error {
	fs.SetOutput(c.log)
	fs.Usage = func() {
		fmt.Fprintln(c.log, "usage:", usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != nargs {
		fs.Usage()
		return fmt.Errorf("%w: %s takes %d argument(s), got %d", errUsage, fs.Name(), nargs, fs.NArg())
	}
	return nil
}

// readArg hands read the file named by an input argument, "-" meaning stdin.
func (c *cli) readArg(name string, read func(io.Reader) error) error {
	if name == "-" {
		return read(c.in)
	}
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f)
}

// writeFile renders into path and reports the path, plus note, on human.
func writeFile(human io.Writer, path, note string, render func(io.Writer) error) error {
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
	fmt.Fprintf(human, "wrote %s%s\n", path, note)
	return nil
}

// shell runs the interactive shell over c.in, then the exports its flags ask
// for.
func (c *cli) shell(args []string) error {
	fs := flag.NewFlagSet("bandslim-cli", flag.ContinueOnError)
	var (
		methodName = fs.String("method", "adaptive", "transfer method: baseline|piggyback|hybrid|adaptive")
		policyName = fs.String("policy", "backfill", "packing policy: block|all|select|backfill")
		intervalUs = fs.Int64("metrics-interval-us", 100, "simulated metrics sampling interval, µs (0 disables the sampler)")
		metricsOut = fs.String("metrics-out", "", "write the final Prometheus exposition here on exit")
		seriesOut  = fs.String("series-out", "", "write the sampled metric series CSV here on exit")
	)
	if err := c.parse(fs, args, "bandslim-cli [flags] | faults | analyze | trace ...", 0); err != nil {
		return err
	}
	method, err := bandslim.ParseMethod(*methodName)
	if err != nil {
		return err
	}
	policy, err := bandslim.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	if *seriesOut != "" && *intervalUs <= 0 {
		return errors.New("-series-out needs -metrics-interval-us > 0")
	}
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	if *intervalUs > 0 {
		cfg.MetricsInterval = sim.Duration(*intervalUs) * sim.Microsecond
	}
	db, err := bandslim.Open(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(c.out, "bandslim-cli: %v transfer, %v packing. Type 'help'.\n", method, policy)
	sc := bufio.NewScanner(c.in)
	for {
		fmt.Fprintf(c.out, "[t=%v] > ", db.Now())
		if !sc.Scan() {
			break
		}
		if fields := strings.Fields(sc.Text()); len(fields) > 0 && c.dispatch(db, fields) {
			break
		}
	}
	// Close first so the exports include the final flush (Series and
	// WritePrometheus stay usable after Close).
	if err := db.Close(); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeFile(c.out, *metricsOut, "", db.WritePrometheus); err != nil {
			return err
		}
	}
	if *seriesOut != "" {
		err := writeFile(c.out, *seriesOut, "", func(w io.Writer) error {
			return bandslim.WriteSeriesCSV(w, db.Series())
		})
		if err != nil {
			return err
		}
	}
	return sc.Err()
}

// dispatch executes one command line; it reports whether the shell should
// exit.
func (c *cli) dispatch(db *bandslim.DB, fields []string) bool {
	out := c.out
	switch fields[0] {
	case "put":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: put <key> <value>")
			return false
		}
		if err := db.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "putn":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: putn <key> <bytes>")
			return false
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			fmt.Fprintln(out, "bad size:", fields[2])
			return false
		}
		if err := db.Put([]byte(fields[1]), make([]byte, n)); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "get":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: get <key>")
			return false
		}
		v, err := db.Get([]byte(fields[1]))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		if len(v) > 64 {
			fmt.Fprintf(out, "%q... (%d bytes)\n", v[:64], len(v))
		} else {
			fmt.Fprintf(out, "%q\n", v)
		}
	case "del":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: del <key>")
			return false
		}
		if err := db.Delete([]byte(fields[1])); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "scan":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: scan <start> [n]")
			return false
		}
		limit := 10
		if len(fields) == 3 {
			if n, err := strconv.Atoi(fields[2]); err == nil && n > 0 {
				limit = n
			}
		}
		it, err := db.NewIterator([]byte(fields[1]))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		for i := 0; i < limit && it.Valid(); i++ {
			v := it.Value()
			if len(v) > 32 {
				fmt.Fprintf(out, "  %q = %q... (%d bytes)\n", it.Key(), v[:32], len(v))
			} else {
				fmt.Fprintf(out, "  %q = %q\n", it.Key(), v)
			}
			it.Next()
		}
		if it.Err() != nil {
			fmt.Fprintln(out, "scan error:", it.Err())
		}
	case "flush":
		if err := db.Flush(); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "compact":
		pages := 16
		if len(fields) == 2 {
			if n, err := strconv.Atoi(fields[1]); err == nil && n > 0 {
				pages = n
			}
		}
		n, err := db.CompactVLog(pages)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "relocated %d live values; vLog free: %d KiB\n", n, db.VLogFreeBytes()/1024)
	case "stats":
		if err := db.WritePrometheus(out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "info":
		id, err := db.Identify()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "%s (serial %s)\n", id.Model, id.Serial)
		fmt.Fprintf(out, "capacity %d MiB (vLog %d MiB), %d ch x %d way, %d B pages\n",
			id.CapacityBytes>>20, id.VLogBytes>>20, id.Channels, id.WaysPerChannel, id.NANDPageSize)
		fmt.Fprintf(out, "packing %s, inline %d/%d B, KV command set: %v\n",
			id.PackingPolicy, id.InlineWriteBytes, id.InlineXferBytes, id.KVCommandSet)
	case "help":
		fmt.Fprintln(out, "commands: put putn get del scan flush compact info stats help quit")
	case "quit", "exit":
		return true
	default:
		fmt.Fprintln(out, "unknown command; try 'help'")
	}
	return false
}
