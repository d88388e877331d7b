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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bandslim"
	"bandslim/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "faults" {
		runFaults(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	var (
		methodName = flag.String("method", "adaptive", "transfer method: baseline|piggyback|hybrid|adaptive")
		policyName = flag.String("policy", "backfill", "packing policy: block|all|select|backfill")
		intervalUs = flag.Int64("metrics-interval-us", 100, "simulated metrics sampling interval, µs (0 disables the sampler)")
		metricsOut = flag.String("metrics-out", "", "write the final Prometheus exposition here on exit")
		seriesOut  = flag.String("series-out", "", "write the sampled metric series CSV here on exit")
	)
	flag.Parse()

	method, err := bandslim.ParseMethod(*methodName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	policy, err := bandslim.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *seriesOut != "" && *intervalUs <= 0 {
		fmt.Fprintln(os.Stderr, "bandslim-cli: -series-out needs -metrics-interval-us > 0")
		os.Exit(1)
	}
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	if *intervalUs > 0 {
		cfg.MetricsInterval = sim.Duration(*intervalUs) * sim.Microsecond
	}
	db, err := bandslim.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// LIFO: Close runs first so the exports include the final flush
	// (Series and WritePrometheus stay usable after Close).
	defer exportMetrics(db, *metricsOut, *seriesOut)
	defer db.Close()

	fmt.Printf("bandslim-cli: %v transfer, %v packing. Type 'help'.\n", method, policy)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("[t=%v] > ", db.Now())
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if done := dispatch(db, fields); done {
			break
		}
	}
}

// exportMetrics writes the session's final exposition and sampled series,
// sharing the exporters (and file shapes) with bandslim-bench.
func exportMetrics(db *bandslim.DB, metricsOut, seriesOut string) {
	writeTo := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
			return
		}
		if err := write(f); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-cli:", err)
			return
		}
		fmt.Println("wrote", path)
	}
	if metricsOut != "" {
		writeTo(metricsOut, func(f *os.File) error { return db.WritePrometheus(f) })
	}
	if seriesOut != "" {
		writeTo(seriesOut, func(f *os.File) error {
			return bandslim.WriteSeriesCSV(f, db.Series())
		})
	}
}

// dispatch executes one command line; it reports whether the shell should
// exit.
func dispatch(db *bandslim.DB, fields []string) bool {
	switch fields[0] {
	case "put":
		if len(fields) != 3 {
			fmt.Println("usage: put <key> <value>")
			return false
		}
		if err := db.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
			fmt.Println("error:", err)
		}
	case "putn":
		if len(fields) != 3 {
			fmt.Println("usage: putn <key> <bytes>")
			return false
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			fmt.Println("bad size:", fields[2])
			return false
		}
		if err := db.Put([]byte(fields[1]), make([]byte, n)); err != nil {
			fmt.Println("error:", err)
		}
	case "get":
		if len(fields) != 2 {
			fmt.Println("usage: get <key>")
			return false
		}
		v, err := db.Get([]byte(fields[1]))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if len(v) > 64 {
			fmt.Printf("%q... (%d bytes)\n", v[:64], len(v))
		} else {
			fmt.Printf("%q\n", v)
		}
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <key>")
			return false
		}
		if err := db.Delete([]byte(fields[1])); err != nil {
			fmt.Println("error:", err)
		}
	case "scan":
		if len(fields) < 2 {
			fmt.Println("usage: scan <start> [n]")
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
			fmt.Println("error:", err)
			return false
		}
		for i := 0; i < limit && it.Valid(); i++ {
			v := it.Value()
			if len(v) > 32 {
				fmt.Printf("  %q = %q... (%d bytes)\n", it.Key(), v[:32], len(v))
			} else {
				fmt.Printf("  %q = %q\n", it.Key(), v)
			}
			it.Next()
		}
		if it.Err() != nil {
			fmt.Println("scan error:", it.Err())
		}
	case "flush":
		if err := db.Flush(); err != nil {
			fmt.Println("error:", err)
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
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("relocated %d live values; vLog free: %d KiB\n", n, db.VLogFreeBytes()/1024)
	case "stats":
		if err := db.WritePrometheus(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case "info":
		id, err := db.Identify()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("%s (serial %s)\n", id.Model, id.Serial)
		fmt.Printf("capacity %d MiB (vLog %d MiB), %d ch x %d way, %d B pages\n",
			id.CapacityBytes>>20, id.VLogBytes>>20, id.Channels, id.WaysPerChannel, id.NANDPageSize)
		fmt.Printf("packing %s, inline %d/%d B, KV command set: %v\n",
			id.PackingPolicy, id.InlineWriteBytes, id.InlineXferBytes, id.KVCommandSet)
	case "help":
		fmt.Println("commands: put putn get del scan flush compact info stats help quit")
	case "quit", "exit":
		return true
	default:
		fmt.Println("unknown command; try 'help'")
	}
	return false
}
