package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/bench"
)

// cliRun runs the command in process over stdin and returns its stdout.
func cliRun(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out, log bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out, &log); err != nil {
		t.Fatalf("%q: %v\n%s", args, err, log.String())
	}
	return out.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A scripted session reaches every shell command; the exports it asks for
// show the quit ended it before its last line.
func TestShellSession(t *testing.T) {
	dir := t.TempDir()
	prom, series := filepath.Join(dir, "s.prom"), filepath.Join(dir, "s.csv")
	script := strings.Join([]string{
		"put k1 hello", "putn k2 5000", "putn k3 -1", "put k4", "get k1", "get k2", "get absent",
		"del k1", "scan k 5", "flush", "compact 4", "stats", "info", "help", "bogus", "",
		"quit", "put k5 never",
	}, "\n")
	out := cliRun(t, script, "-method", "hybrid", "-metrics-out", prom, "-series-out", series)
	for _, want := range []string{
		"Hybrid transfer, Backfill packing", `> "hello"`, "... (5000 bytes)", "bad size: -1",
		"usage: put <key> <value>", "error: nvme: command failed: KeyNotFound", `  "k2" = `,
		"relocated ", "# TYPE bandslim_host_puts_total counter", "capacity 32768 MiB",
		"commands: put", "unknown command", "wrote " + prom, "wrote " + series,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output lacks %q:\n%s", want, out)
		}
	}
	if exp := string(readFile(t, prom)); !strings.Contains(exp, "\nbandslim_host_puts_total 2\n") {
		t.Errorf("exposition does not count exactly the two valid puts:\n%s", exp)
	}
	if csv := readFile(t, series); !bytes.HasPrefix(csv, []byte("t_us,host_puts,")) {
		t.Errorf("series CSV header: %q", bytes.SplitN(csv, []byte("\n"), 2)[0])
	}
	for _, end := range []string{"exit\n", ""} {
		if out := cliRun(t, end); !strings.HasSuffix(out, "> ") {
			t.Errorf("session ended by %q printed %q", end, out)
		}
	}
}

// faults prints a plan's resolved schedule, the same from a file or stdin.
func TestFaultsSchedule(t *testing.T) {
	plan := "seed 7\nnand.program nth=3 media\nnand.read every=4 media\nnand.erase nth=50 media\npower at=12ms\n"
	path := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	out := cliRun(t, "", "faults", "-salt", "1", "-max-occ", "10", path)
	for _, want := range []string{
		"plan: seed=7 rules=4 salt=1", "fires on occurrence 3 (of first 10)",
		"fires on occurrence 4 8 (of first 10)", "no firings in the first 10 occurrences",
		"time-armed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("faults output lacks %q:\n%s", want, out)
		}
	}
	if in := cliRun(t, plan, "faults", "-salt", "1", "-max-occ", "10", "-"); in != out {
		t.Errorf("faults from stdin printed\n%s\nfrom the file\n%s", in, out)
	}
}

// Usage and flag errors exit 2 (they wrap errUsage); every other failure
// exits 1.
func TestErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, c := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-bogus"}, true},
		{[]string{"stray"}, true},
		{[]string{"-method", "warp"}, false},
		{[]string{"-series-out", missing, "-metrics-interval-us", "0"}, false},
		{[]string{"faults"}, true},
		{[]string{"faults", "-max-occ", "-1", "-"}, true},
		{[]string{"faults", "-max-occ", "0", "-"}, true},
		{[]string{"faults", missing}, false},
		{[]string{"analyze"}, true},
		{[]string{"analyze", missing}, false},
		{[]string{"trace"}, true},
		{[]string{"trace", "rewind"}, true},
		{[]string{"trace", "record", "-scenario", "a"}, true},
		{[]string{"trace", "record", "-scenario", "z", "-o", missing}, false},
		{[]string{"trace", "replay"}, true},
		{[]string{"trace", "stat", missing}, false},
	} {
		var out, log bytes.Buffer
		err := run(c.args, strings.NewReader("seed 1\n"), &out, &log)
		if err == nil || errors.Is(err, errUsage) != c.usage {
			t.Errorf("%q: err %v, want a usage error: %v", c.args, err, c.usage)
		}
	}
	if err := run([]string{"trace", "stat", "-h"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Errorf("-h: %v", err)
	}
}

// TestDeterminism is the command's half of the determinism gate (the root
// package's TestDeterminism has the library's): each row runs a subcommand
// twice and requires byte-identical, non-empty files. The replay row
// compares two producers: a replay of the recorded trace must reproduce the
// live run's exposition.
func TestDeterminism(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	events, err := bench.CaptureTrace(bench.Options{Scale: 1000, Seed: 42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = writeFile(io.Discard, path("trace.jsonl"), "", func(w io.Writer) error { return bandslim.WriteTraceJSONL(w, events) })
	if err != nil {
		t.Fatal(err)
	}
	// The rows run in order: the record row writes what replay and stat read.
	rows := []struct {
		name           string
		produce, again func(t *testing.T) map[string][]byte
	}{
		{name: "analyze", produce: func(t *testing.T) map[string][]byte {
			out := cliRun(t, "", "analyze", "-csv", path("blame.csv"), "-top", "0", path("trace.jsonl"))
			return map[string][]byte{"stdout": []byte(out), "blame.csv": readFile(t, path("blame.csv"))}
		}},
		{name: "trace-record", produce: func(t *testing.T) map[string][]byte {
			out := cliRun(t, "", "trace", "record", "-scenario", "mixed", "-records", "300", "-ops", "1000",
				"-seed", "42", "-o", path("run.trace"), "-metrics-out", path("live.prom"))
			return map[string][]byte{"stdout": []byte(out), "run.trace": readFile(t, path("run.trace")),
				"live.prom": readFile(t, path("live.prom"))}
		}},
		{name: "trace-replay", produce: func(t *testing.T) map[string][]byte {
			return map[string][]byte{"exposition": readFile(t, path("live.prom"))}
		}, again: func(t *testing.T) map[string][]byte {
			cliRun(t, string(readFile(t, path("run.trace"))), "trace", "replay", "-metrics-out", path("replay.prom"), "-")
			return map[string][]byte{"exposition": readFile(t, path("replay.prom"))}
		}},
		{name: "trace-stat", produce: func(t *testing.T) map[string][]byte {
			return map[string][]byte{"stdout": []byte(cliRun(t, "", "trace", "stat", path("run.trace")))}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			again := r.again
			if again == nil {
				again = r.produce
			}
			a, b := r.produce(t), again(t)
			if len(a) != len(b) {
				t.Fatalf("published %d files, then %d", len(a), len(b))
			}
			for name, x := range a {
				if len(x) == 0 || !bytes.Equal(x, b[name]) {
					t.Errorf("%s is empty or differs between the two runs (%d, then %d bytes)", name, len(x), len(b[name]))
				}
			}
		})
	}
}
