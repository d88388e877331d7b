package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/bench"
)

func TestListPrintsRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(out.String())
	want := append([]string{"experiments:"}, bench.Experiments()...)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-list printed %v, want %v", got, want)
	}
}

// A table experiment publishes one CSV per table under -csv, equal to the
// table's own rendering.
func TestTableExperimentWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig8", "-scale", "200", "-csv", filepath.Join(dir, "new")}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "new", "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run("fig8", bench.Options{Scale: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	if string(got) != tb.CSV() {
		t.Fatalf("fig8.csv:\n%s\nwant:\n%s", got, tb.CSV())
	}
	if !strings.Contains(out.String(), "== fig8:") {
		t.Fatalf("table not printed:\n%s", out.String())
	}
}

// An experiment with points publishes only BENCH_<id>.json — no CSV twin for
// artifacts-check to trip over — and the file ends in a newline.
func TestPointsExperimentWritesOnlyJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-experiment", "qd", "-scale", "300", "-json", dir, "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_qd.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("[\n")) || !bytes.HasSuffix(raw, []byte("]\n")) {
		t.Fatalf("BENCH_qd.json is not a newline-terminated JSON array:\n%s", raw)
	}
	if _, err := os.Stat(filepath.Join(dir, "qd.csv")); !os.IsNotExist(err) {
		t.Fatalf("qd.csv written beside BENCH_qd.json (stat err %v)", err)
	}
}

// -trace-jsonl writes bench.CaptureTrace's events as JSONL, the input of
// bandslim-cli analyze.
func TestTraceJSONLWritesCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-trace-jsonl", path, "-shards", "2", "-scale", "1000", "-seed", "42"}, &out); err != nil {
		t.Fatal(err)
	}
	events, err := bench.CaptureTrace(bench.Options{Scale: 1000, Seed: 42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bandslim.WriteTraceJSONL(&want, events); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-trace-jsonl wrote %d bytes (%v), want the %d-byte capture", len(got), err, want.Len())
	}
}

func TestBadArgumentsReturnErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig99"},
		{"-shards", "0"},
		{"-shards", "1,2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// The smoke run is golden: run with the Makefile's SMOKE_FLAGS, the
// -metrics-out file must reproduce results/golden/bench_smoke.prom and the
// -series-out file results/golden/bench_smoke_series.csv byte for byte, so
// drift in the exposition or in the sampled series fails `go test ./...`.
// After an intentional metrics change, regenerate both with `make golden`.
func TestSmokeMatchesGolden(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, "SMOKE_FLAGS = "); ok {
			flags = strings.Fields(rest)
		}
	}
	if flags == nil {
		t.Fatal("no SMOKE_FLAGS line in the Makefile")
	}
	dir := t.TempDir()
	prom, series := filepath.Join(dir, "smoke.prom"), filepath.Join(dir, "smoke.csv")
	var out bytes.Buffer
	if err := run(append(flags, "-metrics-out", prom, "-series-out", series), &out); err != nil {
		t.Fatal(err)
	}
	diffGolden(t, prom, "../../results/golden/bench_smoke.prom")
	diffGolden(t, series, "../../results/golden/bench_smoke_series.csv")
}

// diffGolden fails naming the first line where the file at got differs from
// the golden at want.
func diffGolden(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g, w) {
		return
	}
	gotLines, wantLines := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s drifted from the golden at line %d:\n got %q\nwant %q", filepath.Base(want), i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s has %d lines, the golden %d", filepath.Base(want), len(gotLines), len(wantLines))
}

// The profile writers are deferred inside run, so a run that fails after
// profiling started still flushes them.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-experiment", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s after a failed run: %v, want a non-empty profile", path, err)
		}
	}
}
