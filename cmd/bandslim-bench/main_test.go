package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	tb, err := bench.RunFig8(bench.Options{Scale: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
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
