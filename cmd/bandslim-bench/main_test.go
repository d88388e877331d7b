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

// The smoke exposition is golden: run with the Makefile's SMOKE_FLAGS, the
// -metrics-out file must reproduce results/golden/bench_smoke.prom byte for
// byte, so exposition drift fails `go test ./...`. After an intentional
// metrics change, regenerate the file with `make golden`.
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
	want, err := os.ReadFile("../../results/golden/bench_smoke.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := filepath.Join(t.TempDir(), "smoke.prom")
	var out bytes.Buffer
	if err := run(append(flags, "-metrics-out", prom), &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("exposition drifted from the golden at line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("exposition has %d lines, the golden %d", len(gotLines), len(wantLines))
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
