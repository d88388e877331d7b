package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/sim"
)

func TestTelemetryRunDeterministic(t *testing.T) {
	capture := func() ([]byte, []byte, Progress) {
		tr, err := StartTelemetry(Options{Scale: 300, Seed: 7}, 2, 50*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.DB.Close()
		if err := tr.Wait(); err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := tr.DB.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		series := tr.DB.Series()
		if series.Len() == 0 {
			t.Fatal("telemetry run recorded no samples")
		}
		var csv bytes.Buffer
		if err := bandslim.WriteSeriesCSV(&csv, series); err != nil {
			t.Fatal(err)
		}
		return prom.Bytes(), csv.Bytes(), tr.Progress()
	}
	p1, c1, prog := capture()
	p2, c2, _ := capture()
	if !bytes.Equal(p1, p2) {
		t.Fatal("same-seed telemetry runs produced different Prometheus exposition")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("same-seed telemetry runs produced different series CSV")
	}
	if prog.OpsDone != prog.OpsTotal || prog.OpsDone == 0 {
		t.Fatalf("progress after Wait: done %d of %d", prog.OpsDone, prog.OpsTotal)
	}
	if prog.SimElapsedUs <= 0 || prog.PCIeBytes <= 0 {
		t.Fatalf("progress missing simulated figures: %+v", prog)
	}
}

func TestTelemetryDefaultsInterval(t *testing.T) {
	tr, err := StartTelemetry(Options{Scale: 50, Seed: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.DB.Close()
	if err := tr.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := tr.DB.Series(); s.Interval != DefaultMetricsInterval {
		t.Fatalf("series interval = %v, want default %v", s.Interval, DefaultMetricsInterval)
	}
}

// The smoke exposition is golden: `make smoke`'s run, driven in-process, must
// reproduce results/golden/bench_smoke.prom byte for byte, so exposition drift
// fails `go test ./...` and not only the Makefile's CLI-path check. After an
// intentional metrics change, regenerate the file with `make golden`.
func TestSmokeExpositionMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../results/golden/bench_smoke.prom")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := StartTelemetry(Options{Scale: 1000, Seed: 42}, 2, 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.DB.Close()
	if err := tr.Wait(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tr.DB.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("exposition drifted from the golden at line %d (`make smoke` shows the whole diff):\n got %q\nwant %q",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("exposition has %d lines, the golden %d (`make smoke` shows the diff)", len(gotLines), len(wantLines))
}
