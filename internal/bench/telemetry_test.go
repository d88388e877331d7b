package bench

import (
	"bytes"
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
