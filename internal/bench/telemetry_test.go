package bench

import "testing"

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
