package bandslim_test

// Benchmark harness: BenchmarkExperiments regenerates every paper figure at
// reduced scale (one sub-benchmark per figure, reporting its headline cells
// as custom metrics), plus micro-benchmarks of the simulator's hot paths.
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure sub-benchmarks report simulated quantities via b.ReportMetric
// (e.g. PCIe bytes per op, simulated response microseconds) so regressions
// in the modelled behaviour are as visible as wall-clock regressions.

import (
	"fmt"
	"testing"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/workload"
)

// benchScale keeps each figure regeneration to a few hundred ms.
const benchScale = 2000

// figMetric is one custom metric of BenchmarkExperiments: the cell at (row,
// col) of a table or, when base names a column, the percentage by which that
// cell falls below base's cell in the same row.
type figMetric struct {
	name, table, row, col, base string
}

// BenchmarkExperiments regenerates each paper figure through bench.Run, one
// sub-benchmark per registry ID, and reports the figure's headline cells.
func BenchmarkExperiments(b *testing.B) {
	for _, fig := range []struct {
		id      string
		metrics []figMetric
	}{
		{"fig3", []figMetric{{"TAF32B", "fig3b", "32", "TAF", ""}, {"resp1K_us", "fig3a", "1", "response_us", ""}}},
		{"fig4", []figMetric{{"WAF32B", "fig4b", "32", "WAF", ""}, {"resp16K_us", "fig4a", "16", "response_us", ""}}},
		{"fig8", []figMetric{{"traffic_reduction_%", "fig8", "32", "Piggyback_traffic_GB", "Baseline_traffic_GB"}}},
		{"fig9", []figMetric{{"traffic_reduction_%", "fig9", "32", "Hybrid_traffic_GB", "Baseline_traffic_GB"}}},
		{"fig10", []figMetric{{"adaptiveWM_Kops", "fig10b", "Adaptive", "W(M)", ""}, {"piggyWM_resp_us", "fig10a", "Piggyback", "W(M)", ""}}},
		{"fig11", []figMetric{{"nand_reduction_%", "fig11", "32", "Packing_nand_io", "Baseline_nand_io"}}},
		{"fig12", []figMetric{{"backfillWB_Kops", "fig12b", "Backfill", "W(B)", ""}, {"allWC_Kops", "fig12b", "All", "W(C)", ""}}},
	} {
		b.Run(fig.id, func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = bench.Run(fig.id, bench.Options{Scale: benchScale}); err != nil {
					b.Fatal(err)
				}
			}
			cell := func(table, row, col string) float64 {
				for _, t := range res.Tables {
					if t.ID == table {
						v, err := t.Cell(row, col)
						if err != nil {
							b.Fatal(err)
						}
						return v
					}
				}
				b.Fatalf("%s published no table %s", fig.id, table)
				return 0
			}
			for _, m := range fig.metrics {
				v := cell(m.table, m.row, m.col)
				if m.base != "" {
					v = 100 * (1 - v/cell(m.table, m.row, m.base))
				}
				b.ReportMetric(v, m.name)
			}
		})
	}
}

// --- Simulator hot-path micro-benchmarks ---

func openBench(b *testing.B, method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool) *bandslim.DB {
	b.Helper()
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	cfg.DisableNAND = !nandOn
	db, err := bandslim.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPutInline32B measures the piggybacked small-write path.
func BenchmarkPutInline32B(b *testing.B) {
	db := openBench(b, bandslim.Piggyback, bandslim.BackfillPacking, true)
	defer db.Close()
	v := make([]byte, 32)
	key := make([]byte, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if err := db.Put(key, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutPRP4K measures the page-unit DMA write path.
func BenchmarkPutPRP4K(b *testing.B) {
	db := openBench(b, bandslim.Baseline, bandslim.Block, true)
	defer db.Close()
	v := make([]byte, 4096)
	key := make([]byte, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if err := db.Put(key, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutAdaptiveMixgraph measures the full adaptive path on the
// production-like size distribution.
func BenchmarkPutAdaptiveMixgraph(b *testing.B) {
	db := openBench(b, bandslim.Adaptive, bandslim.BackfillPacking, true)
	defer db.Close()
	gen := workload.NewWorkloadM(b.N+1, 3)
	filler := workload.NewValueFiller(1)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, ok := gen.Next()
		if !ok {
			b.Fatal("generator exhausted")
		}
		buf = filler.Fill(buf, op.N)
		if err := db.Put(op.Key, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHot measures point lookups resolved from the MemTable/buffer.
func BenchmarkGetHot(b *testing.B) {
	db := openBench(b, bandslim.Adaptive, bandslim.BackfillPacking, true)
	defer db.Close()
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%03d", i))
		if err := db.Put(keys[i], make([]byte, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetCold measures lookups that traverse SSTables and NAND reads.
func BenchmarkGetCold(b *testing.B) {
	db := openBench(b, bandslim.Adaptive, bandslim.BackfillPacking, true)
	defer db.Close()
	const n = 8192
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold%05d", i))
		if err := db.Put(keys[i], make([]byte, 64)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[(i*2654435761)%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures the device-side iterator throughput.
func BenchmarkScan(b *testing.B) {
	db := openBench(b, bandslim.Adaptive, bandslim.BackfillPacking, true)
	defer db.Close()
	for i := 0; i < 4096; i++ {
		if err := db.Put([]byte(fmt.Sprintf("s%05d", i)), make([]byte, 32)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	it, err := db.NewIterator(nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if !it.Valid() {
			it, err = db.NewIterator(nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		it.Next()
	}
	if it.Err() != nil {
		b.Fatal(it.Err())
	}
}

// BenchmarkCalibrate measures the §3.2 threshold-calibration probe.
func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bandslim.CalibrateThresholds(16); err != nil {
			b.Fatal(err)
		}
	}
}
