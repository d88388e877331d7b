package bandslim_test

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// regenerates the experiment at reduced scale and reports the headline
// series as custom metrics), plus micro-benchmarks of the simulator's hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report simulated quantities via b.ReportMetric
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

func reportCells(b *testing.B, t *bench.Table, row, col, metric string, scale float64) {
	b.Helper()
	v, err := t.Cell(row, col)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v*scale, metric)
}

// BenchmarkFig3 regenerates Fig. 3: baseline PCIe traffic cascade and TAF.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, taf, err := bench.RunFig3(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, taf, "32", "TAF", "TAF32B", 1)
			reportCells(b, a, "1", "response_us", "resp1K_us", 1)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: NAND I/O counts and WAF.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, waf, err := bench.RunFig4(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, waf, "32", "WAF", "WAF32B", 1)
			reportCells(b, a, "16", "response_us", "resp16K_us", 1)
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: Baseline vs Piggyback transfer.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.RunFig8(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			bt, _ := t.Cell("32", "Baseline_traffic_GB")
			pt, _ := t.Cell("32", "Piggyback_traffic_GB")
			b.ReportMetric(100*(1-pt/bt), "traffic_reduction_%")
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9: hybrid transfer on over-page values.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.RunFig9(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			bt, _ := t.Cell("32", "Baseline_traffic_GB")
			ht, _ := t.Cell("32", "Hybrid_traffic_GB")
			b.ReportMetric(100*(1-ht/bt), "traffic_reduction_%")
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10: transfer methods across W(B)..W(M).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.RunFig10(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tables[1], "Adaptive", "W(M)", "adaptiveWM_Kops", 1)
			reportCells(b, tables[0], "Piggyback", "W(M)", "piggyWM_resp_us", 1)
		}
	}
}

// BenchmarkFig11 regenerates Fig. 11: fine-grained packing NAND reductions.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.RunFig11(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			bn, _ := t.Cell("32", "Baseline_nand_io")
			pn, _ := t.Cell("32", "Packing_nand_io")
			b.ReportMetric(100*(1-pn/bn), "nand_reduction_%")
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12: the four packing policies.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.RunFig12(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, tables[1], "Backfill", "W(B)", "backfillWB_Kops", 1)
			reportCells(b, tables[1], "All", "W(C)", "allWC_Kops", 1)
		}
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
