package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fast options keep the suite quick; shapes are scale-invariant.
func fast() Options { return Options{Scale: 2000, Seed: 42} }

func TestTableHelpers(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", XLabel: "size", Columns: []string{"a", "b"}}
	tb.AddRow("1", 1.5, 2)
	tb.AddRow("2", 3, 4)
	col, err := tb.Column("b")
	if err != nil || len(col) != 2 || col[1] != 4 {
		t.Fatalf("Column = %v, %v", col, err)
	}
	if _, err := tb.Column("nope"); err == nil {
		t.Fatal("missing column accepted")
	}
	v, err := tb.Cell("2", "a")
	if err != nil || v != 3 {
		t.Fatalf("Cell = %v, %v", v, err)
	}
	if _, err := tb.Cell("9", "a"); err == nil {
		t.Fatal("missing row accepted")
	}
	if _, err := tb.Cell("1", "zz"); err == nil {
		t.Fatal("missing cell column accepted")
	}
	out := tb.Format()
	if !strings.Contains(out, "== x: T ==") || !strings.Contains(out, "1.50") {
		t.Fatalf("Format output:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "size,a,b\n1,1.5,2\n") {
		t.Fatalf("CSV output:\n%s", csv)
	}
}

func TestTableAddRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tb := &Table{Columns: []string{"a"}}
	tb.AddRow("x", 1, 2)
}

// The unknown-ID error must offer exactly the IDs Run accepts: both come from
// the one registry.
func TestRunUnknownExperiment(t *testing.T) {
	_, err := Run("fig99", fast())
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if want := fmt.Sprintf("(have %v)", Experiments()); !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q does not end in the registry's IDs %s", err, want)
	}
}

// Fig. 3(b): the TAF must match the paper's arithmetic exactly.
func TestFig3TAFMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	_, tafs, err := RunFig3(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"32": 130.0, "64": 65.0, "128": 32.5, "256": 16.25, "512": 8.125, "1K": 4.0625,
	}
	for label, w := range want {
		got, err := tafs.Cell(label, "TAF")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("TAF(%s) = %v, want %v", label, got, w)
		}
	}
}

// Fig. 3(a): traffic is flat within each 4 KiB band and doubles across the
// 4K→5K boundary; responses cascade the same way.
func TestFig3TrafficCascades(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	a, _, err := RunFig3(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := a.Column("traffic_GB")
	if err != nil {
		t.Fatal(err)
	}
	// Rows are 1..16 KB. Flat 1-4K:
	for i := 1; i < 4; i++ {
		if traffic[i] != traffic[0] {
			t.Fatalf("traffic not flat in first band: %v", traffic[:4])
		}
	}
	// Double at the boundary (command bytes are negligible but present).
	ratio := traffic[4] / traffic[0]
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("4K->5K traffic ratio %.3f, want ~2", ratio)
	}
	resp, _ := a.Column("response_us")
	if !(resp[4] > resp[3] && resp[8] > resp[7] && resp[12] > resp[11]) {
		t.Fatalf("response does not cascade at page boundaries: %v", resp)
	}
}

// Fig. 4: NAND write responses are much larger than transfer responses, and
// the WAF tracks the TAF (§2.4).
func TestFig4WAFTracksTAF(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	a, wafs, err := RunFig4(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	waf32, err := wafs.Cell("32", "WAF")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 129.9 (TAF 130 plus compaction noise). Accept 120–140.
	if waf32 < 120 || waf32 > 140 {
		t.Fatalf("WAF(32) = %v, want ~130", waf32)
	}
	resp, _ := a.Column("response_us")
	// 16 KiB writes are NAND-program bound: >10x the ~28us transfer time.
	if resp[15] < 280 {
		t.Fatalf("16K write response %v us; want NAND-dominated (>280)", resp[15])
	}
}

// Fig. 8: the headline traffic reduction and the response crossovers.
func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunFig8(fast())
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := tb.Column("Baseline_traffic_GB")
	pt, _ := tb.Column("Piggyback_traffic_GB")
	br, _ := tb.Column("Baseline_resp_us")
	pr, _ := tb.Column("Piggyback_resp_us")
	// (1) ≥97.9% traffic reduction for 4–32 B (rows 0..3).
	for i := 0; i < 4; i++ {
		red := 1 - pt[i]/bt[i]
		if red < 0.979 {
			t.Errorf("row %d: traffic reduction %.4f < 0.979", i, red)
		}
	}
	// (2) Piggyback response ≈ half of baseline at ≤32 B.
	for i := 0; i < 4; i++ {
		if r := pr[i] / br[i]; r < 0.35 || r > 0.6 {
			t.Errorf("row %d: response ratio %.3f, want ~0.5", i, r)
		}
	}
	// (3) ≈ equal at 64 B (row 4), worse from 128 B (row 5+).
	if r := pr[4] / br[4]; r < 0.85 || r > 1.15 {
		t.Errorf("64B response ratio %.3f, want ~1", r)
	}
	for i := 5; i < len(pr); i++ {
		if pr[i] <= br[i] {
			t.Errorf("row %d: piggyback response %.1f not worse than baseline %.1f", i, pr[i], br[i])
		}
	}
	// (4) Piggyback traffic approaches baseline by 2K and exceeds it at 4K.
	if pt[9] >= bt[9] {
		t.Errorf("2K: piggyback traffic %.4f already exceeds baseline %.4f", pt[9], bt[9])
	}
	if pt[9] < 0.5*bt[9] {
		t.Errorf("2K: piggyback traffic %.4f not approaching baseline %.4f", pt[9], bt[9])
	}
	if pt[10] <= bt[10] {
		t.Errorf("4K: piggyback traffic %.4f does not exceed baseline %.4f", pt[10], bt[10])
	}
}

// Fig. 9: hybrid is the traffic optimum for small tails and its response
// stays within a few percent of baseline for tails ≤ 64 B.
func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunFig9(fast())
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := tb.Column("Baseline_traffic_GB")
	pt, _ := tb.Column("Piggyback_traffic_GB")
	ht, _ := tb.Column("Hybrid_traffic_GB")
	br, _ := tb.Column("Baseline_resp_us")
	hr, _ := tb.Column("Hybrid_resp_us")
	// Hybrid traffic ≈ half of baseline for small tails, and the minimum of
	// the three up to 2K tails.
	for i := 0; i <= 9; i++ {
		if ht[i] >= bt[i] || ht[i] > pt[i]+1e-12 {
			t.Errorf("tail row %d: hybrid %.4f not optimal (base %.4f, piggy %.4f)", i, ht[i], bt[i], pt[i])
		}
	}
	if r := ht[0] / bt[0]; r > 0.55 {
		t.Errorf("4B tail: hybrid/baseline traffic %.3f, want ~0.5", r)
	}
	// Response within ~5% of baseline while the tail fits one transfer
	// command (rows 0..3 = tails 4..32 B); modest lag beyond.
	for i := 0; i <= 3; i++ {
		if r := hr[i] / br[i]; r > 1.05 {
			t.Errorf("tail row %d: hybrid response ratio %.3f > 1.05", i, r)
		}
	}
	if r := hr[4] / br[4]; r > 1.5 {
		t.Errorf("64B tail: hybrid response ratio %.3f > 1.5", r)
	}
	// Piggyback is far worse in response at over-page sizes.
	pr, _ := tb.Column("Piggyback_resp_us")
	if pr[0] < 5*br[0] {
		t.Errorf("piggyback response %.1f not clearly worse than baseline %.1f", pr[0], br[0])
	}
}

// Fig. 10: adaptive wins throughput in every workload; piggyback wins
// traffic; piggyback beats baseline response on the real-world W(M); MMIO
// explodes for piggyback under large values.
func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tables, err := RunFig10(fast())
	if err != nil {
		t.Fatal(err)
	}
	resp, thr, traf, mmio := tables[0], tables[1], tables[2], tables[3]
	for _, w := range workloadLabels {
		at, _ := thr.Cell("Adaptive", w)
		bt, _ := thr.Cell("Baseline", w)
		pt, _ := thr.Cell("Piggyback", w)
		if at < bt || at < pt {
			t.Errorf("%s: adaptive throughput %.1f not best (base %.1f, piggy %.1f)", w, at, bt, pt)
		}
		ptr, _ := traf.Cell("Piggyback", w)
		btr, _ := traf.Cell("Baseline", w)
		atr, _ := traf.Cell("Adaptive", w)
		if ptr >= btr || ptr > atr {
			t.Errorf("%s: piggyback traffic %.4f not lowest", w, ptr)
		}
	}
	// W(M): piggyback response beats baseline (paper: ~22% better).
	pm, _ := resp.Cell("Piggyback", "W(M)")
	bm, _ := resp.Cell("Baseline", "W(M)")
	if pm >= bm {
		t.Errorf("W(M): piggyback response %.2f not better than baseline %.2f", pm, bm)
	}
	// W(C): piggyback response collapses (paper: adaptive ~13x piggyback
	// throughput).
	pc, _ := thr.Cell("Piggyback", "W(C)")
	ac, _ := thr.Cell("Adaptive", "W(C)")
	if ac < 5*pc {
		t.Errorf("W(C): adaptive %.1f not ≫ piggyback %.1f", ac, pc)
	}
	// MMIO: piggyback ≫ baseline in W(C); baseline constant across
	// workloads.
	pmm, _ := mmio.Cell("Piggyback", "W(C)")
	bmm, _ := mmio.Cell("Baseline", "W(C)")
	if pmm < 10*bmm {
		t.Errorf("W(C): piggyback MMIO %.4f not ≫ baseline %.4f", pmm, bmm)
	}
	b0, _ := mmio.Cell("Baseline", "W(B)")
	b1, _ := mmio.Cell("Baseline", "W(M)")
	if b0 != b1 {
		t.Errorf("baseline MMIO varies across workloads: %v vs %v", b0, b1)
	}
	// Headline: W(M) piggyback traffic reduction vs baseline ≥ 90%
	// (paper: 97.9% — our mixgraph approximation lands close).
	pmt, _ := traf.Cell("Piggyback", "W(M)")
	bmt, _ := traf.Cell("Baseline", "W(M)")
	if red := 1 - pmt/bmt; red < 0.90 {
		t.Errorf("W(M) piggyback traffic reduction %.4f < 0.90", red)
	}
}

// Fig. 11: fine-grained packing slashes NAND I/O ≥98% for ≤32 B values and
// response follows.
func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunFig11(fast())
	if err != nil {
		t.Fatal(err)
	}
	bn, _ := tb.Column("Baseline_nand_io")
	pn, _ := tb.Column("Packing_nand_io")
	ppn, _ := tb.Column("PiggyPack_nand_io")
	br, _ := tb.Column("Baseline_resp_us")
	pr, _ := tb.Column("Packing_resp_us")
	ppr, _ := tb.Column("PiggyPack_resp_us")
	for i := 0; i < 4; i++ { // 4..32 B
		if red := 1 - pn[i]/bn[i]; red < 0.98 {
			t.Errorf("row %d: packing NAND reduction %.4f < 0.98 (paper: 98.1%%)", i, red)
		}
		if red := 1 - ppn[i]/bn[i]; red < 0.98 {
			t.Errorf("row %d: piggy+pack NAND reduction %.4f < 0.98", i, red)
		}
		if pr[i] >= br[i]*0.6 {
			t.Errorf("row %d: packing response %.1f not ≪ baseline %.1f", i, pr[i], br[i])
		}
		if ppr[i] >= pr[i] {
			t.Errorf("row %d: piggy+pack response %.1f not below packing %.1f", i, ppr[i], pr[i])
		}
	}
	// Piggy+Pack response blows up with trailing commands and overtakes the
	// NAND-bound baseline by 1 KiB (row 8), as the paper's Fig. 11(b) shows.
	if ppr[8] < br[8] {
		t.Errorf("1K: piggy+pack response %.1f not above baseline %.1f", ppr[8], br[8])
	}
	if ppr[8] <= ppr[5] {
		t.Errorf("piggy+pack response not rising with size: %.1f at 128B vs %.1f at 1K", ppr[5], ppr[8])
	}
}

// Fig. 12: the packing-policy orderings of §4.3.
func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tables, err := RunFig12(Options{Scale: 6000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, thr, nandIO, memcpy := tables[0], tables[1], tables[2], tables[3]
	// Block is the worst throughput in every workload.
	for _, w := range workloadLabels {
		blk, _ := thr.Cell("Block", w)
		for _, p := range []string{"All", "Select", "Backfill"} {
			v, _ := thr.Cell(p, w)
			if v <= blk {
				t.Errorf("%s: %s throughput %.1f not above Block %.1f", w, p, v, blk)
			}
		}
	}
	// W(C): All Packing wins; Select and Backfill degrade toward Block.
	allC, _ := thr.Cell("All", "W(C)")
	selC, _ := thr.Cell("Select", "W(C)")
	bkC, _ := thr.Cell("Backfill", "W(C)")
	if allC <= selC || allC <= bkC {
		t.Errorf("W(C): All %.1f must beat Select %.1f and Backfill %.1f", allC, selC, bkC)
	}
	// W(B): Backfill is the best policy (paper: ~7%% over All).
	allB, _ := thr.Cell("All", "W(B)")
	bkB, _ := thr.Cell("Backfill", "W(B)")
	if bkB <= allB {
		t.Errorf("W(B): Backfill %.1f not above All %.1f", bkB, allB)
	}
	// W(M): Backfill within a few percent of the best.
	allM, _ := thr.Cell("All", "W(M)")
	bkM, _ := thr.Cell("Backfill", "W(M)")
	if bkM < 0.9*allM {
		t.Errorf("W(M): Backfill %.1f more than 10%% below All %.1f", bkM, allM)
	}
	// NAND I/O: All is the densest policy everywhere.
	for _, w := range workloadLabels {
		av, _ := nandIO.Cell("All", w)
		for _, p := range []string{"Block", "Select", "Backfill"} {
			v, _ := nandIO.Cell(p, w)
			if v < av {
				t.Errorf("%s: %s NAND %.0f below All %.0f", w, p, v, av)
			}
		}
	}
	// Memcpy time: All ≫ the selective policies, and increases in the
	// paper's order M < B < D < C.
	for _, w := range workloadLabels {
		am, _ := memcpy.Cell("All", w)
		sm, _ := memcpy.Cell("Select", w)
		if am <= sm {
			t.Errorf("%s: All memcpy %.2f not above Select %.2f", w, am, sm)
		}
	}
	mM, _ := memcpy.Cell("All", "W(M)")
	mB, _ := memcpy.Cell("All", "W(B)")
	mD, _ := memcpy.Cell("All", "W(D)")
	mC, _ := memcpy.Cell("All", "W(C)")
	if !(mM < mB && mB < mD && mD < mC) {
		t.Errorf("All memcpy order M<B<D<C violated: %v %v %v %v", mM, mB, mD, mC)
	}
}

// The abstract's headline numbers: ≥97.9% PCIe-traffic reduction and ≥98.1%
// NAND-write reduction for small values.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	f8, err := RunFig8(fast())
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := f8.Cell("32", "Baseline_traffic_GB")
	pt, _ := f8.Cell("32", "Piggyback_traffic_GB")
	if red := 1 - pt/bt; red < 0.979 {
		t.Errorf("headline traffic reduction %.4f < 0.979", red)
	}
	f11, err := RunFig11(fast())
	if err != nil {
		t.Fatal(err)
	}
	bn, _ := f11.Cell("32", "Baseline_nand_io")
	pn, _ := f11.Cell("32", "PiggyPack_nand_io")
	if red := 1 - pn/bn; red < 0.981 {
		t.Errorf("headline NAND reduction %.4f < 0.981", red)
	}
}
