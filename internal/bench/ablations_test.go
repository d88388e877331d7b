package bench

import "testing"

func TestAblationSGLShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationSGL(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	prp, _ := tb.Column("PRP_resp_us")
	sgl, _ := tb.Column("SGL_resp_us")
	// SGL loses badly at KVS-typical sizes (rows 0..3: 64 B..8 KiB)...
	for i := 0; i <= 3; i++ {
		if sgl[i] <= prp[i] {
			t.Errorf("row %d: SGL %.1f not worse than PRP %.1f", i, sgl[i], prp[i])
		}
	}
	// ...and wins at 48 KiB (last row), past the Linux sgl_threshold.
	last := len(prp) - 1
	if sgl[last] >= prp[last] {
		t.Errorf("48K: SGL %.1f not better than PRP %.1f", sgl[last], prp[last])
	}
	// SGL traffic is exact-byte (≪ PRP) for small values.
	pt, _ := tb.Column("PRP_traffic_KB_op")
	st, _ := tb.Column("SGL_traffic_KB_op")
	if st[0] >= pt[0]/10 {
		t.Errorf("64B: SGL traffic %.3f not ≪ PRP %.3f", st[0], pt[0])
	}
}

func TestAblationBatchShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationBatch(Options{Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Batching's throughput grows with batch size, but so does the
	// volatile window; BandSlim keeps the window at zero.
	k8, _ := tb.Cell("batch=8", "Kops")
	k256, _ := tb.Cell("batch=256", "Kops")
	if k256 <= k8 {
		t.Errorf("batch=256 Kops %.1f not above batch=8 %.1f", k256, k8)
	}
	r256, _ := tb.Cell("batch=256", "at_risk_ops")
	if r256 != 256 {
		t.Errorf("batch=256 at-risk ops = %v", r256)
	}
	rSlim, _ := tb.Cell("bandslim(adaptive+backfill)", "at_risk_ops")
	if rSlim != 0 {
		t.Errorf("bandslim at-risk ops = %v, want 0", rSlim)
	}
	// BandSlim still crushes the stock configuration.
	slim, _ := tb.Cell("bandslim(adaptive+backfill)", "Kops")
	stock, _ := tb.Cell("stock(baseline+block)", "Kops")
	if slim < 3*stock {
		t.Errorf("bandslim %.1f not ≫ stock %.1f", slim, stock)
	}
}

func TestAblationDLTShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationDLT(Options{Scale: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// Throughput must not degrade as the DLT grows to the paper's 512.
	k2, _ := tb.Cell("2", "Kops")
	k512, _ := tb.Cell("512", "Kops")
	if k512 < k2 {
		t.Errorf("512-entry DLT Kops %.1f below 2-entry %.1f", k512, k2)
	}
	j2, _ := tb.Cell("2", "backfill_jumps")
	j512, _ := tb.Cell("512", "backfill_jumps")
	if j512 < j2 {
		t.Errorf("larger DLT produced fewer jumps: %v vs %v", j512, j2)
	}
}

func TestAblationBufferShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationBuffer(Options{Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r8, _ := tb.Cell("8", "resp_us")
	r512, _ := tb.Cell("512", "resp_us")
	if r512 > r8 {
		t.Errorf("512-entry buffer response %.1f worse than 8-entry %.1f", r512, r8)
	}
}

func TestAblationAlphaShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationAlpha(Options{Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	traffic, _ := tb.Column("traffic_MB")
	inline, _ := tb.Column("inline_fraction")
	// Traffic strictly decreases and the inline fraction strictly grows
	// with alpha (§3.2's user dial).
	for i := 1; i < len(traffic); i++ {
		if traffic[i] >= traffic[i-1] {
			t.Errorf("traffic not decreasing at row %d: %v", i, traffic)
		}
		if inline[i] < inline[i-1] {
			t.Errorf("inline fraction not growing at row %d: %v", i, inline)
		}
	}
}

func TestAblationNANDRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationNAND(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := tb.Column("resp_us")
	// 16 KiB writes stay tPROG-bound (~400 µs) across geometries.
	for i, r := range resp {
		if r < 350 || r > 450 {
			t.Errorf("row %d: response %.1f not tPROG-bound", i, r)
		}
	}
}

func TestAblationPipelineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunAblationPipeline(Options{Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := tb.Column("PiggySerial_resp_us")
	pipe, _ := tb.Column("PiggyPipe_resp_us")
	prp, _ := tb.Column("PRP_resp_us")
	// Pipelining must dominate serial piggybacking once trailing commands
	// appear, by a growing factor.
	for i := 1; i < len(serial); i++ {
		if pipe[i] >= serial[i] {
			t.Errorf("row %d: pipelined %.1f not below serial %.1f", i, pipe[i], serial[i])
		}
	}
	if serial[4]/pipe[4] < 3 {
		t.Errorf("2K: pipeline speedup %.2fx, want >3x", serial[4]/pipe[4])
	}
	// Pipelined piggybacking stays competitive with PRP far beyond 128 B.
	if pipe[2] > 1.5*prp[2] {
		t.Errorf("512B: pipelined %.1f not competitive with PRP %.1f", pipe[2], prp[2])
	}
	// One SQ + one CQ doorbell per PUT: 8 B of MMIO regardless of size
	// (until the burst splits).
	mmio, _ := tb.Column("PiggyPipe_mmio_B_op")
	if mmio[0] != 8 {
		t.Errorf("pipelined MMIO %v B/op, want 8", mmio[0])
	}
}

func TestBreakdownShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunBreakdown(Options{Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Block's response is flush-wait dominated; All's extra cost over the
	// selective policies is memcpy; components never exceed the total.
	for _, p := range []string{"Block", "All", "Select", "Backfill"} {
		total, _ := tb.Cell(p, "total_us")
		mc, _ := tb.Cell(p, "memcpy_us")
		fw, _ := tb.Cell(p, "flushwait_us")
		if mc+fw > total+0.01 {
			t.Errorf("%s: components %.2f+%.2f exceed total %.2f", p, mc, fw, total)
		}
	}
	bfw, _ := tb.Cell("Block", "flushwait_us")
	btot, _ := tb.Cell("Block", "total_us")
	if bfw < 0.5*btot {
		t.Errorf("Block flush wait %.1f not dominant in %.1f", bfw, btot)
	}
	amc, _ := tb.Cell("All", "memcpy_us")
	smc, _ := tb.Cell("Select", "memcpy_us")
	if amc <= smc {
		t.Errorf("All memcpy %.2f not above Select %.2f", amc, smc)
	}
}

func TestScanPathShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunScanPath(Options{Scale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := tb.Cell("Block", "nand_reads_per_value")
	all, _ := tb.Cell("All", "nand_reads_per_value")
	// Block: 4 values per 16 KiB page → 0.25 reads per value. All: ~31
	// values per page → ~0.03.
	if blk < 0.2 || blk > 0.3 {
		t.Errorf("Block reads/value = %v, want ~0.25", blk)
	}
	if all >= blk/4 {
		t.Errorf("All reads/value = %v not ≪ Block %v", all, blk)
	}
}

func TestReadPathShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiment")
	}
	tb, err := RunReadPath(Options{Scale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// A 32 B GET still moves a full 4 KiB page device-to-host (the read
	// mirror of Problem #1).
	traffic, _ := tb.Cell("32", "read_traffic_B_op")
	if traffic != 4096 {
		t.Errorf("32B GET read traffic %v, want 4096", traffic)
	}
	big, _ := tb.Cell("8K", "read_traffic_B_op")
	if big != 8192 {
		t.Errorf("8K GET read traffic %v, want 8192", big)
	}
	reads, _ := tb.Cell("32", "nand_reads_op")
	if reads < 1 || reads > 4 {
		t.Errorf("nand reads per GET = %v", reads)
	}
}
