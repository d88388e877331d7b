package bench

import (
	"fmt"

	"bandslim"
	"bandslim/internal/shard"
	"bandslim/internal/workload"
)

// valueSizesFig8 are the x points of Fig. 8 and Fig. 11.
var valueSizesFig8 = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// sizeLabel renders a byte count the way the paper's x axes do.
func sizeLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// RunFig3 reproduces Fig. 3: (a) total PCIe traffic and average transfer
// response for 1–16 KiB values on the baseline KV-SSD with NAND I/O
// disabled, and (b) the Traffic Amplification Factor for 32 B–1 KiB values.
func RunFig3(o Options) (*Table, *Table, error) {
	o = o.normalized()
	a := &Table{
		ID: "fig3a", Title: "Total PCIe Traffic & Avg. Response Time (Baseline)",
		XLabel:  "value size (KB)",
		Columns: []string{"traffic_GB", "response_us"},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M); traffic scales linearly", o.Scale),
			"traffic doubles at every 4 KiB boundary (page-unit PRP transfers)",
		},
	}
	for kb := 1; kb <= 16; kb++ {
		res, err := run(workload.NewFillSeq(o.Scale, kb*1024), bandslim.Baseline, bandslim.Block, false)
		if err != nil {
			return nil, nil, err
		}
		a.AddRow(fmt.Sprintf("%d", kb),
			gb(res.Stats.PCIe.Bytes),
			res.Stats.Host.WriteResp.Mean.Micros())
	}
	b := &Table{
		ID: "fig3b", Title: "PCIe Traffic Amplification Factor (Baseline)",
		XLabel:  "value size (B)",
		Columns: []string{"TAF"},
		Notes:   []string{"paper: 130.0 / 65.0 / 32.5 / 16.3 / 8.1 / 4.1"},
	}
	for _, size := range []int{32, 64, 128, 256, 512, 1024} {
		res, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Baseline, bandslim.Block, false)
		if err != nil {
			return nil, nil, err
		}
		b.AddRow(sizeLabel(size), res.Stats.TrafficAmplification(res.PayloadBytes))
	}
	return a, b, nil
}

// RunFig4 reproduces Fig. 4: (a) total NAND page writes and average write
// response for 1–16 KiB values with NAND enabled, and (b) the Write
// Amplification Factor for 32 B–1 KiB values (which includes LSM-tree
// flush/compaction writes, as the paper notes).
func RunFig4(o Options) (*Table, *Table, error) {
	o = o.normalized()
	a := &Table{
		ID: "fig4a", Title: "Total NAND Page Writes & Avg. Write Response (Baseline)",
		XLabel:  "value size (KB)",
		Columns: []string{"nand_io", "response_us"},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M); counts scale linearly", o.Scale),
			"write responses are NAND-program dominated (>10x transfer responses)",
		},
	}
	for kb := 1; kb <= 16; kb++ {
		res, err := run(workload.NewFillSeq(o.Scale, kb*1024), bandslim.Baseline, bandslim.Block, true)
		if err != nil {
			return nil, nil, err
		}
		a.AddRow(fmt.Sprintf("%d", kb),
			float64(res.Stats.Device.NANDPageWrites),
			res.Stats.Host.WriteResp.Mean.Micros())
	}
	b := &Table{
		ID: "fig4b", Title: "NAND Write Amplification Factor (Baseline)",
		XLabel:  "value size (B)",
		Columns: []string{"WAF"},
		Notes:   []string{"paper: 129.9 / 64.9 / 32.4 / 16.2 / 8.1 / 4.0 (incl. compaction writes)"},
	}
	for _, size := range []int{32, 64, 128, 256, 512, 1024} {
		res, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Baseline, bandslim.Block, true)
		if err != nil {
			return nil, nil, err
		}
		b.AddRow(sizeLabel(size), res.Stats.WriteAmplification(res.PayloadBytes, 16*1024))
	}
	return a, b, nil
}

// RunFig8 reproduces Fig. 8: total PCIe traffic and average response for
// Baseline vs Piggyback across 4 B–4 KiB values, NAND disabled.
func RunFig8(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "fig8", Title: "PCIe Traffic & Response: Baseline vs Piggyback (NAND off)",
		XLabel: "value size (B)",
		Columns: []string{
			"Baseline_traffic_GB", "Piggyback_traffic_GB",
			"Baseline_resp_us", "Piggyback_resp_us",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M)", o.Scale),
			"piggyback traffic overtakes baseline at 4K (trailing-command overhead)",
		},
	}
	for _, size := range valueSizesFig8 {
		base, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Baseline, bandslim.Block, false)
		if err != nil {
			return nil, err
		}
		pig, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Piggyback, bandslim.Block, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(sizeLabel(size),
			gb(base.Stats.PCIe.Bytes), gb(pig.Stats.PCIe.Bytes),
			base.Stats.Host.WriteResp.Mean.Micros(), pig.Stats.Host.WriteResp.Mean.Micros())
	}
	return t, nil
}

// RunFig9 reproduces Fig. 9: PCIe traffic (a) and response (b) for values of
// 4 KiB plus trailing bytes from 4 B to 4 KiB, under Baseline, Piggyback and
// Hybrid, NAND disabled.
func RunFig9(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "fig9", Title: "Hybrid Transfer: 4K+trailing-byte values (NAND off)",
		XLabel: "trailing bytes after 4KB",
		Columns: []string{
			"Baseline_traffic_GB", "Piggyback_traffic_GB", "Hybrid_traffic_GB",
			"Baseline_resp_us", "Piggyback_resp_us", "Hybrid_resp_us",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M)", o.Scale),
			"hybrid: first 4K by page-unit DMA, tail piggybacked in 56B commands",
		},
	}
	for _, tail := range valueSizesFig8 {
		size := 4096 + tail
		base, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Baseline, bandslim.Block, false)
		if err != nil {
			return nil, err
		}
		pig, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Piggyback, bandslim.Block, false)
		if err != nil {
			return nil, err
		}
		hyb, err := run(workload.NewFillSeq(o.Scale, size), bandslim.Hybrid, bandslim.Block, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(sizeLabel(tail),
			gb(base.Stats.PCIe.Bytes), gb(pig.Stats.PCIe.Bytes), gb(hyb.Stats.PCIe.Bytes),
			base.Stats.Host.WriteResp.Mean.Micros(), pig.Stats.Host.WriteResp.Mean.Micros(), hyb.Stats.Host.WriteResp.Mean.Micros())
	}
	return t, nil
}

// RunFig10 reproduces Fig. 10: response time (a), throughput (b), PCIe
// traffic (c) and host MMIO traffic (d) for Workloads B, C, D, M under
// Baseline, Piggyback and Adaptive transfer, NAND disabled (§4.2).
func RunFig10(o Options) ([]*Table, error) {
	o = o.normalized()
	methods := []struct {
		name string
		m    bandslim.TransferMethod
	}{
		{"Baseline", bandslim.Baseline},
		{"Piggyback", bandslim.Piggyback},
		{"Adaptive", bandslim.Adaptive},
	}
	mk := func(id, title string, unit string) *Table {
		return &Table{
			ID: id, Title: title, XLabel: "method",
			Columns: workloadLabels,
			Notes:   []string{fmt.Sprintf("scale=%d ops (paper: 1M); values in %s", o.Scale, unit)},
		}
	}
	resp := mk("fig10a", "Average Response Time by Transfer Method", "us")
	thr := mk("fig10b", "Average Throughput by Transfer Method", "Kops/s")
	traf := mk("fig10c", "Total PCIe Traffic by Transfer Method", "GB")
	traf.Notes = append(traf.Notes,
		"counts all TLPs (commands, DMA, completions, doorbells), as Intel PCM does")
	mmio := mk("fig10d", "Total Host MMIO Traffic by Transfer Method", "MB")
	for _, m := range methods {
		cells := struct{ resp, thr, traf, mmio []float64 }{}
		for wi := range workloadLabels {
			gen := workloadsBCDM(o)[wi]
			res, err := run(gen, m.m, bandslim.Block, false)
			if err != nil {
				return nil, err
			}
			cells.resp = append(cells.resp, res.Stats.Host.WriteResp.Mean.Micros())
			cells.thr = append(cells.thr, res.Stats.Host.ThroughputKops)
			cells.traf = append(cells.traf, gb(res.Stats.PCIe.TotalBytes))
			cells.mmio = append(cells.mmio, mb(res.Stats.PCIe.MMIOBytes))
		}
		resp.AddRow(m.name, cells.resp...)
		thr.AddRow(m.name, cells.thr...)
		traf.AddRow(m.name, cells.traf...)
		mmio.AddRow(m.name, cells.mmio...)
	}
	return []*Table{resp, thr, traf, mmio}, nil
}

// RunFig11 reproduces Fig. 11: NAND page I/O counts (a) and write response
// (b) for 4 B–4 KiB fillseq under four configurations — Baseline (PRP +
// Block), Piggyback (inline + Block), Packing (PRP + All Packing), and
// Piggy+Pack (inline + All Packing) — with NAND enabled.
func RunFig11(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "fig11", Title: "NAND Page I/O & Write Response (All Packing, NAND on)",
		XLabel: "value size (B)",
		Columns: []string{
			"Baseline_nand_io", "Piggyback_nand_io", "Packing_nand_io", "PiggyPack_nand_io",
			"Baseline_resp_us", "Piggyback_resp_us", "Packing_resp_us", "PiggyPack_resp_us",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 10M); counts scale linearly", o.Scale),
			"NAND I/O includes LSM flush/compaction writes",
		},
	}
	configs := []struct {
		method bandslim.TransferMethod
		policy bandslim.PackingPolicy
	}{
		{bandslim.Baseline, bandslim.Block},
		{bandslim.Piggyback, bandslim.Block},
		{bandslim.Baseline, bandslim.AllPacking},
		{bandslim.Piggyback, bandslim.AllPacking},
	}
	for _, size := range valueSizesFig8 {
		var nandIO, resp []float64
		for _, c := range configs {
			res, err := run(workload.NewFillSeq(o.Scale, size), c.method, c.policy, true)
			if err != nil {
				return nil, err
			}
			nandIO = append(nandIO, float64(res.Stats.Device.NANDPageWrites))
			resp = append(resp, res.Stats.Host.WriteResp.Mean.Micros())
		}
		t.AddRow(sizeLabel(size), append(nandIO, resp...)...)
	}
	return t, nil
}

// RunFig12 reproduces Fig. 12: response time (a), throughput (b), NAND I/O
// count (c), and average per-request memcpy time (d) for the four packing
// policies under adaptive transfer, across Workloads B, C, D, M.
func RunFig12(o Options) ([]*Table, error) {
	o = o.normalized()
	policies := []string{"Block", "All", "Select", "Backfill"}
	mk := func(id, title, unit string) *Table {
		return &Table{
			ID: id, Title: title, XLabel: "policy",
			Columns: workloadLabels,
			Notes:   []string{fmt.Sprintf("scale=%d ops (paper: 1M); values in %s", o.Scale, unit)},
		}
	}
	resp := mk("fig12a", "Average Response Time by Packing Policy", "us")
	thr := mk("fig12b", "Average Throughput by Packing Policy", "Kops/s")
	nandIO := mk("fig12c", "Total NAND I/O by Packing Policy", "pages")
	memcpy := mk("fig12d", "Average Memcpy Time per Request", "us")
	for _, p := range policies {
		var r, th, ni, mc []float64
		for wi := range workloadLabels {
			gen := workloadsBCDM(o)[wi]
			res, err := run(gen, bandslim.Adaptive, policyFor[p], true)
			if err != nil {
				return nil, err
			}
			r = append(r, res.Stats.Host.WriteResp.Mean.Micros())
			th = append(th, res.Stats.Host.ThroughputKops)
			ni = append(ni, float64(res.Stats.Device.NANDPageWrites))
			mc = append(mc, res.Stats.Device.MemcpyTime.Micros()/float64(res.Ops))
		}
		resp.AddRow(p, r...)
		thr.AddRow(p, th...)
		nandIO.AddRow(p, ni...)
		memcpy.AddRow(p, mc...)
	}
	return []*Table{resp, thr, nandIO, memcpy}, nil
}

// RunThresholds reproduces the exploratory calibration of §3.2/§4.1: the PUT
// response of each transfer method from 4 B to 8 KiB (NAND disabled), and the
// adaptive thresholds bandslim.CalibrateThresholds derives from the same
// probe (threshold1: where piggybacking stops beating PRP; threshold2: the
// largest over-page tail for which hybrid wins).
func RunThresholds(o Options) ([]*Table, error) {
	o = o.normalized()
	probes := &Table{
		ID: "thresholds", Title: "PUT Response by Transfer Method (NAND off)",
		XLabel:  "value size (B)",
		Columns: []string{"Piggyback_resp_us", "Baseline_resp_us", "Hybrid_resp_us"},
		Notes:   []string{fmt.Sprintf("scale=%d PUTs per probe", o.Scale)},
	}
	for _, size := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 4096 + 32, 4096 + 512, 8192} {
		var resp []float64
		for _, m := range []bandslim.TransferMethod{bandslim.Piggyback, bandslim.Baseline, bandslim.Hybrid} {
			mean, err := shard.ProbePut(m, size, o.Scale)
			if err != nil {
				return nil, err
			}
			resp = append(resp, mean.Micros())
		}
		probes.AddRow(fmt.Sprintf("%d", size), resp...)
	}
	thr, err := bandslim.CalibrateThresholds(o.Scale)
	if err != nil {
		return nil, err
	}
	derived := &Table{
		ID: "thresholds_derived", Title: "Derived Adaptive Thresholds",
		XLabel: "threshold", Columns: []string{"bytes"},
		Notes: []string{"adaptive policy: inline up to alpha*threshold1; hybrid for over-page tails up to beta*threshold2; PRP otherwise"},
	}
	derived.AddRow("threshold1", float64(thr.Threshold1))
	derived.AddRow("threshold2", float64(thr.Threshold2))
	return []*Table{probes, derived}, nil
}
