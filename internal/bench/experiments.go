package bench

import (
	"fmt"
	"strconv"

	"bandslim"
	"bandslim/internal/shard"
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

// fig3a and fig3b reproduce Fig. 3: (a) total PCIe traffic and average
// transfer response for 1–16 KiB values on the baseline KV-SSD with NAND I/O
// disabled, and (b) the Traffic Amplification Factor for 32 B–1 KiB values.
func fig3a(o Options) grid {
	return baselineFills(false, "value size (KB)", kibFills(o), gridTable{
		id: "fig3a", title: "Total PCIe Traffic & Avg. Response Time (Baseline)",
		notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M); traffic scales linearly", o.Scale),
			"traffic doubles at every 4 KiB boundary (page-unit PRP transfers)",
		},
		cols: []column{{"traffic_GB", 0, trafficGB}, {"response_us", 0, respUs}},
	})
}

func fig3b(o Options) grid {
	return baselineFills(false, "value size (B)", fills(o, 32, 64, 128, 256, 512, 1024), gridTable{
		id: "fig3b", title: "PCIe Traffic Amplification Factor (Baseline)",
		notes: []string{"paper: 130.0 / 65.0 / 32.5 / 16.3 / 8.1 / 4.1"},
		cols:  []column{{"TAF", 0, func(r runResult) float64 { return r.Stats.TrafficAmplification(r.PayloadBytes) }}},
	})
}

// fig4a and fig4b reproduce Fig. 4: (a) total NAND page writes and average
// write response for 1–16 KiB values with NAND enabled, and (b) the Write
// Amplification Factor for 32 B–1 KiB values (which includes LSM-tree
// flush/compaction writes, as the paper notes).
func fig4a(o Options) grid {
	return baselineFills(true, "value size (KB)", kibFills(o), gridTable{
		id: "fig4a", title: "Total NAND Page Writes & Avg. Write Response (Baseline)",
		notes: []string{
			fmt.Sprintf("scale=%d ops per point (paper: 1M); counts scale linearly", o.Scale),
			"write responses are NAND-program dominated (>10x transfer responses)",
		},
		cols: []column{{"nand_io", 0, nandIO}, {"response_us", 0, respUs}},
	})
}

func fig4b(o Options) grid {
	return baselineFills(true, "value size (B)", fills(o, 32, 64, 128, 256, 512, 1024), gridTable{
		id: "fig4b", title: "NAND Write Amplification Factor (Baseline)",
		notes: []string{"paper: 129.9 / 64.9 / 32.4 / 16.2 / 8.1 / 4.0 (incl. compaction writes)"},
		cols:  []column{{"WAF", 0, func(r runResult) float64 { return r.Stats.WriteAmplification(r.PayloadBytes, 16*1024) }}},
	})
}

// baselineFills is one Fig. 3/4 panel: fillseq on the stock Baseline +
// Block stack.
func baselineFills(nandOn bool, xlabel string, rows []axis, t gridTable) grid {
	base := point{cfg: benchConfig(bandslim.Baseline, bandslim.Block, nandOn)}
	return grid{xlabel: xlabel, base: base, rows: rows, tables: []gridTable{t}}
}

// kibFills are the x rows of Fig. 3(a)/4(a): fillseq of 1–16 KiB values,
// labelled in KiB.
func kibFills(o Options) []axis {
	return axes([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, strconv.Itoa,
		func(p *point, kb int) { p.scenario = fillSeq(o, kb*1024) })
}

// fig8 reproduces Fig. 8: total PCIe traffic and average response for
// Baseline vs Piggyback across 4 B–4 KiB values, NAND disabled.
func fig8(o Options) grid {
	setups := []axis{method("Baseline", bandslim.Baseline), method("Piggyback", bandslim.Piggyback)}
	return grid{
		xlabel: "value size (B)",
		base:   point{cfg: benchConfig(bandslim.Baseline, bandslim.Block, false)},
		rows:   fills(o, valueSizesFig8...),
		setups: setups,
		tables: []gridTable{{
			id: "fig8", title: "PCIe Traffic & Response: Baseline vs Piggyback (NAND off)",
			notes: []string{
				fmt.Sprintf("scale=%d ops per point (paper: 1M)", o.Scale),
				"piggyback traffic overtakes baseline at 4K (trailing-command overhead)",
			},
			cols: append(series(setups, "traffic_GB", trafficGB), series(setups, "resp_us", respUs)...),
		}},
	}
}

// fig9 reproduces Fig. 9: PCIe traffic (a) and response (b) for values of
// 4 KiB plus trailing bytes from 4 B to 4 KiB, under Baseline, Piggyback and
// Hybrid, NAND disabled.
func fig9(o Options) grid {
	setups := []axis{method("Baseline", bandslim.Baseline), method("Piggyback", bandslim.Piggyback), method("Hybrid", bandslim.Hybrid)}
	return grid{
		xlabel: "trailing bytes after 4KB",
		base:   point{cfg: benchConfig(bandslim.Baseline, bandslim.Block, false)},
		rows:   axes(valueSizesFig8, sizeLabel, func(p *point, tail int) { p.scenario = fillSeq(o, 4096+tail) }),
		setups: setups,
		tables: []gridTable{{
			id: "fig9", title: "Hybrid Transfer: 4K+trailing-byte values (NAND off)",
			notes: []string{
				fmt.Sprintf("scale=%d ops per point (paper: 1M)", o.Scale),
				"hybrid: first 4K by page-unit DMA, tail piggybacked in 56B commands",
			},
			cols: append(series(setups, "traffic_GB", trafficGB), series(setups, "resp_us", respUs)...),
		}},
	}
}

// fig10 reproduces Fig. 10: response time (a), throughput (b), PCIe traffic
// (c) and host MMIO traffic (d) for Workloads B, C, D, M under Baseline,
// Piggyback and Adaptive transfer, NAND disabled (§4.2).
func fig10(o Options) grid {
	traffic := byWorkload(o, "fig10c", "Total PCIe Traffic by Transfer Method", "GB",
		func(r runResult) float64 { return gb(r.Stats.PCIe.TotalBytes) })
	traffic.notes = append(traffic.notes,
		"counts all TLPs (commands, DMA, completions, doorbells), as Intel PCM does")
	return grid{
		xlabel: "method",
		base:   point{cfg: benchConfig(bandslim.Baseline, bandslim.Block, false)},
		rows:   []axis{method("Baseline", bandslim.Baseline), method("Piggyback", bandslim.Piggyback), method("Adaptive", bandslim.Adaptive)},
		setups: workloads(o),
		tables: []gridTable{
			byWorkload(o, "fig10a", "Average Response Time by Transfer Method", "us", respUs),
			byWorkload(o, "fig10b", "Average Throughput by Transfer Method", "Kops/s", kops),
			traffic,
			byWorkload(o, "fig10d", "Total Host MMIO Traffic by Transfer Method", "MB",
				func(r runResult) float64 { return mb(r.Stats.PCIe.MMIOBytes) }),
		},
	}
}

// fig11 reproduces Fig. 11: NAND page I/O counts (a) and write response (b)
// for 4 B–4 KiB fillseq under four configurations — Baseline (PRP + Block),
// Piggyback (inline + Block), Packing (PRP + All Packing), and Piggy+Pack
// (inline + All Packing) — with NAND enabled.
func fig11(o Options) grid {
	setups := []axis{
		method("Baseline", bandslim.Baseline),
		method("Piggyback", bandslim.Piggyback),
		{"Packing", func(p *point) { p.cfg.Policy = bandslim.AllPacking }},
		{"PiggyPack", func(p *point) { p.cfg.Method, p.cfg.Policy = bandslim.Piggyback, bandslim.AllPacking }},
	}
	return grid{
		xlabel: "value size (B)",
		base:   point{cfg: benchConfig(bandslim.Baseline, bandslim.Block, true)},
		rows:   fills(o, valueSizesFig8...),
		setups: setups,
		tables: []gridTable{{
			id: "fig11", title: "NAND Page I/O & Write Response (All Packing, NAND on)",
			notes: []string{
				fmt.Sprintf("scale=%d ops per point (paper: 10M); counts scale linearly", o.Scale),
				"NAND I/O includes LSM flush/compaction writes",
			},
			cols: append(series(setups, "nand_io", nandIO), series(setups, "resp_us", respUs)...),
		}},
	}
}

// fig12 reproduces Fig. 12: response time (a), throughput (b), NAND I/O
// count (c), and average per-request memcpy time (d) for the four packing
// policies under adaptive transfer, across Workloads B, C, D, M.
func fig12(o Options) grid {
	return grid{
		xlabel: "policy",
		base:   point{cfg: benchConfig(bandslim.Adaptive, bandslim.Block, true)},
		rows:   policies("Block", "All", "Select", "Backfill"),
		setups: workloads(o),
		tables: []gridTable{
			byWorkload(o, "fig12a", "Average Response Time by Packing Policy", "us", respUs),
			byWorkload(o, "fig12b", "Average Throughput by Packing Policy", "Kops/s", kops),
			byWorkload(o, "fig12c", "Total NAND I/O by Packing Policy", "pages", nandIO),
			byWorkload(o, "fig12d", "Average Memcpy Time per Request", "us", memcpyUs),
		},
	}
}

// byWorkload is a Fig. 10/12 panel: one column per workload setup.
func byWorkload(o Options, id, title, unit string, cell func(runResult) float64) gridTable {
	return gridTable{
		id: id, title: title,
		notes: []string{fmt.Sprintf("scale=%d ops (paper: 1M); values in %s", o.Scale, unit)},
		cols:  series(workloads(o), "", cell),
	}
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
