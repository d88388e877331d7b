package main

// The metric tables. BENCHMARK.json at the repo root must list exactly these
// names, units, directions and bounds (bench_test.go checks it); the tables
// live in code so that -compare needs no file beside the two results.

import (
	"time"

	"bandslim"
	"bandslim/internal/spans"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
	// simUs is the unit of durations on the simulated clock. They are model
	// outputs, quantized by the NAND and PCIe cost model, and repeat exactly
	// from run to run; "us" is kept for times measured on the host.
	simUs = "sim_us"
)

// endToEnd: what a user of the library or server sees, on two clocks. Host-
// clock metrics come from the timed passes (median over timedReps), simulated-clock
// metrics from the traced pass. The two wall/CPU bounds are 0.25, not the
// 0.10 first intended: the shared 2-core sandbox changes speed by 10-17 % over
// minutes (CPU time per op moves with wall time), which no median within a
// run removes. wall_p50_us (spread up to 0.18) and wall_p99_us (0.17-0.31)
// are reported as host.wall_p50_us and host.wall_p99_us instead of being
// gated. trajectory.json has the spreads that justify this.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_kops", "kops/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_bytes_per_op", "B", lower, 0.02},
	{"live_heap_mb", "MiB", lower, 0.05},
	{"sim_kops", "kops/s", higher, 0.05},
	{"sim_p50_us", simUs, lower, 0.05},
	{"sim_p99_us", simUs, lower, 0.05},
	{"sim_p9999_us", simUs, lower, 0.05},
	{"taf", "ratio", lower, 0.05},
	{"waf", "ratio", lower, 0.05},
}

// simulated lists the end-to-end metrics that repeat exactly on an exact
// workload driven by the same seed; -compare checks those for equality.
var simulated = map[string]bool{
	"sim_kops": true, "sim_p50_us": true, "sim_p99_us": true, "sim_p9999_us": true, "taf": true, "waf": true,
}

// perLayer: counters are deltas of Stats()/server.Stats() over the traced
// phase (simulated clock); *_ns, *_kops, *_allocs and the shard/server ratios
// are ladder rungs (host clock); host.* come from the timed pass.
var perLayer = []metricDef{
	{Name: "driver.cmds_per_op", Unit: "count", Better: lower},
	{Name: "driver.inline_share", Unit: "ratio", Better: higher},
	{Name: "driver.prp_share", Unit: "ratio", Better: lower},
	{Name: "driver.hybrid_share", Unit: "ratio", Better: lower},
	{Name: "driver.neg_hits_per_kop", Unit: "count", Better: higher},
	{Name: "driver.retries", Unit: "count", Better: lower},
	{Name: "driver.sim_put_p50_us", Unit: simUs, Better: lower},
	{Name: "driver.sim_put_p99_us", Unit: simUs, Better: lower},
	{Name: "driver.sim_get_p50_us", Unit: simUs, Better: lower},
	{Name: "driver.sim_get_p99_us", Unit: simUs, Better: lower},
	{Name: "driver.put_ns", Unit: "ns", Better: lower},
	{Name: "driver.get_ns", Unit: "ns", Better: lower},

	{Name: "nvme.cmd_bytes_per_op", Unit: "B", Better: lower},
	{Name: "nvme.mmio_bytes_per_op", Unit: "B", Better: lower},
	{Name: "nvme.cpl_bytes_per_op", Unit: "B", Better: lower},
	{Name: "nvme.roundtrip_ns", Unit: "ns", Better: lower},

	{Name: "pcie.bytes_per_op", Unit: "B", Better: lower},
	{Name: "pcie.dma_bytes_per_op", Unit: "B", Better: lower},
	{Name: "pcie.wire_util", Unit: "ratio", Better: lower},

	{Name: "dma.memcpys_per_op", Unit: "count", Better: lower},
	{Name: "dma.memcpy_sim_us_per_op", Unit: simUs, Better: lower},
	{Name: "dma.transfer_in_ns", Unit: "ns", Better: lower},
	{Name: "dma.transfer_out_ns", Unit: "ns", Better: lower},

	{Name: "pagebuf.buffer_util", Unit: "ratio", Better: higher},
	{Name: "pagebuf.forced_flushes_per_kop", Unit: "count", Better: lower},
	{Name: "pagebuf.backfill_jumps_per_kop", Unit: "count", Better: higher},
	{Name: "pagebuf.flush_wait_sim_us_per_op", Unit: simUs, Better: lower},
	{Name: "pagebuf.place_inline_ns", Unit: "ns", Better: lower},
	{Name: "pagebuf.place_dma_ns", Unit: "ns", Better: lower},

	{Name: "vlog.flushes_per_kop", Unit: "count", Better: lower},
	{Name: "vlog.free_frac", Unit: "ratio", Better: higher},
	{Name: "vlog.append_ns", Unit: "ns", Better: lower},
	{Name: "vlog.read_ns", Unit: "ns", Better: lower},

	{Name: "lsm.compactions_per_mop", Unit: "count", Better: lower},
	{Name: "lsm.put_self_ns", Unit: "ns", Better: lower},
	{Name: "lsm.store_ns_per_put", Unit: "ns", Better: lower},
	{Name: "lsm.put_alloc_bytes", Unit: "B", Better: lower},
	{Name: "lsm.get_self_ns", Unit: "ns", Better: lower},
	{Name: "lsm.store_ns_per_get", Unit: "ns", Better: lower},
	{Name: "lsm.pages_per_get", Unit: "count", Better: lower},

	{Name: "ftl.gc_writes_per_kop", Unit: "count", Better: lower},
	{Name: "ftl.write_self_ns", Unit: "ns", Better: lower},
	{Name: "ftl.read_self_ns", Unit: "ns", Better: lower},

	{Name: "nand.page_writes_per_kop", Unit: "count", Better: lower},
	{Name: "nand.page_reads_per_kop", Unit: "count", Better: lower},
	{Name: "nand.erases", Unit: "count", Better: lower},
	{Name: "nand.max_wear", Unit: "count", Better: lower},
	{Name: "nand.program_ns", Unit: "ns", Better: lower},
	{Name: "nand.read_ns", Unit: "ns", Better: lower},
	{Name: "nand.read_alloc_bytes", Unit: "B", Better: lower},

	{Name: "cache.value_hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.page_hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.evictions_per_kop", Unit: "count", Better: lower},
	{Name: "cache.invalidations_per_kop", Unit: "count", Better: lower},
	{Name: "cache.neg_learned_per_kop", Unit: "count", Better: lower},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "cache.put_ns", Unit: "ns", Better: lower},
	{Name: "cache.hit_allocs", Unit: "count", Better: lower},

	{Name: "shard.handoff_ns", Unit: "ns", Better: lower},
	{Name: "shard.contended_handoff_ns", Unit: "ns", Better: lower},
	{Name: "shard.scaling_4_over_1", Unit: "ratio", Better: higher},

	{Name: "db.put_overhead_ns", Unit: "ns", Better: lower},
	{Name: "db.get_overhead_ns", Unit: "ns", Better: lower},

	{Name: "resp.parse_ns_per_cmd", Unit: "ns", Better: lower},
	{Name: "resp.reply_ns", Unit: "ns", Better: lower},
	{Name: "resp.allocs_per_cmd", Unit: "count", Better: lower},

	{Name: "server.stalls", Unit: "count", Better: lower},
	{Name: "server.errors", Unit: "count", Better: lower},
	{Name: "server.bytes_in_per_op", Unit: "B", Better: lower},
	{Name: "server.bytes_out_per_op", Unit: "B", Better: lower},
	{Name: "server.direct_kops", Unit: "kops/s", Better: higher},
	{Name: "server.overhead_us_per_op", Unit: "us", Better: lower},
	{Name: "server.conn_scaling_2_over_1", Unit: "ratio", Better: higher},

	{Name: "spans.host_share", Unit: "ratio", Better: lower},
	{Name: "spans.window_wait_share", Unit: "ratio", Better: lower},
	{Name: "spans.fetch_share", Unit: "ratio", Better: lower},
	{Name: "spans.dev_exec_share", Unit: "ratio", Better: lower},
	{Name: "spans.transfer_share", Unit: "ratio", Better: lower},
	{Name: "spans.nand_share", Unit: "ratio", Better: lower},
	{Name: "spans.coalesce_share", Unit: "ratio", Better: lower},
	{Name: "spans.reap_share", Unit: "ratio", Better: lower},
	{Name: "spans.dev_cache_share", Unit: "ratio", Better: higher},
	{Name: "spans.truncated_events", Unit: "count", Better: lower},
	{Name: "spans.unclaimed_events", Unit: "count", Better: lower},
	{Name: "spans.residual_ns", Unit: "sim_ns", Better: lower},

	{Name: "host.gc_cycles", Unit: "count", Better: lower},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "host.cpu_wall_ratio", Unit: "ratio", Better: lower},
	{Name: "host.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "host.wall_p50_us", Unit: "us", Better: lower},
	{Name: "host.wall_p99_us", Unit: "us", Better: lower},
	{Name: "host.wall_p999_us", Unit: "us", Better: lower},
	{Name: "host.wall_max_us", Unit: "us", Better: lower},
}

func us(ns float64) float64 { return ns / 1000 }

// hostMetrics are one timed pass's end-to-end numbers.
func hostMetrics(p *passResult) map[string]float64 {
	n := float64(p.ops)
	return map[string]float64{
		"wall_kops":          n / p.wall.Seconds() / 1000,
		"cpu_us_per_op":      float64(p.cpu) / float64(time.Microsecond) / n,
		"allocs_per_op":      float64(p.mallocs) / n,
		"alloc_bytes_per_op": float64(p.allocBytes) / n,
		"live_heap_mb":       float64(p.liveHeap) / (1 << 20),
	}
}

// simMetrics are the traced pass's end-to-end numbers. writtenBytes is every
// user value byte written since open, load included.
func simMetrics(p *passResult, writtenBytes int64, nandPage int) map[string]float64 {
	return map[string]float64{
		"sim_kops":     ratio(float64(p.ops), p.simElapsed.Seconds()) / 1000,
		"sim_p50_us":   us(percentile(p.simLat, 0.50)),
		"sim_p99_us":   us(percentile(p.simLat, 0.99)),
		"sim_p9999_us": us(percentile(p.simLat, 0.9999)),
		"taf":          ratio(float64(p.after.PCIe.Bytes-p.before.PCIe.Bytes), float64(p.userBytes)),
		"waf":          ratio(float64(p.after.Device.NANDPageWrites)*float64(nandPage), float64(writtenBytes)),
	}
}

// layerCounters turns the traced pass's counter deltas into per-layer metrics.
// vlogFreeAtOpen is the vlog_free_bytes gauge of the empty stack.
func layerCounters(p *passResult, vlogFreeAtOpen float64) map[string]float64 {
	a, b := p.after, p.before
	n := float64(p.ops)
	per := func(d int64) float64 { return float64(d) / n }
	perK := func(d int64) float64 { return float64(d) / n * 1000 }
	chosen := float64(a.Adaptive.Inline - b.Adaptive.Inline + a.Adaptive.PRP - b.Adaptive.PRP + a.Adaptive.Hybrid - b.Adaptive.Hybrid)
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	pageHits, pageMisses := a.Cache.PageHits-b.Cache.PageHits, a.Cache.PageMisses-b.Cache.PageMisses
	put, get := p.blame.lat["put"], p.blame.lat["get"]
	sortInt64(put)
	sortInt64(get)
	out := map[string]float64{
		"driver.cmds_per_op":      per(a.Host.Commands - b.Host.Commands),
		"driver.inline_share":     ratio(float64(a.Adaptive.Inline-b.Adaptive.Inline), chosen),
		"driver.prp_share":        ratio(float64(a.Adaptive.PRP-b.Adaptive.PRP), chosen),
		"driver.hybrid_share":     ratio(float64(a.Adaptive.Hybrid-b.Adaptive.Hybrid), chosen),
		"driver.neg_hits_per_kop": perK(a.Cache.NegHits - b.Cache.NegHits),
		"driver.retries":          float64(a.Faults.Retries - b.Faults.Retries),
		"driver.sim_put_p50_us":   us(percentile(put, 0.50)),
		"driver.sim_put_p99_us":   us(percentile(put, 0.99)),
		"driver.sim_get_p50_us":   us(percentile(get, 0.50)),
		"driver.sim_get_p99_us":   us(percentile(get, 0.99)),

		"nvme.cmd_bytes_per_op":  per(a.PCIe.CommandBytes - b.PCIe.CommandBytes),
		"nvme.mmio_bytes_per_op": per(a.PCIe.MMIOBytes - b.PCIe.MMIOBytes),
		"nvme.cpl_bytes_per_op":  per(a.PCIe.CompletionBytes - b.PCIe.CompletionBytes),

		"pcie.bytes_per_op":     per(a.PCIe.Bytes - b.PCIe.Bytes),
		"pcie.dma_bytes_per_op": per(a.PCIe.DMABytes - b.PCIe.DMABytes),
		"pcie.wire_util":        p.gauges["wire_utilization"],

		"dma.memcpys_per_op":       per(a.Device.Memcpys - b.Device.Memcpys),
		"dma.memcpy_sim_us_per_op": us(per(int64(a.Device.MemcpyTime - b.Device.MemcpyTime))),

		"pagebuf.buffer_util":              a.Device.BufferUtil,
		"pagebuf.forced_flushes_per_kop":   perK(a.Device.ForcedFlushes - b.Device.ForcedFlushes),
		"pagebuf.backfill_jumps_per_kop":   perK(a.Device.BackfillJumps - b.Device.BackfillJumps),
		"pagebuf.flush_wait_sim_us_per_op": us(per(int64(a.Device.FlushWaitTime - b.Device.FlushWaitTime))),

		"vlog.flushes_per_kop": perK(a.Device.VLogFlushes - b.Device.VLogFlushes),
		"vlog.free_frac":       ratio(p.gauges["vlog_free_bytes"], vlogFreeAtOpen),

		"lsm.compactions_per_mop": perK(a.Device.Compactions-b.Device.Compactions) * 1000,
		"ftl.gc_writes_per_kop":   perK(a.Device.GCWrites - b.Device.GCWrites),

		"nand.page_writes_per_kop": perK(a.Device.NANDPageWrites - b.Device.NANDPageWrites),
		"nand.page_reads_per_kop":  perK(a.Device.NANDPageReads - b.Device.NANDPageReads),
		"nand.erases":              float64(a.Device.BlockErases - b.Device.BlockErases),
		"nand.max_wear":            p.gauges["flash_max_wear"],

		"cache.value_hit_rate":        ratio(float64(hits), float64(hits+misses)),
		"cache.page_hit_rate":         ratio(float64(pageHits), float64(pageHits+pageMisses)),
		"cache.evictions_per_kop":     perK(a.Cache.Evictions - b.Cache.Evictions),
		"cache.invalidations_per_kop": perK(a.Cache.Invalidations - b.Cache.Invalidations),
		"cache.neg_learned_per_kop":   perK(a.Cache.NegLearned - b.Cache.NegLearned),

		"server.stalls":           float64(p.srvAfter.Stalls - p.srvBefore.Stalls),
		"server.errors":           float64(p.srvAfter.Errors - p.srvBefore.Errors),
		"server.bytes_in_per_op":  per(p.srvAfter.BytesIn - p.srvBefore.BytesIn),
		"server.bytes_out_per_op": per(p.srvAfter.BytesOut - p.srvBefore.BytesOut),
		"spans.truncated_events":  float64(p.blame.truncated),
		"spans.unclaimed_events":  float64(p.blame.unclaimed + p.blame.incomplete),
		"spans.residual_ns":       float64(p.blame.residual),
	}
	for s := spans.Stage(0); s < spans.NumStages; s++ {
		out["spans."+s.String()+"_share"] = ratio(float64(p.blame.stage[s]), float64(p.blame.e2e))
	}
	return out
}

// hostLayer are the host.* context numbers of one timed pass.
func hostLayer(p *passResult) map[string]float64 {
	return map[string]float64{
		"host.gc_cycles":      float64(p.gcCycles),
		"host.gc_pause_ms":    float64(p.gcPause) / float64(time.Millisecond),
		"host.cpu_wall_ratio": ratio(float64(p.cpu), float64(p.wall)),
		"host.wall_p50_us":    us(percentile(p.wallLat, 0.50)),
		"host.wall_p99_us":    us(percentile(p.wallLat, 0.99)),
		"host.wall_p999_us":   us(percentile(p.wallLat, 0.999)),
		"host.wall_max_us":    us(percentile(p.wallLat, 1)),
	}
}

// sameCounters reports whether two passes ended in the same simulated state.
func sameCounters(a, b bandslim.Stats) bool {
	a.Trace, b.Trace = bandslim.TraceStats{}, bandslim.TraceStats{}
	return a == b
}
