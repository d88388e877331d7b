package bandslim

import (
	"fmt"
	"slices"

	"bandslim/internal/metrics"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/spans"
	"bandslim/internal/timeseries"
)

// LatencySummary digests one response-time distribution: the numbers a
// snapshot can carry without exposing the live histogram. The exposition
// (DB.WritePrometheus) carries the full buckets.
type LatencySummary struct {
	Mean sim.Duration
	P99  sim.Duration
}

// latencySummary digests a histogram into the public summary type.
func latencySummary(h *metrics.Histogram) LatencySummary {
	return LatencySummary{Mean: sim.Duration(h.Mean()), P99: sim.Duration(h.P99())}
}

// HostStats are the metrics observed at the driver: operation counts and
// simulated response times.
type HostStats struct {
	Puts, Gets, Deletes int64
	Commands            int64 // NVMe commands issued
	WriteResp           LatencySummary
	ReadResp            LatencySummary
	Elapsed             sim.Duration // simulated time since open
	ThroughputKops      float64      // PUTs per simulated second / 1000
}

// PCIeStats is the interconnect byte ledger (Fig. 3, 8, 9, 10c, 10d).
type PCIeStats struct {
	Bytes           int64 // command fetches + DMA payload (the paper's "PCIe traffic")
	TotalBytes      int64 // + completions and doorbells, as PCM counts TLPs
	DMABytes        int64
	CommandBytes    int64
	MMIOBytes       int64 // doorbell traffic
	CompletionBytes int64
}

// DeviceStats are the in-device metrics (Fig. 4, 11, 12).
type DeviceStats struct {
	NANDPageWrites int64 // total NAND programs, incl. LSM flush/compaction/GC
	NANDPageReads  int64
	BlockErases    int64
	VLogFlushes    int64 // value-log page writes only
	ForcedFlushes  int64
	BackfillJumps  int64
	MemcpyTime     sim.Duration // cumulative device copy time
	FlushWaitTime  sim.Duration // cumulative request time blocked on NAND flushes
	Memcpys        int64
	BufferUtil     float64 // payload bytes / flushed NAND bytes in the vLog
	GCWrites       int64   // FTL block-GC page migrations (not vLog GC relocations)
	Compactions    int64   // L0 merges and level pushes, trivial moves included
	// IndexPageWrites is the LSM's share of NANDPageWrites: the pages of every
	// SSTable written by a flush or a compaction.
	IndexPageWrites int64
	TrivialMoves    int64 // level pushes that re-linked a table instead of rewriting it
	// FilterSkips counts SSTables a Get's bloom filter ruled out (each a page
	// read not made); FilterFalsePositives the filter passes whose page did
	// not hold the key. FilterBytes is the device DRAM the live tables'
	// filters hold.
	FilterSkips          int64
	FilterFalsePositives int64
	FilterBytes          int64
}

// AdaptiveStats count the adaptive method's per-value transfer decisions.
type AdaptiveStats struct {
	Inline, PRP, Hybrid int64
}

// FaultStats count injected faults and the recovery work they triggered.
// All-zero unless Config.Faults armed the injector.
type FaultStats struct {
	NandProgramFaults int64 // injected NAND program failures
	NandReadFaults    int64 // injected NAND read failures
	NandEraseFaults   int64 // injected NAND erase failures
	TransferFaults    int64 // injected DMA transfer errors
	BadBlocks         int64 // NAND blocks retired by the FTL
	FTLRetries        int64 // FTL program redirect-retries after media faults
	PowerCuts         int64 // power cuts taken by the device
	Mounts            int64 // recovery mounts performed
	ReplayedRecords   int64 // MemTable entries replayed at mount
	Retries           int64 // host re-submissions of retryable completions
	RetriesExhausted  int64 // commands that failed every retry
	Recoveries        int64 // host-initiated Recover calls
}

// CacheStats count the tiered read path's activity: device-DRAM value and
// SSTable-page tiers and the strict invalidation protocol. All-zero unless
// Config.Cache arms a tier.
type CacheStats struct {
	Hits          int64 // value-tier hits (reads served from device DRAM)
	Misses        int64 // value-tier misses (reads that walked the LSM)
	PageHits      int64 // SSTable-page-tier hits
	PageMisses    int64 // SSTable-page-tier misses
	Evictions     int64 // entries evicted across both device tiers
	Invalidations int64 // entries dropped by the strict invalidation protocol
	// Deprecated: NegHits always reads 0. Absent keys are answered by the
	// device's per-SSTable filters; there is no host-side negative cache.
	NegHits int64
	// Deprecated: NegLearned always reads 0, for the same reason.
	NegLearned int64
}

// ServerStats count the network front-end's activity: connections, commands
// by opcode, backpressure stalls, and wire bytes. All-zero unless a serving
// process (internal/server) is attached; the simulation core never writes
// these.
type ServerStats struct {
	Accepted int64 // connections accepted since start
	Active   int64 // connections currently open

	// Commands dispatched, by opcode. Other counts unrecognized commands
	// (each also answered with a RESP error).
	Ping, Set, Get, Del, MSet, MGet, Scan, Info, Shutdown, Other int64

	Errors   int64 // RESP error replies written
	Stalls   int64 // backpressure stalls: bursts cut at the window with bytes still buffered
	BytesIn  int64 // bytes read off client sockets
	BytesOut int64 // bytes written to client sockets
}

// TraceStats describe the trace ring's health: how many events it holds and
// how many it evicted. All-zero unless a ring-buffered Recorder is attached
// (Config.Tracer or ShardedConfig.TraceCapacity). A nonzero Dropped means
// span reconstruction over the buffer sees a truncated stream.
type TraceStats struct {
	Buffered int64 // events currently held by the ring
	Dropped  int64 // events evicted after the ring filled
}

// Stats is a point-in-time snapshot of everything the paper measures,
// grouped by where it is measured.
type Stats struct {
	Host     HostStats
	PCIe     PCIeStats
	Device   DeviceStats
	Adaptive AdaptiveStats
	Cache    CacheStats
	Faults   FaultStats
	Server   ServerStats
	Trace    TraceStats
}

// Stats aggregates a point-in-time snapshot across the shards. Each row folds
// by its Desc.Agg, as in the exposition and the series: counters and byte
// ledgers sum exactly, Elapsed (the sim_time_ns gauge) is the max over shard
// clocks, and BufferUtil is the flush-weighted mean; the response latency
// distributions merge exactly (see metrics.Histogram.Merge). Shards are
// snapshotted one after another, each under its own lock. It stays readable
// after Close.
func (db *DB) Stats() Stats {
	snaps := make([]timeseries.Snapshot, len(db.shards))
	db.peek(func(i int, sh *dbShard) { snaps[i] = snapshot(sh.st, stackRows) })
	s := foldStats(snaps)
	s.Trace = db.rings.health()
	return s
}

// ShardStats snapshots shard i's counters (for per-shard balance checks),
// with its Trace the health of that shard's ring recorder. It stays readable
// after Close.
func (db *DB) ShardStats(i int) Stats {
	sh := db.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := foldStats([]timeseries.Snapshot{snapshot(sh.st, stackRows)})
	s.Trace = sh.rings.health()
	return s
}

// stackDescs is stackRows' descriptor column. simTimeCol and bufferUtilCol
// locate the two gauges a Stats carries as Host.Elapsed and
// Device.BufferUtil.
var (
	stackDescs    = rowDescs(stackRows)
	simTimeCol    = slices.IndexFunc(stackDescs, func(d timeseries.Desc) bool { return d.Name == "sim_time_ns" })
	bufferUtilCol = slices.IndexFunc(stackDescs, func(d timeseries.Desc) bool { return d.Name == "buffer_util" })
)

// foldStats folds per-shard snapshots of stackRows into a Stats through
// timeseries.MergeSnapshots, so each metric's fold is the one its row
// declares: every row's field, then the fields derived from a gauge or a
// merged histogram.
func foldStats(snaps []timeseries.Snapshot) Stats {
	snap := timeseries.MergeSnapshots(stackDescs, snaps)
	var s Stats
	for i, r := range stackRows {
		if r.field != nil {
			*r.field(&s) = int64(snap.Values[i])
		}
	}
	s.Host.Elapsed = sim.Duration(snap.Values[simTimeCol])
	s.Device.BufferUtil = snap.Values[bufferUtilCol]
	for _, h := range snap.Hists {
		switch h.Key {
		case timeseries.HistKey{Name: "write_response_ns"}:
			s.Host.WriteResp = latencySummary(h.H)
		case timeseries.HistKey{Name: "read_response_ns"}:
			s.Host.ReadResp = latencySummary(h.H)
		}
	}
	s.Host.ThroughputKops = throughputKops(s.Host)
	return s
}

// throughputKops derives PUTs per simulated second / 1000.
func throughputKops(h HostStats) float64 {
	if h.Elapsed <= 0 || h.Puts <= 0 {
		return 0
	}
	return float64(h.Puts) / h.Elapsed.Seconds() / 1000
}

// row declares one scalar metric, once: its exposition descriptor, where its
// value lives in a Stats, and how it is read off a live stack. The sampler
// snapshot, the shard fold behind Stats and the exposition are loops over rows, so
// adding a metric is a Stats field plus one row (DESIGN.md §5.3); a field left
// without a row fails TestEveryStatsFieldHasOneRow.
type row struct {
	timeseries.Desc
	// field locates the value in a Stats; fields are additive across shards.
	// Nil for a gauge only the sampler and the exposition carry.
	field func(*Stats) *int64
	// read takes field's value off a stack. Nil for the server rows, which a
	// serving process fills instead.
	read func(*shard.Stack) int64
	// live is a fieldless gauge's reading.
	live func(*shard.Stack) float64
}

func counterDesc(name, help string) timeseries.Desc {
	return timeseries.Desc{Name: name, Kind: timeseries.KindCounter, Agg: timeseries.AggSum, Help: help}
}

func gaugeDesc(name string, agg timeseries.Agg, help string) timeseries.Desc {
	return timeseries.Desc{Name: name, Kind: timeseries.KindGauge, Agg: agg, Help: help}
}

func counter(name, help string, field func(*Stats) *int64, read func(*shard.Stack) int64) row {
	return row{Desc: counterDesc(name, help), field: field, read: read}
}

func gauge(name string, agg timeseries.Agg, help string, field func(*Stats) *int64, live func(*shard.Stack) float64) row {
	return row{Desc: gaugeDesc(name, agg, help), field: field, live: live}
}

// rowDescs is the rows' descriptor column, in order.
func rowDescs(rows []row) []timeseries.Desc {
	descs := make([]timeseries.Desc, len(rows))
	for i, r := range rows {
		descs[i] = r.Desc
	}
	return descs
}

// baseRows are the scalar metrics every DB records, in column order.
var baseRows = []row{
	counter("host_puts", "PUT operations completed at the driver.",
		func(s *Stats) *int64 { return &s.Host.Puts }, func(st *shard.Stack) int64 { return st.Drv.Stats().Puts.Value() }),
	counter("host_gets", "GET operations completed at the driver.",
		func(s *Stats) *int64 { return &s.Host.Gets }, func(st *shard.Stack) int64 { return st.Drv.Stats().Gets.Value() }),
	counter("host_deletes", "DELETE operations completed at the driver.",
		func(s *Stats) *int64 { return &s.Host.Deletes }, func(st *shard.Stack) int64 { return st.Drv.Stats().Deletes.Value() }),
	counter("host_commands", "NVMe commands issued.",
		func(s *Stats) *int64 { return &s.Host.Commands }, func(st *shard.Stack) int64 { return st.Drv.Stats().CommandsIssued.Value() }),
	counter("pcie_bytes", "PCIe command-fetch plus DMA payload bytes (the paper's PCIe traffic).",
		func(s *Stats) *int64 { return &s.PCIe.Bytes }, func(st *shard.Stack) int64 { return st.Link.HostToDeviceBytes() }),
	counter("pcie_total_bytes", "All PCIe bytes including completions and doorbells, as PCM counts TLPs.",
		func(s *Stats) *int64 { return &s.PCIe.TotalBytes }, func(st *shard.Stack) int64 { return st.Link.TotalBytes() }),
	counter("pcie_dma_bytes", "PCIe DMA payload bytes.",
		func(s *Stats) *int64 { return &s.PCIe.DMABytes }, func(st *shard.Stack) int64 { return st.Link.Traf.DMABytes.Value() }),
	counter("pcie_command_bytes", "PCIe command-fetch bytes.",
		func(s *Stats) *int64 { return &s.PCIe.CommandBytes }, func(st *shard.Stack) int64 { return st.Link.Traf.CommandBytes.Value() }),
	counter("pcie_mmio_bytes", "PCIe doorbell MMIO bytes.",
		func(s *Stats) *int64 { return &s.PCIe.MMIOBytes }, func(st *shard.Stack) int64 { return st.Link.MMIOTrafficBytes() }),
	counter("pcie_completion_bytes", "PCIe completion bytes.",
		func(s *Stats) *int64 { return &s.PCIe.CompletionBytes }, func(st *shard.Stack) int64 { return st.Link.Traf.CompletionBytes.Value() }),
	counter("nand_page_writes", "NAND pages programmed, incl. LSM flush/compaction/GC.",
		func(s *Stats) *int64 { return &s.Device.NANDPageWrites }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().PageWrites.Value() }),
	counter("nand_page_reads", "NAND pages read.",
		func(s *Stats) *int64 { return &s.Device.NANDPageReads }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().PageReads.Value() }),
	counter("nand_block_erases", "NAND blocks erased.",
		func(s *Stats) *int64 { return &s.Device.BlockErases }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().BlockErases.Value() }),
	counter("vlog_flushes", "Value-log page writes.",
		func(s *Stats) *int64 { return &s.Device.VLogFlushes }, func(st *shard.Stack) int64 { return st.Dev.Buffer().Stats().Flushes.Value() }),
	counter("vlog_forced_flushes", "Forced (early) page-buffer flushes.",
		func(s *Stats) *int64 { return &s.Device.ForcedFlushes }, func(st *shard.Stack) int64 { return st.Dev.Buffer().Stats().ForcedFlushes.Value() }),
	counter("backfill_jumps", "Write-pointer backfill jumps in the page buffer.",
		func(s *Stats) *int64 { return &s.Device.BackfillJumps }, func(st *shard.Stack) int64 { return st.Dev.Buffer().Stats().BackfillJumps.Value() }),
	counter("device_memcpys", "In-device memcpy operations.",
		func(s *Stats) *int64 { return &s.Device.Memcpys }, func(st *shard.Stack) int64 { return st.Dev.Engine().Stats().Memcpys.Value() }),
	counter("device_memcpy_time_ns", "Cumulative in-device copy time, simulated ns.",
		func(s *Stats) *int64 { return (*int64)(&s.Device.MemcpyTime) }, func(st *shard.Stack) int64 { return st.Dev.Engine().Stats().MemcpyTime.Value() }),
	counter("device_flush_wait_time_ns", "Cumulative request time blocked on NAND flushes, simulated ns.",
		func(s *Stats) *int64 { return (*int64)(&s.Device.FlushWaitTime) }, func(st *shard.Stack) int64 { return st.Dev.Buffer().Stats().FlushWaitTime.Value() }),
	counter("ftl_gc_writes", "NAND page migrations performed by FTL garbage collection.",
		func(s *Stats) *int64 { return &s.Device.GCWrites }, func(st *shard.Stack) int64 { return st.Dev.FTL().Stats().GCWrites.Value() }),
	counter("lsm_compactions", "LSM-tree compactions run.",
		func(s *Stats) *int64 { return &s.Device.Compactions }, func(st *shard.Stack) int64 { return st.Dev.Tree().Stats().Compactions.Value() }),
	counter("lsm_pages_written", "NAND pages written by the LSM-tree: every SSTable page of a flush or a compaction.",
		func(s *Stats) *int64 { return &s.Device.IndexPageWrites }, func(st *shard.Stack) int64 { return st.Dev.Tree().Stats().PagesWritten.Value() }),
	counter("lsm_trivial_moves", "LSM-tree level pushes that re-linked a table into the next level without rewriting it.",
		func(s *Stats) *int64 { return &s.Device.TrivialMoves }, func(st *shard.Stack) int64 { return st.Dev.Tree().Stats().TrivialMoves.Value() }),
	counter("lsm_filter_skips", "SSTables a GET's bloom filter ruled out, so no page was read.",
		func(s *Stats) *int64 { return &s.Device.FilterSkips }, func(st *shard.Stack) int64 { return st.Dev.Tree().Stats().FilterSkips.Value() }),
	counter("lsm_filter_false_positives", "SSTable pages a GET read because the bloom filter passed, that did not hold the key.",
		func(s *Stats) *int64 { return &s.Device.FilterFalsePositives }, func(st *shard.Stack) int64 { return st.Dev.Tree().Stats().FilterFalsePositives.Value() }),
	{Desc: gaugeDesc("lsm_filter_bytes", timeseries.AggSum, "Device DRAM bytes held by the live SSTables' bloom filters."),
		field: func(s *Stats) *int64 { return &s.Device.FilterBytes }, read: func(st *shard.Stack) int64 { return st.Dev.Tree().FilterBytes() }},
	counter("adaptive_inline", "Adaptive method: values sent inline.",
		func(s *Stats) *int64 { return &s.Adaptive.Inline }, func(st *shard.Stack) int64 { return st.Drv.Stats().InlineChosen.Value() }),
	counter("adaptive_prp", "Adaptive method: values sent via PRP DMA.",
		func(s *Stats) *int64 { return &s.Adaptive.PRP }, func(st *shard.Stack) int64 { return st.Drv.Stats().PRPChosen.Value() }),
	counter("adaptive_hybrid", "Adaptive method: values sent hybrid.",
		func(s *Stats) *int64 { return &s.Adaptive.Hybrid }, func(st *shard.Stack) int64 { return st.Drv.Stats().HybridChosen.Value() }),
	gauge("sim_time_ns", timeseries.AggMax, "Simulated time of the snapshot, ns.",
		nil, func(st *shard.Stack) float64 { return float64(st.Clock.Now()) }),
	{Desc: timeseries.Desc{Name: "buffer_util", Kind: timeseries.KindGauge, Agg: timeseries.AggWeighted, Weight: "vlog_flushes",
		Help: "Payload bytes per flushed NAND byte in the vLog page buffer."},
		live: func(st *shard.Stack) float64 { return st.Dev.Buffer().Utilization() }},
	gauge("buffer_wp", timeseries.AggSum, "Page-buffer write pointer (vLog byte offset).",
		nil, func(st *shard.Stack) float64 { return float64(st.Dev.Buffer().WP()) }),
	gauge("buffer_frontier", timeseries.AggSum, "Page-buffer placement frontier (vLog byte offset).",
		nil, func(st *shard.Stack) float64 { return float64(st.Dev.Buffer().Frontier()) }),
	gauge("buffer_open_pages", timeseries.AggSum, "Open page-buffer entries.",
		nil, func(st *shard.Stack) float64 { return float64(st.Dev.Buffer().OpenPages()) }),
	gauge("vlog_free_bytes", timeseries.AggSum, "Value-log space left before compaction.",
		nil, func(st *shard.Stack) float64 { return float64(st.Dev.VLog().FreeBytes()) }),
	gauge("flash_max_wear", timeseries.AggMax, "Highest per-block erase count in the flash array.",
		nil, func(st *shard.Stack) float64 { return float64(st.Dev.Flash().MaxWear()) }),
	gauge("wire_utilization", timeseries.AggMean, "Fraction of simulated time the PCIe wire was busy.",
		nil, func(st *shard.Stack) float64 { return st.Link.WireUtilization(st.Clock.Now()) }),
}

// faultRows extend baseRows when Config.Faults arms the injector. They are
// appended only then, so fault-free runs keep byte-identical exporter output
// (the golden-smoke guarantee).
var faultRows = []row{
	counter("fault_nand_program", "Injected NAND program failures.",
		func(s *Stats) *int64 { return &s.Faults.NandProgramFaults }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().ProgramFaults.Value() }),
	counter("fault_nand_read", "Injected NAND read failures.",
		func(s *Stats) *int64 { return &s.Faults.NandReadFaults }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().ReadFaults.Value() }),
	counter("fault_nand_erase", "Injected NAND erase failures.",
		func(s *Stats) *int64 { return &s.Faults.NandEraseFaults }, func(st *shard.Stack) int64 { return st.Dev.Flash().Stats().EraseFaults.Value() }),
	counter("fault_dma_transfer", "Injected DMA transfer errors.",
		func(s *Stats) *int64 { return &s.Faults.TransferFaults }, func(st *shard.Stack) int64 { return st.Dev.Engine().Stats().TransferFaults.Value() }),
	counter("ftl_bad_blocks", "NAND blocks retired by the FTL.",
		func(s *Stats) *int64 { return &s.Faults.BadBlocks }, func(st *shard.Stack) int64 { return st.Dev.FTL().Stats().BadBlocks.Value() }),
	counter("ftl_program_retries", "FTL program redirect-retries after media faults.",
		func(s *Stats) *int64 { return &s.Faults.FTLRetries }, func(st *shard.Stack) int64 { return st.Dev.FTL().Stats().ProgramFaults.Value() }),
	counter("device_power_cuts", "Power cuts taken by the device.",
		func(s *Stats) *int64 { return &s.Faults.PowerCuts }, func(st *shard.Stack) int64 { return st.Dev.Stats().PowerCuts.Value() }),
	counter("device_mounts", "Recovery mounts performed.",
		func(s *Stats) *int64 { return &s.Faults.Mounts }, func(st *shard.Stack) int64 { return st.Dev.Stats().Mounts.Value() }),
	counter("device_replayed_records", "MemTable entries replayed at mount.",
		func(s *Stats) *int64 { return &s.Faults.ReplayedRecords }, func(st *shard.Stack) int64 { return st.Dev.Stats().ReplayedRecords.Value() }),
	counter("host_retries", "Host re-submissions of retryable completions.",
		func(s *Stats) *int64 { return &s.Faults.Retries }, func(st *shard.Stack) int64 { return st.Drv.Stats().Retries.Value() }),
	counter("host_retries_exhausted", "Commands that failed every retry.",
		func(s *Stats) *int64 { return &s.Faults.RetriesExhausted }, func(st *shard.Stack) int64 { return st.Drv.Stats().RetriesExhausted.Value() }),
	counter("host_recoveries", "Host-initiated recoveries.",
		func(s *Stats) *int64 { return &s.Faults.Recoveries }, func(st *shard.Stack) int64 { return st.Drv.Stats().Recoveries.Value() }),
}

// cacheRows extend baseRows when Config.Cache arms a read-cache tier. Like
// faultRows they are appended only then, so cache-free runs keep
// byte-identical exporter output (the golden-smoke guarantee).
var cacheRows = []row{
	counter("cache_value_hits", "Device value-tier cache hits (reads served from device DRAM).",
		func(s *Stats) *int64 { return &s.Cache.Hits }, func(st *shard.Stack) int64 { return st.Dev.Stats().CacheHits.Value() }),
	counter("cache_value_misses", "Device value-tier cache misses (reads that walked the LSM).",
		func(s *Stats) *int64 { return &s.Cache.Misses }, func(st *shard.Stack) int64 { return st.Dev.Stats().CacheMisses.Value() }),
	counter("cache_page_hits", "Device SSTable-page-tier cache hits.",
		func(s *Stats) *int64 { return &s.Cache.PageHits }, func(st *shard.Stack) int64 { return st.Dev.Stats().PageCacheHits.Value() }),
	counter("cache_page_misses", "Device SSTable-page-tier cache misses.",
		func(s *Stats) *int64 { return &s.Cache.PageMisses }, func(st *shard.Stack) int64 { return st.Dev.Stats().PageCacheMisses.Value() }),
	counter("cache_evictions", "Entries evicted across both device cache tiers.",
		func(s *Stats) *int64 { return &s.Cache.Evictions }, func(st *shard.Stack) int64 { return st.Dev.Stats().CacheEvictions.Value() }),
	counter("cache_invalidations", "Cache entries dropped by the strict invalidation protocol.",
		func(s *Stats) *int64 { return &s.Cache.Invalidations }, func(st *shard.Stack) int64 { return st.Dev.Stats().CacheInvalidations.Value() }),
}

// stackRows is every row a stack feeds — what Stats carries whether or not
// the fault and cache sections are exported.
var stackRows = slices.Concat(baseRows, faultRows, cacheRows)

// exportedRows is a DB's sampler/exporter column set: the base rows, plus the
// fault rows when the injector is armed and the cache rows when a read-cache
// tier is configured.
func exportedRows(faults, cached bool) []row {
	rows := baseRows
	if faults {
		rows = slices.Concat(rows, faultRows)
	}
	if cached {
		rows = slices.Concat(rows, cacheRows)
	}
	return rows
}

// serverRows declare the network front-end's scalar metrics. They ride a
// separate exposition (WriteServerPrometheus, written only by a serving
// process), so embedded and simulation-only runs keep byte-identical exporter
// output.
var serverRows = []row{
	counter("server_conns_accepted", "Client connections accepted.",
		func(s *Stats) *int64 { return &s.Server.Accepted }, nil),
	gauge("server_conns_active", timeseries.AggSum, "Client connections currently open.",
		func(s *Stats) *int64 { return &s.Server.Active }, nil),
	counter("server_cmd_ping", "PING commands served.",
		func(s *Stats) *int64 { return &s.Server.Ping }, nil),
	counter("server_cmd_set", "SET commands served.",
		func(s *Stats) *int64 { return &s.Server.Set }, nil),
	counter("server_cmd_get", "GET commands served.",
		func(s *Stats) *int64 { return &s.Server.Get }, nil),
	counter("server_cmd_del", "DEL commands served.",
		func(s *Stats) *int64 { return &s.Server.Del }, nil),
	counter("server_cmd_mset", "MSET commands served.",
		func(s *Stats) *int64 { return &s.Server.MSet }, nil),
	counter("server_cmd_mget", "MGET commands served.",
		func(s *Stats) *int64 { return &s.Server.MGet }, nil),
	counter("server_cmd_scan", "SCAN commands served.",
		func(s *Stats) *int64 { return &s.Server.Scan }, nil),
	counter("server_cmd_info", "INFO commands served.",
		func(s *Stats) *int64 { return &s.Server.Info }, nil),
	counter("server_cmd_shutdown", "SHUTDOWN commands served.",
		func(s *Stats) *int64 { return &s.Server.Shutdown }, nil),
	counter("server_cmd_other", "Unrecognized commands (answered with an error).",
		func(s *Stats) *int64 { return &s.Server.Other }, nil),
	counter("server_errors", "RESP error replies written.",
		func(s *Stats) *int64 { return &s.Server.Errors }, nil),
	counter("server_backpressure_stalls", "Bursts cut at the in-flight window with bytes still buffered.",
		func(s *Stats) *int64 { return &s.Server.Stalls }, nil),
	counter("server_bytes_in", "Bytes read off client sockets.",
		func(s *Stats) *int64 { return &s.Server.BytesIn }, nil),
	counter("server_bytes_out", "Bytes written to client sockets.",
		func(s *Stats) *int64 { return &s.Server.BytesOut }, nil),
}

var serverDescs = rowDescs(serverRows)

// traceRows declare the trace-ring health and latency-attribution scalars,
// each with its reading off the ring health and a span report. They ride a
// separate exposition section appended only when a ring-buffered Recorder is
// attached, so untraced runs (including the golden smoke) keep byte-identical
// exporter output.
var traceRows = []struct {
	timeseries.Desc
	value func(TraceStats, *spans.Report) int64
}{
	{gaugeDesc("trace_buffered", timeseries.AggSum, "Trace events currently held by the ring recorder."),
		func(h TraceStats, _ *spans.Report) int64 { return h.Buffered }},
	{counterDesc("trace_dropped", "Trace events evicted after the ring filled (attribution over the buffer is truncated)."),
		func(h TraceStats, _ *spans.Report) int64 { return h.Dropped }},
	{counterDesc("blame_ops", "Operations reconstructed by latency attribution."),
		func(_ TraceStats, rep *spans.Report) int64 { return int64(len(rep.Ops)) }},
	{counterDesc("blame_unclaimed_commands", "Completed commands no operation claimed (flushes, scans, missed keys)."),
		func(_ TraceStats, rep *spans.Report) int64 { return int64(rep.Unclaimed) }},
	{counterDesc("blame_incomplete_commands", "Commands in flight at snapshot time or lost to power cuts."),
		func(_ TraceStats, rep *spans.Report) int64 { return int64(rep.Incomplete) }},
	{counterDesc("blame_truncated_events", "Events the trace Seq numbering proves missing."),
		func(_ TraceStats, rep *spans.Report) int64 { return int64(rep.TruncatedEvents) }},
}

// blameHistHelp supplies HELP text for the per-stage blame families.
var blameHistHelp = func() map[string]string {
	m := map[string]string{
		"blame_e2e_ns": "Reconstructed end-to-end op latency by op kind, simulated ns.",
	}
	for s := spans.Stage(0); s < spans.NumStages; s++ {
		m["blame_"+s.String()+"_ns"] = "Attributed " + s.String() + " stage time per op, by op kind, simulated ns."
	}
	return m
}()

// blameSection flattens a span report plus ring health into the trace
// exposition section: the traceRows scalars, then one histogram per (stage
// family, op kind), op kinds in first-observation order.
func blameSection(ring TraceStats, rep *spans.Report) ([]timeseries.Desc, timeseries.Snapshot) {
	descs := make([]timeseries.Desc, len(traceRows))
	values := make([]float64, len(traceRows))
	for i, r := range traceRows {
		descs[i], values[i] = r.Desc, float64(r.value(ring, rep))
	}
	agg := spans.Summarize(rep)
	var hists []timeseries.Hist
	for _, name := range agg.E2E.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "blame_e2e_ns", Label: "op", Value: name},
			H:   agg.E2E.Get(name),
		})
	}
	for s := spans.Stage(0); s < spans.NumStages; s++ {
		fam := "blame_" + s.String() + "_ns"
		for _, name := range agg.Stage[s].Names() {
			hists = append(hists, timeseries.Hist{
				Key: timeseries.HistKey{Name: fam, Label: "op", Value: name},
				H:   agg.Stage[s].Get(name),
			})
		}
	}
	return descs, timeseries.Snapshot{Values: values, Hists: hists}
}

// histHelp supplies Prometheus HELP text per histogram family.
var histHelp = map[string]string{
	"write_response_ns":      "Simulated PUT response time, ns.",
	"read_response_ns":       "Simulated GET response time, ns.",
	"op_round_trip_ns":       "NVMe command round-trip time by opcode, ns.",
	"put_method_response_ns": "PUT response time by chosen transfer method, ns.",
}

// snapshot reads a stack's full metric state as a timeseries snapshot: each
// row's scalar, read straight off the stack, and clones of every latency
// histogram. The caller holds the shard's lock (the sampler calls it from
// inside an operation).
func snapshot(st *shard.Stack, rows []row) timeseries.Snapshot {
	values := make([]float64, len(rows))
	for i, r := range rows {
		if r.read != nil {
			values[i] = float64(r.read(st))
		} else {
			values[i] = r.live(st)
		}
	}
	ds := st.Drv.Stats()
	hists := []timeseries.Hist{
		{Key: timeseries.HistKey{Name: "write_response_ns"}, H: ds.WriteResponse.Clone()},
		{Key: timeseries.HistKey{Name: "read_response_ns"}, H: ds.ReadResponse.Clone()},
	}
	for _, name := range ds.PerOp.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "op_round_trip_ns", Label: "op", Value: name},
			H:   ds.PerOp.Get(name).Clone(),
		})
	}
	for _, name := range ds.PerMethod.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "put_method_response_ns", Label: "method", Value: name},
			H:   ds.PerMethod.Get(name).Clone(),
		})
	}
	return timeseries.Snapshot{Values: values, Hists: hists}
}

// TrafficAmplification reports PCIe bytes per payload byte written — the
// TAF of Fig. 3(b) when every PUT carries size payload bytes.
func (s Stats) TrafficAmplification(payloadBytes int64) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(s.PCIe.Bytes) / float64(payloadBytes)
}

// WriteAmplification reports NAND bytes programmed per payload byte — the
// WAF of Fig. 4(b).
func (s Stats) WriteAmplification(payloadBytes int64, nandPageSize int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(s.Device.NANDPageWrites) * float64(nandPageSize) / float64(payloadBytes)
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"puts=%d gets=%d cmds=%d wresp=%v pcie=%s mmio=%s nandw=%d memcpy=%v thr=%.1fKops",
		s.Host.Puts, s.Host.Gets, s.Host.Commands, s.Host.WriteResp.Mean,
		metrics.FormatBytes(s.PCIe.Bytes), metrics.FormatBytes(s.PCIe.MMIOBytes),
		s.Device.NANDPageWrites, s.Device.MemcpyTime, s.Host.ThroughputKops)
}
