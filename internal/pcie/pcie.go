// Package pcie models the host↔device PCIe interconnect at the fidelity the
// BandSlim paper measures it: a byte-exact traffic ledger (split into NVMe
// command fetches, DMA payload, doorbell MMIO, and completions) plus a simple
// bandwidth/latency cost model for transfer times.
//
// Traffic accounting follows the paper's arithmetic exactly (§2.4): the
// Traffic Amplification Factor for a 32-byte value under the baseline is
// (4096 + 64)/32 = 130.0 — one 64 B command fetch plus one page-unit DMA.
// Doorbell MMIO is kept in a separate ledger, as in Fig. 10(d).
package pcie

import (
	"bandslim/internal/metrics"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Wire sizes fixed by the NVMe/PCIe protocol as the paper counts them.
const (
	// CommandSize is the size of one NVMe submission queue entry.
	CommandSize = 64
	// CompletionSize is the size of one NVMe completion queue entry.
	CompletionSize = 16
	// DoorbellSize is the payload of one doorbell register write (a 32-bit
	// MMIO store). The paper's MMIO ledger counts these per ring.
	DoorbellSize = 4
	// MemoryPageSize is the host memory page size; PRP-based DMA moves
	// payload in multiples of this.
	MemoryPageSize = 4096
)

// CostModel holds the latency constants of the link, calibrated so that
// response-time *shapes* match the paper's figures (see DESIGN.md §3);
// absolute values are not meant to match the FPGA testbed.
//
// The calibration is anchored on three observations from Fig. 8/9:
//   - Piggyback(≤35 B) ≈ half of Baseline(≤4 KiB): one command round trip
//     vs. one round trip plus one page of DMA, so RT ≈ per-page DMA cost.
//   - Piggyback(64 B) (two commands) ≈ Baseline: 2·RT ≈ RT + page.
//   - Hybrid(4K+small) ≈ Baseline(4K+small) (within ~1.4%): RT + page + RT
//     ≈ RT + 2·page, again RT ≈ page.
type CostModel struct {
	// CommandRoundTrip is the fixed cost of one synchronous NVMe command:
	// driver submit + doorbell + device fetch + parse + completion +
	// host reap. The paper's passthrough path serializes commands, so each
	// command pays this in full.
	CommandRoundTrip sim.Duration
	// DMAPerPage is the fixed engine/PRP-processing cost per 4 KiB memory
	// page moved — this is what makes transfer responses cascade at 4 KiB
	// boundaries (Fig. 3a).
	DMAPerPage sim.Duration
	// SGLSetup is the fixed cost of arming a Scatter-Gather List transfer.
	// SGL moves exact byte counts (no page bloat) but "the cost of
	// enabling the SGL outweighs the benefit for I/O smaller than 32 KB"
	// (§2.5), which is why the Linux NVMe driver only uses SGL from 32 KB
	// up; the default reproduces that crossover against the PRP path.
	SGLSetup sim.Duration
	// SGLPerSegment is the cost of processing one 16-byte SGL descriptor.
	SGLPerSegment sim.Duration
	// PipelineInterval is the marginal cost of one additional command in a
	// pipelined burst (queue depth > 1): commands after the first only pay
	// fetch+parse, not a full host round trip. The paper's passthrough
	// serializes commands ("no subsequent commands can be sent until the
	// controller signals completion... significantly reducing
	// performance", §4.2); this constant powers the what-if experiment
	// that lifts the restriction.
	PipelineInterval sim.Duration
	// BytesPerSecond is the effective payload bandwidth of the link
	// (PCIe Gen2 x8 ≈ 4 GB/s raw, ~3.2 GB/s effective).
	BytesPerSecond float64
}

// DefaultCostModel returns the calibrated constants from DESIGN.md.
func DefaultCostModel() CostModel {
	return CostModel{
		CommandRoundTrip: 9 * sim.Microsecond,
		DMAPerPage:       8200 * sim.Nanosecond,
		SGLSetup:         64 * sim.Microsecond,
		SGLPerSegment:    500 * sim.Nanosecond,
		PipelineInterval: 1500 * sim.Nanosecond,
		BytesPerSecond:   3.2e9,
	}
}

// TransferTime reports how long moving n payload bytes takes on the wire,
// excluding fixed setup costs.
func (m CostModel) TransferTime(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / m.BytesPerSecond * 1e9)
}

// SGLDescriptorSize is the size of one SGL segment descriptor.
const SGLDescriptorSize = 16

// Traffic is the byte ledger of everything that crossed the link, split the
// way the paper splits it.
type Traffic struct {
	CommandBytes    metrics.Counter // 64 B per fetched NVMe command
	DMABytes        metrics.Counter // payload (page-unit PRP or exact SGL)
	SGLDescBytes    metrics.Counter // 16 B per fetched SGL segment descriptor
	MMIOBytes       metrics.Counter // doorbell writes (host CPU engagement)
	CompletionBytes metrics.Counter // 16 B per completion entry
}

// Link is the shared interconnect: a cost model plus the traffic ledger and
// a busy line serializing wire occupancy.
type Link struct {
	Model CostModel
	Traf  Traffic
	wire  sim.BusyLine
	// clock and tr power command-level tracing; nil tr disables it and the
	// record methods pay only a branch.
	clock *sim.Clock
	tr    trace.Tracer
}

// NewLink returns a link with the given cost model.
func NewLink(m CostModel) *Link { return &Link{Model: m} }

// Attach enables tracing: record methods stamp events with the clock's
// current simulated time. A nil tracer turns tracing back off.
func (l *Link) Attach(clock *sim.Clock, tr trace.Tracer) {
	l.clock, l.tr = clock, tr
}

// RecordCommandFetch accounts for the device fetching one 64 B command.
func (l *Link) RecordCommandFetch() {
	l.Traf.CommandBytes.Add(CommandSize)
	if l.tr != nil {
		now := l.clock.Now()
		l.tr.Emit(trace.Event{Cat: trace.CatPCIe, Name: trace.EvCmdFetch, Start: now, End: now, Bytes: CommandSize})
	}
}

// RecordDoorbell accounts for one host doorbell MMIO write.
func (l *Link) RecordDoorbell() {
	l.Traf.MMIOBytes.Add(DoorbellSize)
	if l.tr != nil {
		now := l.clock.Now()
		l.tr.Emit(trace.Event{Cat: trace.CatPCIe, Name: trace.EvDoorbell, Start: now, End: now, Bytes: DoorbellSize})
	}
}

// RecordCompletion accounts for the device posting one completion entry.
func (l *Link) RecordCompletion() {
	l.Traf.CompletionBytes.Add(CompletionSize)
}

// RecordDMA accounts for n bytes of PRP payload crossing the link.
func (l *Link) RecordDMA(n int64) {
	l.Traf.DMABytes.Add(n)
}

// RecordSGLDescriptors accounts for the device fetching n segment
// descriptors.
func (l *Link) RecordSGLDescriptors(n int) {
	l.Traf.SGLDescBytes.Add(int64(n) * SGLDescriptorSize)
}

// HostToDeviceBytes reports the paper's headline "PCIe traffic" metric:
// command fetches plus payload plus any SGL descriptors (Fig. 3, 8, 9,
// 10(c)).
func (l *Link) HostToDeviceBytes() int64 {
	return l.Traf.CommandBytes.Value() + l.Traf.DMABytes.Value() + l.Traf.SGLDescBytes.Value()
}

// MMIOTrafficBytes reports the separate MMIO ledger of Fig. 10(d).
func (l *Link) MMIOTrafficBytes() int64 { return l.Traf.MMIOBytes.Value() }

// TotalBytes reports everything that crossed the link in either direction.
func (l *Link) TotalBytes() int64 {
	return l.HostToDeviceBytes() + l.Traf.MMIOBytes.Value() + l.Traf.CompletionBytes.Value()
}

// Occupy serializes a wire transfer of n bytes starting no earlier than t and
// returns its completion time. Fixed costs are the caller's concern.
func (l *Link) Occupy(t sim.Time, n int64) sim.Time {
	_, end := l.wire.Schedule(t, l.Model.TransferTime(n))
	return end
}

// WireUtilization reports the fraction of simulated time the wire was busy.
func (l *Link) WireUtilization(now sim.Time) float64 { return l.wire.Utilization(now) }

// PagesFor reports how many host memory pages are needed for n payload bytes;
// this is the number of PRP entries a baseline transfer consumes.
func PagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + MemoryPageSize - 1) / MemoryPageSize
}

// PageAlignedSize reports n rounded up to the memory page size — the number
// of bytes a page-unit DMA actually moves for an n-byte value.
func PageAlignedSize(n int) int { return PagesFor(n) * MemoryPageSize }
