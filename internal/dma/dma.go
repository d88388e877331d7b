// Package dma models the in-device DMA engine BandSlim must accommodate:
// PRP-described page-unit transfers whose size and destination address are
// required to be 4 KiB aligned (§2.5), plus a device-side memcpy cost model
// (the ARM-class copies that the packing policies trade against NAND space).
package dma

import (
	"fmt"

	"bandslim/internal/fault"
	"bandslim/internal/metrics"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// ErrTransfer is an injected DMA transfer failure. It wraps the fault
// package's transient sentinel, so the device controller surfaces it as a
// retryable NVMe status.
var ErrTransfer = fmt.Errorf("dma: transfer error: %w", fault.ErrTransient)

// PageAligned reports whether an address or size satisfies the engine's
// 4 KiB alignment restriction.
func PageAligned(n int64) bool { return n%pcie.MemoryPageSize == 0 }

// MemcpyModel prices device-side memory copies.
type MemcpyModel struct {
	// BytesPerSecond is the copy bandwidth of the device CPU
	// (Cortex-A9-class, ~1 GB/s by default).
	BytesPerSecond float64
	// Fixed is the per-copy overhead.
	Fixed sim.Duration
}

// DefaultMemcpyModel returns the calibrated device-copy costs. The in-device
// ARM core copies slowly relative to the DMA engine (§3.3.2: "given the
// resource constraints of storage devices, large memory copies can
// significantly slow down operations"); 100 MB/s reproduces the Fig. 12(d)
// memcpy-time scale.
func DefaultMemcpyModel() MemcpyModel {
	return MemcpyModel{BytesPerSecond: 100e6, Fixed: 200 * sim.Nanosecond}
}

// Cost reports the duration of copying n bytes.
func (m MemcpyModel) Cost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return m.Fixed + sim.Duration(float64(n)/m.BytesPerSecond*1e9)
}

// Stats tallies engine activity.
type Stats struct {
	Memcpys        metrics.Counter
	MemcpyTime     metrics.Counter // nanoseconds of device CPU copy time
	TransferFaults metrics.Counter // injected transfer failures
}

// Engine is the device's DMA engine. Transfers occupy the PCIe link and are
// accounted on its ledger; copies burn simulated device-CPU time tracked in
// Stats (the paper's Fig. 12(d) metric).
type Engine struct {
	link   *pcie.Link
	memcpy MemcpyModel
	stats  Stats
	tr     trace.Tracer
	inj    *fault.Injector
}

// NewEngine returns an engine attached to the link.
func NewEngine(link *pcie.Link, m MemcpyModel) *Engine {
	return &Engine{link: link, memcpy: m}
}

// Stats exposes the engine's tallies.
func (e *Engine) Stats() *Stats { return &e.stats }

// SetTracer enables transfer/memcpy span tracing; nil turns it back off.
func (e *Engine) SetTracer(tr trace.Tracer) { e.tr = tr }

// SetInjector installs a plan-driven fault injector (nil disables). The
// engine consults it before moving any payload bytes, so a faulted transfer
// leaves both host and device memory untouched.
func (e *Engine) SetInjector(inj *fault.Injector) { e.inj = inj }

// checkFault evaluates the injector at a DMA site. A power-cut effect
// surfaces the power-cut sentinel; media and transient effects both surface
// ErrTransfer (on a link, every data error is a transfer error, and the
// host may retry it).
func (e *Engine) checkFault(site fault.Site, t sim.Time) error {
	eff, ok := e.inj.Check(site, t)
	if !ok {
		return nil
	}
	e.stats.TransferFaults.Inc()
	if eff == fault.EffectPowerCut {
		return fmt.Errorf("dma: %w", fault.ErrPowerCut)
	}
	return ErrTransfer
}

// TransferInTo performs a host→device page-unit DMA described by a PRP list:
// it gathers the payload from host memory by appending to dst (pass
// scratch[:0] to reuse capacity, nil to allocate), moves full pages across
// the link (the traffic bloat of §2.3), and returns the payload plus the
// completion time. The returned slice holds exactly prp.Payload bytes — no
// page padding, no allocation once dst has grown to the working-set size —
// while the byte ledger and link occupancy count the full pages.
func (e *Engine) TransferInTo(t sim.Time, m *nvme.HostMemory, prp nvme.PRPList, dst []byte) ([]byte, sim.Time, error) {
	if prp.Payload == 0 {
		return nil, t, nil
	}
	if err := e.checkFault(fault.SiteDMAIn, t); err != nil {
		return nil, t, err
	}
	payload, err := prp.GatherInto(m, dst)
	if err != nil {
		return nil, t, fmt.Errorf("dma: gather: %w", err)
	}
	size := prp.TransferSize()
	if !PageAligned(int64(size)) {
		return nil, t, fmt.Errorf("dma: transfer size %d not page aligned", size)
	}
	e.link.RecordDMA(int64(size))
	perPage := sim.Duration(size/pcie.MemoryPageSize) * e.link.Model.DMAPerPage
	end := e.link.Occupy(t.Add(perPage), int64(size))
	if e.tr != nil {
		e.tr.Emit(trace.Event{Cat: trace.CatDMA, Name: trace.EvDMAIn, Start: t, End: end, Bytes: int64(size), Arg: int64(prp.Payload)})
	}
	return payload, end, nil
}

// TransferInSGLTo performs a host→device Scatter-Gather List transfer,
// gathering the payload by appending to dst (pass scratch[:0] to reuse
// capacity): exact payload bytes cross the link (no page-unit bloat), but the
// engine pays the SGL setup and per-descriptor costs that make SGL a loser
// below ~32 KB (§2.5). One descriptor per host page, as the Linux driver maps
// buffers.
func (e *Engine) TransferInSGLTo(t sim.Time, m *nvme.HostMemory, prp nvme.PRPList, dst []byte) ([]byte, sim.Time, error) {
	if prp.Payload == 0 {
		return nil, t, nil
	}
	if err := e.checkFault(fault.SiteDMAIn, t); err != nil {
		return nil, t, err
	}
	payload, err := prp.GatherInto(m, dst)
	if err != nil {
		return nil, t, fmt.Errorf("dma: sgl gather: %w", err)
	}
	segments := len(prp.Pages)
	e.link.RecordSGLDescriptors(segments)
	e.link.RecordDMA(int64(prp.Payload))
	setup := e.link.Model.SGLSetup + sim.Duration(segments)*e.link.Model.SGLPerSegment
	end := e.link.Occupy(t.Add(setup), int64(prp.Payload))
	if e.tr != nil {
		e.tr.Emit(trace.Event{Cat: trace.CatDMA, Name: trace.EvSGLIn, Start: t, End: end, Bytes: int64(prp.Payload), Arg: int64(segments)})
	}
	return payload, end, nil
}

// TransferOut performs a device→host page-unit DMA (reads): data is
// scattered into the PRP list's pages, full pages cross the link, and the
// completion time is returned.
func (e *Engine) TransferOut(t sim.Time, m *nvme.HostMemory, prp nvme.PRPList, data []byte) (sim.Time, error) {
	if len(data) == 0 {
		return t, nil
	}
	if err := e.checkFault(fault.SiteDMAOut, t); err != nil {
		return t, err
	}
	if err := prp.Scatter(m, data); err != nil {
		return t, fmt.Errorf("dma: scatter: %w", err)
	}
	size := int64(prp.TransferSize())
	e.link.RecordDMA(size)
	perPage := sim.Duration(size/pcie.MemoryPageSize) * e.link.Model.DMAPerPage
	end := e.link.Occupy(t.Add(perPage), size)
	if e.tr != nil {
		e.tr.Emit(trace.Event{Cat: trace.CatDMA, Name: trace.EvDMAOut, Start: t, End: end, Bytes: size, Arg: int64(len(data))})
	}
	return end, nil
}

// Memcpy accounts for a device-side copy of n bytes and returns its
// completion time.
func (e *Engine) Memcpy(t sim.Time, n int) sim.Time {
	if n <= 0 {
		return t
	}
	d := e.memcpy.Cost(n)
	e.stats.Memcpys.Inc()
	e.stats.MemcpyTime.Add(int64(d))
	end := t.Add(d)
	if e.tr != nil {
		e.tr.Emit(trace.Event{Cat: trace.CatDMA, Name: trace.EvMemcpy, Start: t, End: end, Bytes: int64(n)})
	}
	return end
}
