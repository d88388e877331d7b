// Package driver implements the BandSlim Key-Value Driver (§3.1–3.2): the
// host-side component that chooses a transfer strategy per value (PRP-based
// page-unit DMA, NVMe-command piggybacking, hybrid, or the threshold-based
// adaptive method), builds commands, and sends them to the device.
//
// Every command rides one dispatch (submission.go): push onto the SQ, one SQ
// doorbell, one device sweep, reap with one CQ doorbell, charge the host
// clock by one rule. Dispatches differ only in the sweep's fetch stagger and
// in when the charge applies. The paper's testbed sends one synchronous call
// at a time (stagger 0, charged per attempt); the burst policy sends a
// multi-command PUT as one doorbell burst (stagger 0, charged once); the
// queue-depth-N window keeps reads in flight (stagger PipelineInterval,
// completions on the coalescing grid, each charged when it is claimed).
package driver

import (
	"errors"
	"fmt"
	"strings"

	"bandslim/internal/device"
	"bandslim/internal/metrics"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Method selects the value-transfer strategy.
type Method int

// The transfer methods evaluated in §4.2.
const (
	// MethodBaseline transfers every value via PRP page-unit DMA.
	MethodBaseline Method = iota
	// MethodPiggyback transfers every value inline in NVMe commands.
	MethodPiggyback
	// MethodHybrid sends the page-aligned head by DMA and the tail inline.
	MethodHybrid
	// MethodAdaptive picks per value using the thresholds.
	MethodAdaptive
	// MethodSGL transfers every value via Scatter-Gather List — the §2.5
	// comparator that moves exact bytes but pays a setup cost that only
	// amortizes above ~32 KB (the Linux sgl_threshold).
	MethodSGL
)

func (m Method) String() string {
	switch m {
	case MethodBaseline:
		return "Baseline"
	case MethodPiggyback:
		return "Piggyback"
	case MethodHybrid:
		return "Hybrid"
	case MethodAdaptive:
		return "Adaptive"
	case MethodSGL:
		return "SGL"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a method name, in any case, back to a Method; "prp"
// also names the baseline.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "baseline", "prp":
		return MethodBaseline, nil
	case "piggyback":
		return MethodPiggyback, nil
	case "hybrid":
		return MethodHybrid, nil
	case "adaptive":
		return MethodAdaptive, nil
	case "sgl":
		return MethodSGL, nil
	}
	return 0, fmt.Errorf("driver: unknown method %q", s)
}

// Thresholds hold the adaptive method's calibration (§3.2): values at or
// below Alpha·Threshold1 go inline; over-page values whose tail is at or
// below Beta·Threshold2 go hybrid; everything else goes PRP.
type Thresholds struct {
	Threshold1 int
	Threshold2 int
	Alpha      float64
	Beta       float64
}

// DefaultThresholds returns the paper's settings: the piggyback→DMA switch
// at 128 bytes (from the Fig. 8 response curve) with α = β = 1.
func DefaultThresholds() Thresholds {
	return Thresholds{Threshold1: 128, Threshold2: 64, Alpha: 1, Beta: 1}
}

// IsZero reports whether every field is zero — the "use defaults" sentinel.
// A caller who deliberately wants Threshold1 = 0 (never piggyback) sets any
// other field non-zero, e.g. Thresholds{Alpha: 1, Beta: 1}.
func (t Thresholds) IsZero() bool { return t == Thresholds{} }

// A retryable completion (a transient transfer error, nvme.StatusTransient)
// re-submits the same command up to maxRetries times, each after a host-side
// backoff that starts at retryBackoff and doubles per attempt — enough to
// ride out any plan-injected transient burst shorter than five occurrences.
const (
	maxRetries   = 4
	retryBackoff = 10 * sim.Microsecond
)

// Config is the driver's host-side configuration, validated and applied once
// by New.
type Config struct {
	Method     Method
	Thresholds Thresholds
	// Submission is the submission policy (see SubmissionConfig); the zero
	// value is the paper's synchronous passthrough.
	Submission SubmissionConfig
}

// validate checks the config against the device ring size sqSize.
func (c Config) validate(sqSize int) error {
	return c.Submission.validate(sqSize)
}

// Stats tallies host-side activity.
type Stats struct {
	Puts             metrics.Counter
	Gets             metrics.Counter
	Deletes          metrics.Counter
	InlineChosen     metrics.Counter
	PRPChosen        metrics.Counter
	HybridChosen     metrics.Counter
	WriteResponse    *metrics.Histogram // ns per PUT
	ReadResponse     *metrics.Histogram // ns per GET
	CommandsIssued   metrics.Counter
	Retries          metrics.Counter // retryable completions re-submitted
	RetriesExhausted metrics.Counter // commands that failed every retry
	Recoveries       metrics.Counter // device mounts performed after power loss
	// PerOp breaks command round-trip latency down by NVMe opcode;
	// PerMethod breaks PUT response time down by the transfer mode chosen.
	PerOp     *metrics.HistogramSet
	PerMethod *metrics.HistogramSet
}

// Driver is the host-side key-value driver bound to one device: the one op
// engine of a shard, point ops and batches alike.
type Driver struct {
	clock *sim.Clock
	link  *pcie.Link
	mem   *nvme.HostMemory
	dev   *device.Device
	// sub is the submission policy (see SubmissionConfig). In its burst mode
	// the commands of one PUT go out as a doorbell burst, so trailing
	// transfer commands pay only a fetch/parse interval instead of a full
	// round trip each — the what-if the paper's §4.2 points at when it blames
	// "synchronous and serialized" submission for piggybacking's large-value
	// collapse.
	sub    SubmissionConfig
	method Method
	thr    Thresholds
	nextID uint16
	stats  Stats
	tr     trace.Tracer

	// Dispatch state (see submission.go): one wait frame per dispatch in
	// flight — at least one, the window depth under QueueDepth >= 2 — the
	// window's per-frame staging slots, the frames in flight, and the
	// commands pushed since the last SQ doorbell.
	frames    []frame
	slotStage []nvme.PRPList
	inflight  int
	unrung    int

	// stage is the driver's persistent staging region: one contiguous
	// MaxValueSize run of pinned host pages, allocated at first use and
	// reused for every PUT payload and GET/NEXT/Identify read buffer. Reuse
	// is what makes the steady-state op path free of host-memory churn; the
	// contiguous run preserves the sequential-address PRP reconstruction the
	// device performs from PRP1. The driver is single-owner, so one region
	// suffices — every command completes before the next is staged.
	stage nvme.PRPList
	// readBuf receives gathered GET/NEXT/Identify payloads. Get and Next
	// return views into it, valid until the next driver operation.
	readBuf []byte
	// cmdScratch backs the per-op command lists (inline heads and tails).
	cmdScratch []nvme.Command

	// batch backs PutBatch, created on first use.
	batch *Batcher
	// winH/winI are the windowed GetBatch FIFO scratch (startGet handles and
	// their key indices), reused across batches.
	winH, winI []int
}

// New binds a driver to a device sharing the same clock, link and host
// memory arena. It fails with a *ConfigError on a setting the device's ring
// or the driver cannot honor.
func New(clock *sim.Clock, link *pcie.Link, mem *nvme.HostMemory, dev *device.Device, cfg Config) (*Driver, error) {
	if err := cfg.validate(dev.Queues().SQ.Size()); err != nil {
		return nil, err
	}
	d := &Driver{
		clock:  clock,
		link:   link,
		mem:    mem,
		dev:    dev,
		sub:    cfg.Submission,
		method: cfg.Method,
		thr:    cfg.Thresholds,
		frames: make([]frame, cfg.Submission.depth()),
		stats: Stats{
			WriteResponse: metrics.NewHistogram(),
			ReadResponse:  metrics.NewHistogram(),
			PerOp:         metrics.NewHistogramSet(),
			PerMethod:     metrics.NewHistogramSet(),
		},
	}
	if cfg.Submission.async() {
		d.slotStage = make([]nvme.PRPList, cfg.Submission.depth())
	}
	return d, nil
}

// Stats exposes the driver tallies.
func (d *Driver) Stats() *Stats { return &d.stats }

// SetTracer enables host-side operation/submission tracing; nil turns it
// back off.
func (d *Driver) SetTracer(tr trace.Tracer) { d.tr = tr }

// choose picks the transfer mode for one value size.
func (d *Driver) choose(size int) nvme.TransferMode {
	switch d.method {
	case MethodBaseline:
		return nvme.ModePRP
	case MethodPiggyback:
		return nvme.ModeInline
	case MethodHybrid:
		if size >= pcie.MemoryPageSize && size%pcie.MemoryPageSize != 0 {
			return nvme.ModeHybrid
		}
		if size < pcie.MemoryPageSize {
			return nvme.ModeInline
		}
		return nvme.ModePRP
	case MethodAdaptive:
		if float64(size) <= d.thr.Alpha*float64(d.thr.Threshold1) {
			return nvme.ModeInline
		}
		if size > pcie.MemoryPageSize {
			tail := size % pcie.MemoryPageSize
			if tail != 0 && float64(tail) <= d.thr.Beta*float64(d.thr.Threshold2) {
				return nvme.ModeHybrid
			}
		}
		return nvme.ModePRP
	case MethodSGL:
		return nvme.ModeSGL
	default:
		return nvme.ModePRP
	}
}

// command starts a command of opcode op under a fresh command ID.
func (d *Driver) command(op nvme.Opcode) nvme.Command {
	var cmd nvme.Command
	cmd.SetOpcode(op)
	d.nextID++
	cmd.SetCommandID(d.nextID)
	return cmd
}

// keyed starts a command of opcode op addressing key.
func (d *Driver) keyed(op nvme.Opcode, key []byte) (nvme.Command, error) {
	cmd := d.command(op)
	err := cmd.SetKey(key)
	return cmd, err
}

// pointAt aims cmd's PRP fields at the staged run prp: PRP1 at its first
// page and, for page-unit modes, PRP2 at its second (an SGL walk needs only
// PRP1).
func pointAt(cmd *nvme.Command, prp nvme.PRPList, mode nvme.TransferMode) {
	if len(prp.Pages) == 0 {
		return
	}
	cmd.SetPRP1(prp.Pages[0])
	if len(prp.Pages) > 1 && mode != nvme.ModeSGL {
		cmd.SetPRP2(prp.Pages[1])
	}
}

// readCommand builds the KV read of key into the staged run prp, declaring
// the run's size as the host buffer the device may fill.
func (d *Driver) readCommand(key []byte, prp nvme.PRPList) (nvme.Command, error) {
	cmd, err := d.keyed(nvme.OpKVRead, key)
	cmd.SetValueSize(uint32(prp.TransferSize()))
	pointAt(&cmd, prp, nvme.ModePRP)
	return cmd, err
}

// call sends cmd as one synchronous call and reports a failing completion
// status as its error.
func (d *Driver) call(cmd nvme.Command) (nvme.Completion, error) {
	comp, err := d.dispatch(kindCall, cmd)
	if err == nil {
		err = comp.Status.Err()
	}
	return comp, err
}

// send submits cmds in order and reports the first failing status. Under the
// burst policy they go out as bursts of at most SQ.Size()−1 commands, every
// burst sent whatever the one before reported; otherwise as one synchronous
// call each, stopping at the first failure.
func (d *Driver) send(cmds []nvme.Command) error {
	if !d.sub.burst() {
		for _, cmd := range cmds {
			if _, err := d.call(cmd); err != nil {
				return err
			}
		}
		return nil
	}
	var failed error
	for maxBurst := d.dev.Queues().SQ.Size() - 1; len(cmds) > 0; {
		n := min(len(cmds), maxBurst)
		comp, err := d.dispatch(kindBurst, cmds[:n]...)
		if err != nil {
			return err
		}
		if failed == nil {
			failed = comp.Status.Err()
		}
		cmds = cmds[n:]
	}
	return failed
}

// staging returns the persistent staging region, allocating it on first use.
func (d *Driver) staging() nvme.PRPList {
	if d.stage.Pages == nil {
		d.stage = nvme.AllocStaging(d.mem, MaxValueSize)
	}
	return d.stage
}

// stagePayload stages value into the persistent region and returns the PRP
// view describing it. Values beyond the region's capacity (larger than
// MaxValueSize) fall back to a fresh allocation; the caller must Free the
// returned list iff fresh is true.
func (d *Driver) stagePayload(value []byte) (prp nvme.PRPList, fresh bool, err error) {
	if len(value) > MaxValueSize {
		prp, err = nvme.BuildPRP(d.mem, value)
		return prp, true, err
	}
	prp = d.staging().WithPayload(len(value))
	if err := prp.Scatter(d.mem, value); err != nil {
		return nvme.PRPList{}, false, err
	}
	return prp, false, nil
}

// Put writes one key-value pair, choosing the transfer strategy per the
// configured method, and records the response time.
func (d *Driver) Put(key, value []byte) error {
	start := d.clock.Now()
	mode := d.choose(len(value))
	var err error
	switch mode {
	case nvme.ModeInline:
		d.stats.InlineChosen.Inc()
		err = d.putInline(key, value)
	case nvme.ModeHybrid:
		d.stats.HybridChosen.Inc()
		err = d.putDMA(mode, key, value)
	default: // PRP, and SGL: a DMA-class choice in the ledger
		d.stats.PRPChosen.Inc()
		err = d.putDMA(mode, key, value)
	}
	if err != nil {
		return err
	}
	d.stats.Puts.Inc()
	now := d.clock.Now()
	d.stats.WriteResponse.Observe(float64(now.Sub(start)))
	d.stats.PerMethod.Observe(mode.String(), float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvPut, Op: byte(nvme.OpKVWrite), Start: start, End: now, Bytes: int64(len(value)), Arg: int64(mode)})
	}
	return nil
}

// putInline ships the value entirely in command fields: one write command
// plus trailing transfer commands in 56-byte increments (§3.2).
func (d *Driver) putInline(key, value []byte) error {
	cmd, err := d.keyed(nvme.OpKVWrite, key)
	if err != nil {
		return err
	}
	cmd.SetTransferMode(nvme.ModeInline)
	cmd.SetValueSize(uint32(len(value)))
	n := cmd.SetWritePiggyback(value)
	return d.sendTail(append(d.cmdScratch[:0], cmd), value[n:])
}

// putDMA stages the DMA-carried part of value in the persistent staging
// region — all of it under PRP and SGL, the page-aligned head under Hybrid —
// and sends one write command of that mode describing it; a hybrid tail then
// follows inline.
func (d *Driver) putDMA(mode nvme.TransferMode, key, value []byte) error {
	head := value
	if mode == nvme.ModeHybrid {
		head = value[:len(value)/pcie.MemoryPageSize*pcie.MemoryPageSize]
	}
	prp, fresh, err := d.stagePayload(head)
	if err != nil {
		return err
	}
	if fresh {
		defer prp.Free(d.mem)
	}
	cmd, err := d.keyed(nvme.OpKVWrite, key)
	if err != nil {
		return err
	}
	cmd.SetTransferMode(mode)
	cmd.SetValueSize(uint32(len(value)))
	pointAt(&cmd, prp, mode)
	if _, err := d.call(cmd); err != nil {
		return err
	}
	return d.sendTail(d.cmdScratch[:0], value[len(head):])
}

// sendTail appends one transfer command per 56-byte fragment of rest to
// cmds (built on cmdScratch) and sends them all.
func (d *Driver) sendTail(cmds []nvme.Command, rest []byte) error {
	for len(rest) > 0 {
		tr := d.command(nvme.OpKVTransfer)
		tr.SetTransferMode(nvme.ModeInline)
		rest = rest[tr.SetTransferPiggyback(rest):]
		cmds = append(cmds, tr)
	}
	d.cmdScratch = cmds[:0]
	return d.send(cmds)
}

// MaxValueSize bounds the read buffer the driver stages for GETs.
const MaxValueSize = 64 * 1024

// Get reads the value for key. The returned slice is a view into the
// driver's reusable read buffer: it is valid until the next driver operation
// and must be copied by callers that retain it (caller-owned semantics; the
// DB layer's GetInto does the copy for concurrent use).
func (d *Driver) Get(key []byte) ([]byte, error) {
	start := d.clock.Now()
	prp := d.staging()
	cmd, err := d.readCommand(key, prp)
	if err != nil {
		return nil, err
	}
	comp, err := d.dispatch(kindCall, cmd)
	if err != nil {
		return nil, err
	}
	data, err := d.finishGet(comp, prp, d.readBuf, start)
	if err != nil {
		return nil, err
	}
	d.readBuf = data[:0]
	return data, nil
}

// finishGet books a read's completion, synchronous or windowed. A hit
// gathers exactly the bytes the device reported (stale staging bytes beyond
// them are never read) from the staged run into dst and counts the Get, its
// response time since start and its EvGet span.
func (d *Driver) finishGet(comp nvme.Completion, stage nvme.PRPList, dst []byte, start sim.Time) ([]byte, error) {
	if err := comp.Status.Err(); err != nil {
		return nil, err
	}
	n := int(comp.Result)
	data, err := stage.WithPayload(n).GatherInto(d.mem, dst[:0])
	if err != nil {
		return nil, err
	}
	d.stats.Gets.Inc()
	now := d.clock.Now()
	d.stats.ReadResponse.Observe(float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvGet, Op: byte(nvme.OpKVRead), Start: start, End: now, Bytes: int64(n)})
	}
	return data, nil
}

// Delete removes a key.
func (d *Driver) Delete(key []byte) error {
	start := d.clock.Now()
	cmd, err := d.keyed(nvme.OpKVDelete, key)
	if err != nil {
		return err
	}
	if _, err := d.call(cmd); err != nil {
		return err
	}
	d.stats.Deletes.Inc()
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvDelete, Op: byte(nvme.OpKVDelete), Start: start, End: d.clock.Now()})
	}
	return nil
}

// Seek positions the device-side iterator at the first key >= start.
func (d *Driver) Seek(start []byte) error {
	cmd, err := d.keyed(nvme.OpKVSeek, start)
	if err != nil {
		return err
	}
	if _, err := d.call(cmd); err != nil {
		return err
	}
	return nil
}

// ErrIterEnd reports an exhausted device-side iterator. It is a sentinel:
// match it with errors.Is, including through wrapped returns.
var ErrIterEnd = errors.New("driver: iterator exhausted")

// ErrIterInvalidated reports that writes since Seek made the device compact
// away tables the iterator was still walking; the scan must be restarted.
// Like ErrIterEnd it is a sentinel for errors.Is.
var ErrIterInvalidated = errors.New("driver: iterator invalidated by compaction")

// Next returns the device iterator's current pair and advances it. Like Get,
// the returned key and value are views into the driver's reusable read
// buffer, valid until the next driver operation; retaining callers must copy.
// The command declares the staging run's size as the host buffer the device
// may fill, so a pair that does not fit fails without advancing the iterator.
func (d *Driver) Next() (key, value []byte, err error) {
	prp := d.staging()
	cmd := d.command(nvme.OpKVNext)
	cmd.SetValueSize(uint32(prp.TransferSize()))
	cmd.SetPRP1(prp.Pages[0])
	comp, err := d.dispatch(kindCall, cmd)
	if err != nil {
		return nil, nil, err
	}
	switch comp.Status {
	case nvme.StatusIterEnd:
		return nil, nil, ErrIterEnd
	case nvme.StatusIterInvalid:
		return nil, nil, ErrIterInvalidated
	}
	if err := comp.Status.Err(); err != nil {
		return nil, nil, err
	}
	n := int(comp.Result)
	if n < 1 || n > MaxValueSize {
		return nil, nil, fmt.Errorf("driver: bad NEXT payload size %d", n)
	}
	data, err := prp.WithPayload(n).GatherInto(d.mem, d.readBuf[:0])
	if err != nil {
		return nil, nil, err
	}
	d.readBuf = data[:0]
	kl := int(data[0])
	if 1+kl > n {
		return nil, nil, fmt.Errorf("driver: corrupt NEXT payload")
	}
	return data[1 : 1+kl], data[1+kl : n], nil
}

// Flush forces buffered state to NAND.
func (d *Driver) Flush() error {
	_, err := d.call(d.command(nvme.OpKVFlush))
	return err
}

// Identify fetches the controller's identify structure — model, capacity,
// geometry, and the BandSlim capability fields (inline transfer capacities,
// active packing policy).
func (d *Driver) Identify() (device.IdentifyData, error) {
	prp := d.staging().WithPayload(4096)
	cmd := d.command(nvme.OpAdminIdentify)
	cmd.SetPRP1(prp.Pages[0])
	if _, err := d.call(cmd); err != nil {
		return device.IdentifyData{}, err
	}
	data, err := prp.GatherInto(d.mem, d.readBuf[:0])
	if err != nil {
		return device.IdentifyData{}, err
	}
	d.readBuf = data[:0]
	return device.ParseIdentify(data), nil
}

// Recover mounts the device after a power cut: fresh queues, the LSM catalog
// rolled back to its last durable point, and the battery-backed MemTable read
// back — it holds every acknowledged write since. The clock advances past the
// mount's device work plus one command round trip (the host's re-attach
// handshake). A fault plan can cut power again during the mount's flush; the
// returned error then carries StatusPowerLoss semantics and a subsequent
// Recover resumes.
func (d *Driver) Recover() error {
	// The mount replaces the SQ/CQ rings, so any window frames referencing
	// pre-cut completions are void; reset the window rather than reaping it.
	clear(d.frames)
	d.inflight, d.unrung = 0, 0
	end, err := d.dev.Mount(d.clock.Now())
	d.clock.AdvanceTo(end.Add(d.link.Model.CommandRoundTrip))
	d.stats.Recoveries.Inc()
	return err
}

// CompactVLog asks the device to garbage-collect the oldest `pages` value-
// log pages (WiscKey-style: live values relocate to the head, dead space is
// reclaimed). It reports how many values were relocated.
func (d *Driver) CompactVLog(pages int) (int, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("driver: pages must be positive")
	}
	cmd := d.command(nvme.OpKVCompact)
	cmd.SetValueSize(uint32(pages))
	comp, err := d.call(cmd)
	if err != nil {
		return 0, err
	}
	return int(comp.Result), nil
}
