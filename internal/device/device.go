// Package device implements the BandSlim Key-Value Controller (§3.1): the
// simulated KV-SSD firmware that fetches NVMe commands, reassembles
// piggybacked value fragments, drives the page-aligned DMA engine, packs
// values into the NAND page buffer under the configured policy, and indexes
// them in the in-device KV-separated LSM-tree.
package device

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"bandslim/internal/cache"
	"bandslim/internal/dma"
	"bandslim/internal/fault"
	"bandslim/internal/ftl"
	"bandslim/internal/lsm"
	"bandslim/internal/metrics"
	"bandslim/internal/nand"
	"bandslim/internal/nvme"
	"bandslim/internal/pagebuf"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
	"bandslim/internal/vlog"
)

// Config assembles a whole device.
type Config struct {
	Geometry nand.Geometry
	Latency  nand.Latency
	FTL      ftl.Config
	Buffer   pagebuf.Config
	LSM      lsm.Config
	Memcpy   dma.MemcpyModel
	// VLogFraction of the FTL's logical pages backs the value log; the
	// rest holds SSTable meta pages.
	VLogFraction float64
	// NANDEnabled gates persistence. The paper's transfer experiments
	// (§4.2) disable NAND I/O to isolate interconnect behaviour; writes
	// then complete after transfer and reassembly.
	NANDEnabled bool
	// QueueDepth sizes the SQ/CQ rings.
	QueueDepth int
	// Cache configures the simulated device-DRAM read tier (value +
	// SSTable-page caches). The zero value disables it, leaving timing and
	// allocations identical to a cache-less device.
	Cache cache.Config
}

// DefaultConfig returns a device matching the evaluation platform: Cosmos+
// geometry (scaled), 16 KiB NAND pages, 512 page-buffer entries.
func DefaultConfig() Config {
	return Config{
		Geometry: nand.DefaultGeometry(),
		Latency:  nand.DefaultLatency(),
		FTL:      ftl.DefaultConfig(),
		Buffer: pagebuf.Config{
			PageSize:   16 * 1024,
			MaxEntries: 512,
			Policy:     pagebuf.PolicyBlock,
		},
		LSM:          lsm.DefaultConfig(),
		Memcpy:       dma.DefaultMemcpyModel(),
		VLogFraction: 0.75,
		NANDEnabled:  true,
		QueueDepth:   64,
	}
}

// Stats tallies controller activity.
type Stats struct {
	PowerCuts       metrics.Counter // power-cut faults taken
	Mounts          metrics.Counter // recovery mounts performed
	ReplayedRecords metrics.Counter // journal records replayed at mount

	// Device-DRAM read-cache tallies (zero while the cache is disabled).
	CacheHits          metrics.Counter // value-tier hits (reads served from DRAM)
	CacheMisses        metrics.Counter // value-tier misses (reads that walked the LSM)
	PageCacheHits      metrics.Counter // SSTable-page-tier hits
	PageCacheMisses    metrics.Counter // SSTable-page-tier misses
	CacheEvictions     metrics.Counter // entries evicted across both tiers
	CacheInvalidations metrics.Counter // entries dropped by the strict invalidation protocol
}

// pendingWrite reassembles a value spanning multiple commands (§3.3.1: the
// driver keeps fragments FIFO in the same queue, so one open write per queue
// suffices).
type pendingWrite struct {
	key     []byte
	value   []byte
	want    int
	mode    nvme.TransferMode
	dmaPart int // bytes of the value that arrived by DMA (hybrid head)
	reached sim.Time
}

// Device is the simulated KV-SSD.
type Device struct {
	cfg     Config
	clock   *sim.Clock
	link    *pcie.Link
	eng     *dma.Engine
	flash   *nand.Array
	ftl     *ftl.FTL
	vlog    *vlog.VLog
	tree    *lsm.Tree
	hostMem *nvme.HostMemory
	qp      *nvme.QueuePair
	pending *pendingWrite
	iter    *lsm.Iterator
	stats   Stats
	tr      trace.Tracer
	inj     *fault.Injector
	// dead latches after a power cut: every command completes with
	// StatusPowerLoss until Mount. jnl is the battery-backed index journal
	// replayed at mount (see journal.go).
	dead bool
	jnl  journal
	// Device-DRAM read cache: vcache serves whole vLog entries before the
	// LSM walk, pstore interposes the SSTable-page tier (pass-through when
	// detached). Each hit charges cache.HitLatency.
	vcache *cache.Values
	pstore *cachingStore

	// Scratch reused across commands. The controller executes commands one at
	// a time (single-owner firmware), and §3.3.1's contract of one open write
	// per queue means pwScratch can back every pendingWrite. Downstream
	// consumers copy synchronously (pagebuf writeBytes, memtable key copy), so
	// nothing retains these slices across commands.
	pwScratch  pendingWrite
	keyScratch []byte   // per-command key decode (read/delete/seek)
	valueBuf   []byte   // pendingWrite value backing (write/batch reassembly)
	readBuf    []byte   // vLog read destination (read/next)
	nextBuf    []byte   // NEXT payload framing [klen][key][value]
	prpScratch []uint64 // PRP page-run reconstruction for transfers
	// sweep holds one Process call's completions until they post in Ready
	// order; it is reused so a sweep allocates nothing.
	sweep []nvme.Completion
}

// New builds a device over a fresh flash array, sharing the caller's clock,
// link and host memory (the driver owns those).
func New(cfg Config, clock *sim.Clock, link *pcie.Link, hostMem *nvme.HostMemory) (*Device, error) {
	if cfg.VLogFraction <= 0 || cfg.VLogFraction >= 1 {
		return nil, fmt.Errorf("device: VLogFraction %v out of (0,1)", cfg.VLogFraction)
	}
	if cfg.QueueDepth < 2 {
		return nil, fmt.Errorf("device: QueueDepth %d too small", cfg.QueueDepth)
	}
	if l := cfg.Latency; l.Read < 0 || l.Prog < 0 || l.Erase < 0 {
		return nil, fmt.Errorf("device: negative NAND latency %+v", l)
	}
	if cfg.Memcpy.Fixed < 0 {
		return nil, fmt.Errorf("device: negative memcpy overhead %v", cfg.Memcpy.Fixed)
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	flash, err := nand.New(cfg.Geometry, cfg.Latency, clock)
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(flash, cfg.FTL)
	if err != nil {
		return nil, err
	}
	eng := dma.NewEngine(link, cfg.Memcpy)
	vlogPages := int(float64(f.LogicalPages()) * cfg.VLogFraction)
	v, err := vlog.Build(f, cfg.Buffer, eng, 0, vlogPages)
	if err != nil {
		return nil, err
	}
	store, err := lsm.NewFTLStore(f, vlogPages, f.LogicalPages()-vlogPages)
	if err != nil {
		return nil, err
	}
	// The caching wrapper is always interposed: a pure pass-through without a
	// page tier.
	pstore := &cachingStore{inner: store}
	if cfg.Cache.Pages > 0 {
		pstore.pages = cache.NewPages(cfg.Cache.Pages, cache.NewPolicy(cfg.Cache.Policy))
	}
	tree, err := lsm.NewTree(cfg.LSM, pstore)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:     cfg,
		clock:   clock,
		link:    link,
		eng:     eng,
		flash:   flash,
		ftl:     f,
		vlog:    v,
		tree:    tree,
		hostMem: hostMem,
		qp:      nvme.NewQueuePair(cfg.QueueDepth),
		pstore:  pstore,
	}
	pstore.dev = d
	if cfg.Cache.ValueBytes > 0 {
		d.vcache = cache.NewValues(cfg.Cache.ValueBytes, cache.NewPolicy(cfg.Cache.Policy))
	}
	// A committed tree flush is the durability point: acknowledged records
	// are on flash, so the battery-backed journal empties.
	tree.SetOnDurable(d.jnl.reset)
	return d, nil
}

// SetInjector wires a plan-driven fault injector through every device-side
// component that can fail: the NAND array, the DMA engine, and the
// controller's own command dispatch. A nil injector disables injection.
func (d *Device) SetInjector(inj *fault.Injector) {
	d.inj = inj
	d.flash.SetInjector(inj)
	d.eng.SetInjector(inj)
}

// Queues exposes the device's queue pair for the driver.
func (d *Device) Queues() *nvme.QueuePair { return d.qp }

// SetTracer wires the tracer through every device-side component: the DMA
// engine, the NAND array, the page buffer, the queue rings, and the
// controller's own command-execution spans. A nil tracer disables them all.
func (d *Device) SetTracer(tr trace.Tracer) {
	d.tr = tr
	d.eng.SetTracer(tr)
	d.flash.SetTracer(tr)
	d.vlog.Buffer().SetTracer(tr)
	d.qp.Attach(d.clock, tr)
}

// Stats exposes the controller tallies.
func (d *Device) Stats() *Stats { return &d.stats }

// Flash exposes the NAND array (for NAND I/O counts).
func (d *Device) Flash() *nand.Array { return d.flash }

// FTL exposes the translation layer (for GC stats).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Tree exposes the LSM index (for compaction stats).
func (d *Device) Tree() *lsm.Tree { return d.tree }

// VLog exposes the value log (for packing stats).
func (d *Device) VLog() *vlog.VLog { return d.vlog }

// Engine exposes the DMA engine (for memcpy stats).
func (d *Device) Engine() *dma.Engine { return d.eng }

// Buffer exposes the NAND page buffer (for policy stats).
func (d *Device) Buffer() *pagebuf.Buffer { return d.vlog.Buffer() }

// Process fetches and executes every published command and posts one
// completion per command; t is when the SQ doorbell write reached the device.
//
//   - Command i of the sweep starts at t + i·stagger: 0 for a synchronous
//     call or a doorbell burst, the link's pipeline interval (the fetch/parse
//     cadence) for the driver's submission window.
//   - Each command's device work runs against the NAND way and wire
//     BusyLines from its own start time, so reads landing on different
//     channels/ways overlap while same-way reads serialize.
//   - Each completion is stamped Ready: its work's end, at least its start,
//     rounded up to a multiple of coalesce when coalesce > 0 (interrupt
//     coalescing: fewer, batched CQ deliveries for some completion latency).
//   - Completions post in Ready order — out of order with respect to
//     submission — and ties keep fetch order, so two runs of the same command
//     stream post byte-identical completion streams.
//
// State mutations still happen in fetch order on the controller (single
// firmware core), so per-key ordering and §3.3.1's one-open-write invariant
// hold whatever the stagger; only completion timing and posting order change.
func (d *Device) Process(t sim.Time, stagger, coalesce sim.Duration) error {
	sweep := d.sweep[:0]
	for i, n := 0, d.qp.SQ.Pending(); i < n; i++ {
		cmd, err := d.qp.SQ.Fetch()
		if err != nil {
			return err
		}
		d.link.RecordCommandFetch()
		start := t.Add(sim.Duration(i) * stagger)
		comp, ready := d.execute(start, cmd)
		ready = max(ready, start)
		if coalesce > 0 {
			if rem := sim.Duration(int64(ready) % int64(coalesce)); rem != 0 {
				ready = ready.Add(coalesce - rem)
			}
		}
		comp.SQHead = d.qp.SQ.Head()
		comp.Ready = ready
		if n == 1 {
			return d.post(comp) // nothing to order a lone completion against
		}
		sweep = append(sweep, comp)
	}
	slices.SortStableFunc(sweep, func(a, b nvme.Completion) int { return cmp.Compare(a.Ready, b.Ready) })
	d.sweep = sweep[:0]
	for _, comp := range sweep {
		if err := d.post(comp); err != nil {
			return err
		}
	}
	return nil
}

// post places comp on the completion queue.
func (d *Device) post(comp nvme.Completion) error {
	if err := d.qp.CQ.Post(comp); err != nil {
		return fmt.Errorf("device: completion queue overflow: %w", err)
	}
	d.link.RecordCompletion()
	return nil
}

// execute runs one command and returns its completion and the time its
// device-side work finished.
func (d *Device) execute(t sim.Time, cmd nvme.Command) (nvme.Completion, sim.Time) {
	comp := nvme.Completion{CommandID: cmd.CommandID(), Status: nvme.StatusSuccess}
	if d.dead {
		// Power has been cut: nothing executes until the host mounts the
		// device again.
		comp.Status = nvme.StatusPowerLoss
		return comp, t
	}
	if eff, ok := d.inj.Check(fault.SiteExec, t); ok {
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvFault, Op: byte(cmd.Opcode()), Start: t, End: t, Arg: int64(eff)})
		}
		switch eff {
		case fault.EffectPowerCut:
			d.powerCut(t)
			comp.Status = nvme.StatusPowerLoss
		case fault.EffectTransient:
			comp.Status = nvme.StatusTransient
		default:
			comp.Status = nvme.StatusMedia
		}
		return comp, t
	}
	var end sim.Time
	var err error
	switch cmd.Opcode() {
	case nvme.OpKVWrite:
		end, err = d.execWrite(t, cmd)
	case nvme.OpKVTransfer:
		end, err = d.execTransfer(t, cmd)
	case nvme.OpKVRead:
		var n int
		n, end, err = d.execRead(t, cmd)
		comp.Result = uint32(n)
	case nvme.OpKVDelete:
		end, err = d.execDelete(t, cmd)
	case nvme.OpKVSeek:
		end, err = d.execSeek(t, cmd)
	case nvme.OpKVNext:
		var n int
		n, end, err = d.execNext(t, cmd)
		comp.Result = uint32(n)
	case nvme.OpKVFlush:
		end, err = d.execFlush(t)
	case nvme.OpKVBatchWrite:
		var n int
		n, end, err = d.execBatchWrite(t, cmd)
		comp.Result = uint32(n)
	case nvme.OpKVCompact:
		var n int
		n, end, err = d.execCompact(t, cmd)
		comp.Result = uint32(n)
	case nvme.OpAdminIdentify:
		var n int
		n, end, err = d.execIdentify(t, cmd)
		comp.Result = uint32(n)
	default:
		comp.Status = nvme.StatusInvalidField
		return comp, t
	}
	if err != nil {
		if errors.Is(err, fault.ErrPowerCut) {
			// The cut happened mid-command, somewhere down the stack; all
			// volatile state is gone as of now.
			d.powerCut(t)
		}
		comp.Status = classify(err)
	}
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvExec, Op: byte(cmd.Opcode()), Start: t, End: end, Arg: int64(cmd.CommandID())})
	}
	return comp, end
}

// classify maps internal errors onto NVMe status codes.
func classify(err error) nvme.Status {
	switch {
	case err == errKeyNotFound:
		return nvme.StatusKeyNotFound
	case err == errIterEnd:
		return nvme.StatusIterEnd
	case err == errBadField:
		return nvme.StatusInvalidField
	case errors.Is(err, fault.ErrPowerCut):
		return nvme.StatusPowerLoss
	case errors.Is(err, fault.ErrTransient):
		return nvme.StatusTransient
	case errors.Is(err, nand.ErrIOFault):
		return nvme.StatusMedia
	case errors.Is(err, ftl.ErrNoSpace):
		return nvme.StatusCapacity
	case errors.Is(err, lsm.ErrIteratorInvalidated):
		return nvme.StatusIterInvalid
	default:
		return nvme.StatusInternal
	}
}

// powerCut truncates the device's volatile state at simulated time t: the
// open pending write, the device-side iterator, and (conceptually) the SQ/CQ
// rings are lost; the dead latch makes every subsequent command complete
// with StatusPowerLoss until Mount. Battery-backed state — the vLog page
// buffer and the index journal — survives, as the paper's platform rides out
// power loss (§2.2).
func (d *Device) powerCut(t sim.Time) {
	if d.dead {
		return
	}
	d.dead = true
	d.pending = nil
	d.iter = nil
	// Device DRAM is volatile: both cache tiers vanish with the power.
	d.dropCaches()
	d.stats.PowerCuts.Inc()
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvPowerCut, Start: t, End: t})
	}
}

// Mount brings a power-cut device back into service: fresh SQ/CQ rings, the
// LSM catalog rolled back to its last durable point, and the battery-backed
// index journal replayed into a fresh MemTable — which restores every
// acknowledged write. The returned time includes the replay's device work.
//
// If a fault fires during replay (plans can do that), the journal still
// holds every record not yet durable, so a subsequent Mount resumes cleanly.
func (d *Device) Mount(t sim.Time) (sim.Time, error) {
	d.dead = false
	d.pending = nil
	d.iter = nil
	// The rings are volatile; the driver re-reads Queues() on every submit,
	// so replacing the pair models the host re-creating its queues.
	d.qp = nvme.NewQueuePair(d.cfg.QueueDepth)
	d.qp.Attach(d.clock, d.tr)
	d.stats.Mounts.Inc()
	end := t
	if d.cfg.NANDEnabled {
		d.tree.Restore()
		var err error
		end, err = d.replayJournal(t)
		if err != nil {
			return end, err
		}
	}
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvMount, Start: t, End: end, Arg: int64(d.stats.ReplayedRecords.Value())})
	}
	return end, nil
}

// replayJournal re-indexes every journal record through the journaled insert
// path. Replay charges one device memcpy per record (reading it out of the
// battery-backed region) and validates value addresses against the vLog's
// live range before trusting them.
func (d *Device) replayJournal(t sim.Time) (sim.Time, error) {
	if d.jnl.len() == 0 {
		return t, nil
	}
	// Snapshot first: re-appending goes through the live journal, and a tree
	// flush during replay resets it (those records just became durable).
	recs := append([]journalRecord(nil), d.jnl.recs...)
	arena := append([]byte(nil), d.jnl.arena...)
	d.jnl.reset()
	end := t
	for i, r := range recs {
		key := arena[r.keyOff : r.keyOff+r.keyLen]
		end = d.eng.Memcpy(end, r.keyLen+journalRecordOverhead)
		if !r.tomb && !d.vlog.Contains(r.addr, int(r.size)) {
			// Stale: vLog GC reclaimed this value's pages after the record
			// was journaled — which only happens once a later record (the
			// relocation, an overwrite, or a tombstone) superseded it. The
			// later record is authoritative; skip this one.
			continue
		}
		d.jnl.append(key, r.addr, r.size, r.tomb)
		var err error
		if r.tomb {
			end, err = d.tree.Delete(end, key)
		} else {
			end, err = d.tree.Put(end, key, r.addr, r.size)
		}
		if err != nil {
			// Keep the not-yet-replayed tail journaled so the next Mount
			// can resume; the failing record is already re-appended above.
			for _, rr := range recs[i+1:] {
				d.jnl.append(arena[rr.keyOff:rr.keyOff+rr.keyLen], rr.addr, rr.size, rr.tomb)
			}
			if errors.Is(err, fault.ErrPowerCut) {
				d.powerCut(end)
			}
			return end, err
		}
		d.stats.ReplayedRecords.Inc()
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvReplay, Start: end, End: end, Bytes: int64(r.size)})
		}
	}
	return end, nil
}

var (
	errKeyNotFound = fmt.Errorf("device: key not found")
	errIterEnd     = fmt.Errorf("device: iterator exhausted")
	errBadField    = fmt.Errorf("device: invalid command field")
)

// execWrite starts (and possibly completes) a key-value write. The
// pendingWrite and its key/value backing are controller-owned scratch, reused
// across commands.
func (d *Device) execWrite(t sim.Time, cmd nvme.Command) (sim.Time, error) {
	pw := &d.pwScratch
	pw.key = cmd.AppendKey(pw.key[:0])
	if len(pw.key) == 0 {
		return t, errBadField
	}
	total := int(cmd.ValueSize())
	pw.value = d.valueBuf[:0]
	pw.want = total
	pw.mode = cmd.TransferMode()
	pw.dmaPart = 0
	pw.reached = t
	switch pw.mode {
	case nvme.ModePRP:
		value, end, err := d.dmaValue(t, cmd, total, pw.value)
		if err != nil {
			return t, err
		}
		pw.value = value
		pw.dmaPart = total
		pw.reached = end
	case nvme.ModeSGL:
		value, end, err := d.sglValue(t, cmd, total, pw.value)
		if err != nil {
			return t, err
		}
		pw.value = value
		pw.dmaPart = total
		pw.reached = end
	case nvme.ModeInline:
		n := min(total, nvme.PiggybackWriteCapacity)
		pw.value = cmd.AppendWritePiggyback(pw.value, n)
	case nvme.ModeHybrid:
		dmaPart := total / pcie.MemoryPageSize * pcie.MemoryPageSize
		if dmaPart == 0 {
			return t, errBadField // hybrid requires at least one full page
		}
		value, end, err := d.dmaValue(t, cmd, dmaPart, pw.value)
		if err != nil {
			return t, err
		}
		pw.value = value
		pw.dmaPart = dmaPart
		pw.reached = end
	default:
		return t, errBadField
	}
	d.valueBuf = pw.value[:0]
	if len(pw.value) >= pw.want {
		return d.commitWrite(pw)
	}
	d.pending = pw
	return pw.reached, nil
}

// prpFor reconstructs the PRP list a command describes into the controller's
// page-run scratch. PRP1 holds the first page; PRP2 the second page or the
// list pointer. The simulation stores the full list in host memory keyed off
// PRP1 sequentially (addresses are synthetic), so reconstruct from PRP1.
func (d *Device) prpFor(cmd nvme.Command, n int) nvme.PRPList {
	base := cmd.PRP1()
	d.prpScratch = d.prpScratch[:0]
	for i := 0; i < pcie.PagesFor(n); i++ {
		d.prpScratch = append(d.prpScratch, base+uint64(i)*pcie.MemoryPageSize)
	}
	return nvme.PRPList{Pages: d.prpScratch, Payload: n}
}

// dmaValue runs the page-unit DMA described by the command's PRP fields,
// appending the payload to dst.
func (d *Device) dmaValue(t sim.Time, cmd nvme.Command, n int, dst []byte) ([]byte, sim.Time, error) {
	value, end, err := d.eng.TransferInTo(t, d.hostMem, d.prpFor(cmd, n), dst)
	if err != nil {
		return nil, t, err
	}
	return value, end, nil
}

// sglValue runs the Scatter-Gather List transfer described by the command,
// appending the payload to dst.
func (d *Device) sglValue(t sim.Time, cmd nvme.Command, n int, dst []byte) ([]byte, sim.Time, error) {
	value, end, err := d.eng.TransferInSGLTo(t, d.hostMem, d.prpFor(cmd, n), dst)
	if err != nil {
		return nil, t, err
	}
	return value, end, nil
}

// execTransfer appends one trailing fragment to the open write.
func (d *Device) execTransfer(t sim.Time, cmd nvme.Command) (sim.Time, error) {
	pw := d.pending
	if pw == nil {
		return t, errBadField
	}
	remain := pw.want - len(pw.value)
	n := min(remain, nvme.PiggybackTransferCapacity)
	pw.value = cmd.AppendTransferPiggyback(pw.value, n)
	d.valueBuf = pw.value[:0]
	if t > pw.reached {
		pw.reached = t
	}
	if len(pw.value) >= pw.want {
		d.pending = nil
		return d.commitWrite(pw)
	}
	return pw.reached, nil
}

// commitWrite places the reassembled value and indexes it.
func (d *Device) commitWrite(pw *pendingWrite) (sim.Time, error) {
	// Invalidate before any mutation: if the vLog append or the index
	// insert is interrupted mid-way, the cache must already have forgotten
	// the old value.
	d.invalidateValue(pw.key)
	end := pw.reached
	if d.cfg.NANDEnabled {
		var addr vlog.Addr
		var err error
		if pw.dmaPart > 0 {
			// Hybrid tails were copied out of command fields next to the
			// DMA head before placement; charge that device copy.
			if tail := len(pw.value) - pw.dmaPart; tail > 0 {
				end = d.eng.Memcpy(end, tail)
			}
			addr, end, err = d.vlog.AppendDMA(end, pw.value)
		} else {
			addr, end, err = d.vlog.AppendPiggybacked(end, pw.value)
		}
		if err != nil {
			return end, err
		}
		// Journal before indexing: once the value is in the battery-backed
		// buffer and the record is journaled, the write survives power loss
		// even if the tree insert below is interrupted.
		d.jnl.append(pw.key, addr, uint32(len(pw.value)), false)
		end, err = d.tree.Put(end, pw.key, addr, uint32(len(pw.value)))
		if err != nil {
			return end, err
		}
	}
	return end, nil
}

// execRead resolves a key, from the device-DRAM value cache or through the
// LSM index and vLog, and DMAs its value into the host pages the command
// describes. The command's value-size field declares that buffer's size: a
// value that does not fit fails the engine's scatter before any byte moves.
// It returns the value size.
func (d *Device) execRead(t sim.Time, cmd nvme.Command) (int, sim.Time, error) {
	d.keyScratch = cmd.AppendKey(d.keyScratch[:0])
	key := d.keyScratch
	if len(key) == 0 {
		return 0, t, errBadField
	}
	var value []byte
	end, hit := t, false
	if d.vcache != nil {
		if value, hit = d.vcache.Get(key); hit {
			// Device-DRAM hit: charge the DRAM access instead of the LSM
			// walk + vLog read, then DMA out as usual.
			d.stats.CacheHits.Inc()
			end = t.Add(cache.HitLatency)
			if d.tr != nil {
				d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvCacheHit, Op: byte(cmd.Opcode()), Start: t, End: end, Bytes: int64(len(value))})
			}
		} else {
			d.stats.CacheMisses.Inc()
		}
	}
	if !hit {
		e, ok, found, err := d.tree.Get(t, key)
		if err != nil {
			return 0, t, err
		}
		if !ok || e.Tombstone {
			return 0, found, errKeyNotFound
		}
		if value, end, err = d.vlog.ReadInto(found, e.Addr, int(e.Size), d.readBuf[:0]); err != nil {
			return 0, end, err
		}
		d.readBuf = value[:0]
	}
	end, err := d.eng.TransferOut(end, d.hostMem, d.prpFor(cmd, min(len(value), int(cmd.ValueSize()))), value)
	if err != nil {
		return 0, end, err
	}
	if !hit {
		d.fillValue(end, key, value)
	}
	return len(value), end, nil
}

// transferOut DMAs data to the host buffer described by the command's PRP.
func (d *Device) transferOut(t sim.Time, cmd nvme.Command, data []byte) (sim.Time, error) {
	if len(data) == 0 {
		return t, nil
	}
	return d.eng.TransferOut(t, d.hostMem, d.prpFor(cmd, len(data)), data)
}

// execDelete writes a tombstone.
func (d *Device) execDelete(t sim.Time, cmd nvme.Command) (sim.Time, error) {
	d.keyScratch = cmd.AppendKey(d.keyScratch[:0])
	key := d.keyScratch
	if len(key) == 0 {
		return t, errBadField
	}
	d.invalidateValue(key)
	end := t
	if d.cfg.NANDEnabled {
		d.jnl.append(key, 0, 0, true)
		var err error
		end, err = d.tree.Delete(t, key)
		if err != nil {
			return end, err
		}
	}
	return end, nil
}

// execSeek opens the device-side iterator at the first key >= the command
// key.
func (d *Device) execSeek(t sim.Time, cmd nvme.Command) (sim.Time, error) {
	d.keyScratch = cmd.AppendKey(d.keyScratch[:0])
	it, err := d.tree.Seek(t, d.keyScratch)
	if err != nil {
		return t, err
	}
	d.iter = it
	return it.End(), nil
}

// execNext returns the iterator's current pair into the host buffer as
// [keyLen u8][key][value] and advances. The command's value-size field
// declares that buffer's size, as on a read: a pair that does not fit fails
// the engine's scatter before any byte moves, and the iterator stays put. The
// returned int is the total bytes written.
func (d *Device) execNext(t sim.Time, cmd nvme.Command) (int, sim.Time, error) {
	if d.iter == nil {
		return 0, t, errIterEnd
	}
	// A failed iterator keeps failing: answering a later NEXT with "end"
	// would turn the error into a silently truncated scan.
	if err := d.iter.Err(); err != nil {
		return 0, t, err
	}
	if !d.iter.Valid() {
		return 0, t, errIterEnd
	}
	e := d.iter.Entry()
	value, end, err := d.vlog.ReadInto(d.iter.End(), e.Addr, int(e.Size), d.readBuf[:0])
	if err != nil {
		return 0, t, err
	}
	d.readBuf = value[:0]
	payload := d.nextBuf[:0]
	payload = append(payload, byte(len(e.Key)))
	payload = append(payload, e.Key...)
	payload = append(payload, value...)
	d.nextBuf = payload[:0]
	end, err = d.eng.TransferOut(end, d.hostMem, d.prpFor(cmd, min(len(payload), int(cmd.ValueSize()))), payload)
	if err != nil {
		return 0, end, err
	}
	d.iter.Next(end)
	if d.iter.Err() != nil {
		return 0, end, d.iter.Err()
	}
	return len(payload), end, nil
}

// execFlush forces the vLog buffer and MemTable to NAND.
func (d *Device) execFlush(t sim.Time) (sim.Time, error) {
	if !d.cfg.NANDEnabled {
		return t, nil
	}
	d.dropValueCache()
	end, err := d.vlog.Flush(t)
	if err != nil {
		return end, err
	}
	tEnd, err := d.tree.Flush(t)
	if err != nil {
		return end, err
	}
	if tEnd > end {
		end = tEnd
	}
	return end, nil
}
