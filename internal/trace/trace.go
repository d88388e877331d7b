// Package trace is the simulator's command-level event bus: every layer of
// the stack (driver, PCIe link, NVMe queues, DMA engine, NAND page buffer,
// flash array) emits timestamped events through a Tracer, turning one PUT
// into a visible chain — command fetch → DMA → buffer memcpy → forced-flush
// cascade → NAND program — the way full-system SSD simulators (SimpleSSD,
// Amber) expose per-request behaviour.
//
// Tracing is strictly opt-in and zero-cost when disabled: components hold a
// nil Tracer by default and guard every emission with a nil check, so the
// untraced hot path pays one predictable branch and no allocation. A
// ring-buffered Recorder is the standard sink; exporters render its events
// as JSONL or Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
//
// All timestamps are simulated time (sim.Time), never wall clock, so a given
// seed and configuration reproduces a byte-identical event stream.
package trace

import (
	"fmt"
	"sync"

	"bandslim/internal/sim"
)

// Category identifies the subsystem that emitted an event. Categories map to
// Perfetto threads on export, so each layer gets its own track.
type Category uint8

// The instrumented subsystems, host side first.
const (
	CatDriver Category = iota
	CatPCIe
	CatNVMe
	CatDMA
	CatPageBuf
	CatNAND
	CatDevice

	numCategories
)

func (c Category) String() string {
	switch c {
	case CatDriver:
		return "driver"
	case CatPCIe:
		return "pcie"
	case CatNVMe:
		return "nvme"
	case CatDMA:
		return "dma"
	case CatPageBuf:
		return "pagebuf"
	case CatNAND:
		return "nand"
	case CatDevice:
		return "device"
	default:
		return fmt.Sprintf("cat(%d)", uint8(c))
	}
}

// Name identifies what happened within a subsystem.
type Name uint8

// Event names, grouped by the category that emits them.
const (
	// CatDriver: one per host-visible operation and per command round trip.
	EvPut Name = iota
	EvGet
	EvDelete
	EvSubmit // one synchronous command round trip
	EvBurst  // one pipelined multi-command burst
	// CatPCIe: the MMIO and command-fetch wire activity of Fig. 10(d).
	EvDoorbell
	EvCmdFetch
	// CatNVMe: SQ/CQ ring transitions.
	EvSQPush
	EvSQFetch
	EvCQPost
	EvCQReap
	// CatDMA: engine transfers and device-CPU copies.
	EvDMAIn
	EvDMAOut
	EvSGLIn
	EvMemcpy
	// CatPageBuf: placements and the flush cascade.
	EvPiggyAppend
	EvDMAAppend
	EvBackfillJump
	EvFlush
	EvForcedFlush
	// CatNAND: flash operations.
	EvProgram
	EvRead
	EvErase
	// CatDevice: firmware execution of one command.
	EvExec
	// Fault injection and crash recovery: an injected fault firing, the
	// power-cut truncation instant, a host-side resubmission, a device mount,
	// and one replayed journal record.
	EvFault
	EvPowerCut
	EvRetry
	EvMount
	EvReplay
	// Async submission window (CatDriver): EvSubmit doubles as the
	// queued-submission instant when the window is deep, and EvReap spans a
	// command's in-flight life from submission to its completion being
	// matched back by CID.
	EvReap
	// Device-DRAM read cache (CatDevice): EvCacheHit spans the DRAM access
	// that replaced an LSM walk + NAND read (value tier, Op = opcode) or an
	// SSTable page fetch (page tier, Op = 0); EvCacheEvict marks a fill
	// evicting Arg entries.
	EvCacheHit
	EvCacheEvict

	numNames
)

func (n Name) String() string {
	switch n {
	case EvPut:
		return "put"
	case EvGet:
		return "get"
	case EvDelete:
		return "delete"
	case EvSubmit:
		return "submit"
	case EvBurst:
		return "burst"
	case EvDoorbell:
		return "doorbell"
	case EvCmdFetch:
		return "cmd_fetch"
	case EvSQPush:
		return "sq_push"
	case EvSQFetch:
		return "sq_fetch"
	case EvCQPost:
		return "cq_post"
	case EvCQReap:
		return "cq_reap"
	case EvDMAIn:
		return "dma_in"
	case EvDMAOut:
		return "dma_out"
	case EvSGLIn:
		return "sgl_in"
	case EvMemcpy:
		return "memcpy"
	case EvPiggyAppend:
		return "piggy_append"
	case EvDMAAppend:
		return "dma_append"
	case EvBackfillJump:
		return "backfill_jump"
	case EvFlush:
		return "flush"
	case EvForcedFlush:
		return "forced_flush"
	case EvProgram:
		return "program"
	case EvRead:
		return "read"
	case EvErase:
		return "erase"
	case EvExec:
		return "exec"
	case EvFault:
		return "fault"
	case EvPowerCut:
		return "power_cut"
	case EvRetry:
		return "retry"
	case EvMount:
		return "mount"
	case EvReplay:
		return "replay"
	case EvReap:
		return "reap"
	case EvCacheHit:
		return "cache_hit"
	case EvCacheEvict:
		return "cache_evict"
	default:
		return fmt.Sprintf("ev(%d)", uint8(n))
	}
}

// Event is one timestamped occurrence in the simulated stack. The struct is
// flat and pointer-free so emitting never allocates.
type Event struct {
	// Seq is the emission order of the event's shard within one Recorder
	// (assigned on Emit, from 1 per shard), so a recorder shared by several
	// shards numbers each shard's stream without gaps.
	Seq uint64
	// Shard is the id of the stack that emitted the event (0 for a DB).
	Shard int32
	// Cat is the emitting subsystem; Name says what happened.
	Cat  Category
	Name Name
	// Op is the NVMe opcode in flight, when one applies (else 0).
	Op uint8
	// Start and End bound the event in simulated time. Instantaneous events
	// (doorbells, ring transitions) have End == Start.
	Start sim.Time
	End   sim.Time
	// Bytes is the payload or wire byte count the event moved, when any.
	Bytes int64
	// Arg carries one event-specific detail: the command id for queue and
	// submit events, the vLog page number for flushes, the placement
	// address for appends.
	Arg int64
}

// Duration reports the event's simulated span.
func (e Event) Duration() sim.Duration { return e.End.Sub(e.Start) }

// Tracer consumes events. Implementations must tolerate concurrent Emit
// calls when attached to more than one goroutine (the Recorder does).
//
// Components treat a nil Tracer as "tracing off" and skip emission entirely,
// which is the zero-overhead disabled path.
type Tracer interface {
	Emit(ev Event)
}

// Recorder is a fixed-capacity ring buffer of events: the standard Tracer
// sink. When full it drops the oldest events, keeping the most recent
// window, and counts what it dropped.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int              // index of the oldest event
	n       int              // events currently held
	seq     map[int32]uint64 // last Seq stamped, per shard
	dropped int64
}

// NewRecorder returns a recorder holding at most capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity), seq: map[int32]uint64{}}
}

// Emit stores the event, stamping the next sequence number of its shard.
// Oldest events are evicted once the ring is full.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq[ev.Shard] + 1
	r.seq[ev.Shard] = ev.Seq
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
	}
	r.mu.Unlock()
}

// Events returns the recorded events in emission order (oldest first).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped reports how many events were evicted after the ring filled.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards every recorded event (the sequence counter keeps running,
// so drained and live streams never reuse numbers).
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.start, r.n = 0, 0
	r.mu.Unlock()
}

// shardTracer stamps a fixed shard id on every event before forwarding.
type shardTracer struct {
	t     Tracer
	shard int32
}

func (s shardTracer) Emit(ev Event) {
	ev.Shard = s.shard
	s.t.Emit(ev)
}

// WithShard returns a tracer that stamps shard on every event before
// forwarding to t. A nil t yields nil, preserving the disabled fast path.
func WithShard(t Tracer, shard int) Tracer {
	if t == nil {
		return nil
	}
	return shardTracer{t: t, shard: int32(shard)}
}
