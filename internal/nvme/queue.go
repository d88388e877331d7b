package nvme

import (
	"errors"
	"fmt"

	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Status is a completion status code.
type Status uint16

// Completion status codes used by the simulated controller.
const (
	StatusSuccess      Status = 0x0
	StatusInvalidField Status = 0x2
	StatusTransient    Status = 0x4  // data transfer error; retryable
	StatusPowerLoss    Status = 0x5  // commands aborted due to power loss
	StatusKeyNotFound  Status = 0x87 // KV command set: key does not exist
	StatusCapacity     Status = 0x81 // device capacity exceeded
	StatusInternal     Status = 0x6
	StatusMedia        Status = 0x281 // unrecovered media error (NAND)
	StatusIterEnd      Status = 0x93  // device-side iterator exhausted
	StatusIterInvalid  Status = 0x94  // device-side iterator outlived the tables it walks
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "Success"
	case StatusInvalidField:
		return "InvalidField"
	case StatusTransient:
		return "TransferError"
	case StatusPowerLoss:
		return "PowerLoss"
	case StatusKeyNotFound:
		return "KeyNotFound"
	case StatusCapacity:
		return "CapacityExceeded"
	case StatusInternal:
		return "InternalError"
	case StatusMedia:
		return "MediaError"
	case StatusIterEnd:
		return "IteratorEnd"
	case StatusIterInvalid:
		return "IteratorInvalidated"
	default:
		return fmt.Sprintf("Status(0x%x)", uint16(s))
	}
}

// Retryable reports whether resubmitting the command may succeed: true only
// for transient transfer errors. Media errors need the FTL's redirection
// (already attempted device-side), and power loss needs a mount.
func (s Status) Retryable() bool { return s == StatusTransient }

// StatusError is the error a non-success completion converts to. It wraps
// the status so callers can classify failures with StatusOf / errors.As
// instead of string matching.
type StatusError struct {
	Status Status
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("nvme: command failed: %s", e.Status)
}

// StatusOf extracts the NVMe status from an error chain, if any. The
// unwrapped case is a direct type assertion so steady-state miss
// classification (the negative-cache hit path) allocates nothing;
// errors.As, which boxes its target, only runs for wrapped chains.
func StatusOf(err error) (Status, bool) {
	if se, ok := err.(*StatusError); ok {
		return se.Status, true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status, true
	}
	return StatusSuccess, false
}

// Err converts a status into a Go error (nil for success).
func (s Status) Err() error {
	if s == StatusSuccess {
		return nil
	}
	return &StatusError{Status: s}
}

// Completion is one completion queue entry (16 bytes on the wire).
type Completion struct {
	CommandID uint16
	Status    Status
	SQHead    uint16
	// Result carries a command-specific 32-bit result (e.g. the value size
	// of a read, so short reads are visible to the driver).
	Result uint32
	// Ready is simulation bookkeeping, not wire content: the simulated time
	// the controller posted this entry. The device's one sweep stamps it with
	// the command's device-work end, never before the command's start, and
	// quantizes it onto the coalescing grid when one is set, so the host can
	// advance its clock to each completion's arrival out of order and the
	// trace layer can expose the post time as a latency-attribution boundary.
	Ready sim.Time
}

// Queue-ring errors.
var (
	ErrQueueFull  = errors.New("nvme: submission queue full")
	ErrQueueEmpty = errors.New("nvme: queue empty")
)

// SubmissionQueue is a fixed-size command ring with a tail doorbell written
// by the host and a head advanced by the controller fetching entries.
type SubmissionQueue struct {
	entries []Command
	head    uint16 // consumer (controller)
	tail    uint16 // producer (host)
	dbTail  uint16 // last doorbell value the controller observed
	clock   *sim.Clock
	tr      trace.Tracer
}

// NewSubmissionQueue returns a ring with the given number of slots.
// Size must be at least 2 (one slot is sacrificed to distinguish full/empty).
func NewSubmissionQueue(size int) *SubmissionQueue {
	if size < 2 {
		panic("nvme: submission queue size must be >= 2")
	}
	return &SubmissionQueue{entries: make([]Command, size)}
}

// Size reports the ring capacity in slots.
func (q *SubmissionQueue) Size() int { return len(q.entries) }

func (q *SubmissionQueue) next(i uint16) uint16 {
	return uint16((int(i) + 1) % len(q.entries))
}

// Push places a command at the tail. The host must still ring the doorbell
// for the controller to see it.
func (q *SubmissionQueue) Push(c Command) error {
	if q.next(q.tail) == q.head {
		return ErrQueueFull
	}
	q.entries[q.tail] = c
	q.tail = q.next(q.tail)
	if q.tr != nil {
		now := q.clock.Now()
		q.tr.Emit(trace.Event{Cat: trace.CatNVMe, Name: trace.EvSQPush, Op: byte(c.Opcode()), Start: now, End: now, Arg: int64(c.CommandID())})
	}
	return nil
}

// RingDoorbell publishes the current tail to the controller, as the MMIO
// doorbell write does in hardware. It returns the doorbell value written.
func (q *SubmissionQueue) RingDoorbell() uint16 {
	q.dbTail = q.tail
	return q.dbTail
}

// Pending reports how many published commands await fetching.
func (q *SubmissionQueue) Pending() int {
	d := int(q.dbTail) - int(q.head)
	if d < 0 {
		d += len(q.entries)
	}
	return d
}

// Fetch removes and returns the command at the head. It fails with
// ErrQueueEmpty if no published commands remain (entries pushed but not yet
// doorbell-published are invisible, as in hardware).
func (q *SubmissionQueue) Fetch() (Command, error) {
	if q.head == q.dbTail {
		return Command{}, ErrQueueEmpty
	}
	c := q.entries[q.head]
	q.head = q.next(q.head)
	if q.tr != nil {
		now := q.clock.Now()
		q.tr.Emit(trace.Event{Cat: trace.CatNVMe, Name: trace.EvSQFetch, Op: byte(c.Opcode()), Start: now, End: now, Arg: int64(c.CommandID())})
	}
	return c, nil
}

// Head reports the controller's head index (reported back in completions).
func (q *SubmissionQueue) Head() uint16 { return q.head }

// CompletionQueue is a fixed-size completion ring with a head doorbell
// written by the host after reaping entries.
type CompletionQueue struct {
	entries []Completion
	head    uint16 // consumer (host)
	tail    uint16 // producer (controller)
	clock   *sim.Clock
	tr      trace.Tracer
}

// NewCompletionQueue returns a ring with the given number of slots.
func NewCompletionQueue(size int) *CompletionQueue {
	if size < 2 {
		panic("nvme: completion queue size must be >= 2")
	}
	return &CompletionQueue{entries: make([]Completion, size)}
}

func (q *CompletionQueue) next(i uint16) uint16 {
	return uint16((int(i) + 1) % len(q.entries))
}

// Post places a completion at the tail. The trace event is stamped with the
// completion's Ready time when the controller set one — the instant the
// entry became visible to the host, which span reconstruction uses as the
// coalescing-delay boundary — falling back to the host clock otherwise.
func (q *CompletionQueue) Post(c Completion) error {
	if q.next(q.tail) == q.head {
		return ErrQueueFull
	}
	q.entries[q.tail] = c
	q.tail = q.next(q.tail)
	if q.tr != nil {
		at := c.Ready
		if at == 0 {
			at = q.clock.Now()
		}
		q.tr.Emit(trace.Event{Cat: trace.CatNVMe, Name: trace.EvCQPost, Start: at, End: at, Arg: int64(c.CommandID)})
	}
	return nil
}

// Reap removes and returns the completion at the head. The host must still
// ring the head doorbell to release the slot to the controller; in this
// model Reap releases it and RingDoorbell only accounts for the MMIO write.
func (q *CompletionQueue) Reap() (Completion, error) {
	if q.head == q.tail {
		return Completion{}, ErrQueueEmpty
	}
	c := q.entries[q.head]
	q.head = q.next(q.head)
	if q.tr != nil {
		now := q.clock.Now()
		q.tr.Emit(trace.Event{Cat: trace.CatNVMe, Name: trace.EvCQReap, Start: now, End: now, Arg: int64(c.CommandID)})
	}
	return c, nil
}

// Pending reports how many completions await reaping.
func (q *CompletionQueue) Pending() int {
	d := int(q.tail) - int(q.head)
	if d < 0 {
		d += len(q.entries)
	}
	return d
}

// RingDoorbell publishes the host's head index (the MMIO write the paper's
// MMIO ledger counts). It returns the doorbell value.
func (q *CompletionQueue) RingDoorbell() uint16 { return q.head }

// QueuePair bundles one SQ and its CQ, as the driver allocates them.
type QueuePair struct {
	SQ *SubmissionQueue
	CQ *CompletionQueue
}

// NewQueuePair returns an SQ/CQ pair of the given depth.
func NewQueuePair(depth int) *QueuePair {
	return &QueuePair{
		SQ: NewSubmissionQueue(depth),
		CQ: NewCompletionQueue(depth),
	}
}

// Attach enables ring-transition tracing on both queues, stamping events
// with the clock's simulated time. A nil tracer turns tracing back off.
func (qp *QueuePair) Attach(clock *sim.Clock, tr trace.Tracer) {
	qp.SQ.clock, qp.SQ.tr = clock, tr
	qp.CQ.clock, qp.CQ.tr = clock, tr
}
