package bandslim

import (
	"bandslim/internal/driver"
	"bandslim/internal/fault"
	"bandslim/internal/nvme"
)

// Deterministic fault injection and crash recovery.
//
// A FaultPlan is a seed plus a list of rules; each rule arms one injection
// site (a NAND operation, a DMA direction, or command dispatch) with a
// trigger (the Nth occurrence, every Nth, probability p, or an absolute
// simulated time) and an effect (a media error, a transient transfer error,
// or a power cut). Everything is derived from the plan seed — two runs with
// the same config, workload, and plan inject the same faults at the same
// simulated times and recover to the same state.
//
// Effects and what survives them:
//
//   - Media errors retire the failing NAND block; the FTL redirects the
//     write and the operation usually still succeeds (bounded retries).
//   - Transient errors surface as retryable NVMe completions; the driver
//     re-submits up to four times, after a backoff that starts at 10 µs and
//     doubles.
//   - Power cuts freeze the device: every volatile structure (MemTable,
//     open command, iterator, SQ/CQ rings) is lost, while battery-backed
//     state (the vLog page buffer and the index journal) survives, matching
//     the paper's platform (§2.2). DB.Recover mounts the device again and
//     replays the journal, restoring every acknowledged write.
//
// Plans come from ParseFaultPlan's text format:
//
//	seed 42
//	# one media error on the 3rd NAND program
//	nand.program nth=3 media
//	# 1% transient transfer errors on inbound DMA between 1ms and 5ms
//	dma.in p=0.01 from=1ms to=5ms transient
//	# cut power at 12ms
//	power at=12ms

// FaultPlan is a deterministic fault schedule: a seed plus rules. See
// ParseFaultPlan for the text format.
type FaultPlan = fault.Plan

// ParseFaultPlan parses the text plan format: one directive per line,
// '#' comments. `seed N` sets the plan seed; every other line is
// `<site> <trigger...> <effect>` with sites nand.program, nand.read,
// nand.erase, dma.in, dma.out, exec; triggers nth=N, every=N, p=F, at=DUR
// (plus optional window from=DUR to=DUR); effects media, transient,
// powercut. `power at=DUR` is shorthand for `exec at=DUR powercut`.
// Durations take ns/us/ms/s suffixes.
func ParseFaultPlan(text string) (*FaultPlan, error) {
	return fault.ParsePlan(text)
}

// IsPowerLoss reports whether err is a power-loss completion — the device is
// down and DB.Recover is required.
func IsPowerLoss(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusPowerLoss
}

// IsTransient reports whether err is a retryable transfer error that
// outlived the driver's retries.
func IsTransient(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusTransient
}

// IsMedia reports whether err is an unrecovered NAND media error.
func IsMedia(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusMedia
}

// IsNoSpace reports whether err is a capacity-exceeded completion: the value
// log, the index region or the flash itself is full. Everything acknowledged
// before the failed operation stays readable.
func IsNoSpace(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusCapacity
}

// IsNotFound reports whether err is a key-not-found completion.
func IsNotFound(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusKeyNotFound
}

// Recover remounts every shard's device after a power cut: fresh queues, the
// LSM index rolled back to its last durable flush, and the battery-backed
// index journal replayed — restoring every acknowledged write. Unacknowledged
// operations that were in flight when power was lost are atomically present
// or absent. Mounting a shard that never lost power is a harmless no-op, so
// Recover is safe whenever any operation reports IsPowerLoss. The first error
// wins; a plan can cut power again during replay, and a subsequent Recover
// resumes where replay stopped.
func (db *DB) Recover() error { return db.each((*driver.Driver).Recover) }
