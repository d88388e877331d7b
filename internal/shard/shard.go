// Package shard assembles the host+device stack every shard of a bandslim.DB
// runs, plus the two pieces sharding adds to it: the key Partitioner and the
// k-way MergeIterator.
//
// The paper's testbed is deliberately serialized: one passthrough SQ/CQ pair
// and one synchronous round trip per command (§4.2 notes the improvement
// that serialization leaves on the table). A Stack is one such serialized
// host+device pair — its own sim.Clock, pcie.Link, nvme.HostMemory,
// device.Device, and driver.Driver — and nothing more: every operation is a
// driver.Driver method, the host KV driver being the one op engine (§3.1).
// bandslim.DB hash-partitions keys across N >= 1 Stacks, each behind its own
// mutex, like parallel NVMe queue pairs feeding independent controllers.
//
// A Stack has no goroutine and no lock of its own: operations run on the
// caller's goroutine, and whoever owns the Stack serializes access to it
// (one mutex per shard). Given the key partition, every shard therefore sees
// its commands in lock-acquisition order, and parallelism lives where the
// model needs it — on the per-shard simulated clocks — not in host threads.
package shard

import (
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/fault"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Options assemble one stack. The caller normalizes defaults (device
// geometry, thresholds) before construction so every stack built from the
// same Options is identical.
type Options struct {
	Device     device.Config
	Method     driver.Method
	Thresholds driver.Thresholds
	// Submission is the driver's submission policy: burst submission,
	// in-flight window depth, doorbell batching, completion coalescing. The
	// zero value is the paper's synchronous passthrough. It is validated
	// against the device ring at construction.
	Submission driver.SubmissionConfig
	// Tracer, when non-nil, receives every command-level event the stack
	// emits, stamped with ShardID. Nil keeps the zero-cost disabled path.
	Tracer  trace.Tracer
	ShardID int
	// Faults, when non-nil, arms a deterministic fault injector through the
	// stack. Each shard derives its own per-rule RNG streams from the plan
	// seed salted with ShardID, so a sharded run is reproducible yet shards
	// fail independently. Nil keeps the zero-cost disabled path.
	Faults *fault.Plan
}

// Stack is one full simulated host+device pair. It is not safe for
// concurrent use: the owner serializes every access behind one lock.
type Stack struct {
	Clock *sim.Clock
	Link  *pcie.Link
	Dev   *device.Device
	Drv   *driver.Driver
}

// NewStack builds the full stack from normalized options.
func NewStack(o Options) (*Stack, error) {
	clock := sim.NewClock()
	link := pcie.NewLink(pcie.DefaultCostModel())
	mem := nvme.NewHostMemory()
	dev, err := device.New(o.Device, clock, link, mem)
	if err != nil {
		return nil, err
	}
	drv, err := driver.New(clock, link, mem, dev, driver.Config{
		Method:     o.Method,
		Thresholds: o.Thresholds,
		Submission: o.Submission,
	})
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return nil, err
		}
		dev.SetInjector(fault.NewInjector(o.Faults, uint64(o.ShardID)))
	}
	if tr := trace.WithShard(o.Tracer, o.ShardID); tr != nil {
		link.Attach(clock, tr)
		dev.SetTracer(tr)
		drv.SetTracer(tr)
	}
	return &Stack{Clock: clock, Link: link, Dev: dev, Drv: drv}, nil
}
