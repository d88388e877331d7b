// Package shard holds the op engine every shard of a bandslim.DB runs, plus
// the two pieces sharding adds to it: the key Partitioner and the k-way
// MergeIterator.
//
// The paper's testbed is deliberately serialized: one passthrough SQ/CQ pair
// and one synchronous round trip per command (§4.2 notes the improvement
// that serialization leaves on the table). A Stack is one such serialized
// host+device pair — its own sim.Clock, pcie.Link, nvme.HostMemory,
// device.Device, and driver.Driver — and the single implementation of every
// operation the public API offers over it. bandslim.DB hash-partitions keys
// across N >= 1 Stacks, each behind its own mutex, like parallel NVMe queue
// pairs feeding independent controllers.
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
	// Retry overrides the driver's retry policy (zero value = defaults).
	Retry driver.RetryPolicy
}

// Stack is one full simulated host+device pair and the op engine over it.
// It is not safe for concurrent use: the owner serializes every method (and
// any direct component access) behind one lock.
type Stack struct {
	Clock *sim.Clock
	Link  *pcie.Link
	Dev   *device.Device
	Drv   *driver.Driver

	// AfterOp, when non-nil, runs after every engine operation (per key on
	// the batch-read path) — the sampling point for simulated-time metrics.
	// Install it before the first operation.
	AfterOp func()

	// batch backs PutBatch, created on first use.
	batch *driver.Batcher
	// winH/winI are the windowed batch-read FIFO scratch (StartGet handles
	// and their key indices), reused across batches.
	winH, winI []int
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
		Method:          o.Method,
		Thresholds:      o.Thresholds,
		Submission:      o.Submission,
		Retry:           o.Retry,
		NegativeEntries: o.Device.Cache.NegativeEntries,
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

// DefaultBatchOps is the record cap of the batcher behind PutBatch.
const DefaultBatchOps = 128

// opDone fires the after-op hook.
func (s *Stack) opDone() {
	if s.AfterOp != nil {
		s.AfterOp()
	}
}

// Put stores a key-value pair.
func (s *Stack) Put(key, value []byte) error {
	err := s.Drv.Put(key, value)
	s.opDone()
	return err
}

// Get fetches the value for key. The returned slice is a view into the
// driver's read buffer, valid until the stack's next operation.
func (s *Stack) Get(key []byte) ([]byte, error) {
	v, err := s.Drv.Get(key)
	s.opDone()
	return v, err
}

// GetInto fetches the value for key, copying it into dst (grown as needed).
// The returned slice is caller-owned.
func (s *Stack) GetInto(key, dst []byte) ([]byte, error) {
	v, err := s.Drv.Get(key)
	if err == nil {
		v = append(dst[:0], v...)
	}
	s.opDone()
	return v, err
}

// Delete removes a key.
func (s *Stack) Delete(key []byte) error {
	err := s.Drv.Delete(key)
	s.opDone()
	return err
}

// Flush forces buffered values and index entries to NAND.
func (s *Stack) Flush() error {
	err := s.Drv.Flush()
	s.opDone()
	return err
}

// Seek positions the device-side iterator at the first key >= start.
func (s *Stack) Seek(start []byte) error {
	err := s.Drv.Seek(start)
	s.opDone()
	return err
}

// Next copies the device iterator's current pair into key and value (grown
// as needed), returns the filled slices, and advances the iterator;
// driver.ErrIterEnd signals exhaustion.
func (s *Stack) Next(key, value []byte) ([]byte, []byte, error) {
	k, v, err := s.Drv.Next()
	if err == nil {
		k, v = append(key[:0], k...), append(value[:0], v...)
	}
	s.opDone()
	return k, v, err
}

// Recover mounts the device after a power cut, replaying the battery-backed
// journal.
func (s *Stack) Recover() error {
	err := s.Drv.Recover()
	s.opDone()
	return err
}

// CompactVLog garbage-collects the oldest pages value-log pages and reports
// how many values were relocated.
func (s *Stack) CompactVLog(pages int) (int, error) {
	n, err := s.Drv.CompactVLog(pages)
	s.opDone()
	return n, err
}

// at maps batch position n to its key index: lane[n], or n itself when lane
// is nil (the whole key set).
func at(lane []int, n int) int {
	if lane == nil {
		return n
	}
	return lane[n]
}

// span reports how many keys a batch over lane covers.
func span(keys [][]byte, lane []int) int {
	if lane == nil {
		return len(keys)
	}
	return len(lane)
}

// PutBatch writes the lane-indexed subset of keys/values (nil lane = all)
// through the host-side batcher as bulk OpKVBatchWrite commands and flushes,
// so every accepted record is durable on return.
func (s *Stack) PutBatch(keys, values [][]byte, lane []int) error {
	err := s.putBatch(keys, values, lane)
	s.opDone()
	return err
}

func (s *Stack) putBatch(keys, values [][]byte, lane []int) error {
	if s.batch == nil {
		b, err := s.Drv.NewBatcher(DefaultBatchOps)
		if err != nil {
			return err
		}
		s.batch = b
	}
	for n, total := 0, span(keys, lane); n < total; n++ {
		i := at(lane, n)
		if err := s.batch.Put(keys[i], values[i]); err != nil {
			return err
		}
	}
	return s.batch.Flush()
}

// resolved books key i's outcome on the batch-read path. A hit has already
// filled vals[i]; a not-found under a non-nil miss empties the lane and sets
// miss[i]; any other error — or a not-found when miss is nil — is returned
// and ends the batch.
func (s *Stack) resolved(i int, vals [][]byte, miss []bool, err error) error {
	if err != nil {
		if st, ok := nvme.StatusOf(err); miss == nil || !ok || st != nvme.StatusKeyNotFound {
			return err
		}
		vals[i] = vals[i][:0]
	}
	if miss != nil {
		miss[i] = err != nil
	}
	s.opDone()
	return nil
}

// GetBatch resolves the lane-indexed subset of keys (nil lane = all), copying
// each value into the matching caller-owned lane (vals[i], grown as needed).
// A nil miss is strict: the first absent key fails the batch, leaving lanes
// past it untouched. A non-nil miss (len(keys) entries) is sparse: an absent
// key sets miss[i] and empties vals[i] instead. Reads are serial below a
// window depth of 2; above it they ride the driver's asynchronous submission
// window — up to WindowDepth in flight, completions reaped out of order and
// claimed in submission order — landing results exactly where the serial
// path places them. Written closure-free: the steady-state batch-read path
// must not allocate.
func (s *Stack) GetBatch(keys, vals [][]byte, miss []bool, lane []int) error {
	err := s.getBatch(keys, vals, miss, lane)
	if err != nil {
		// Leave the rings empty for the next operation.
		s.Drv.DrainWindow()
		s.opDone()
	}
	return err
}

func (s *Stack) getBatch(keys, vals [][]byte, miss []bool, lane []int) error {
	drv := s.Drv
	depth := drv.WindowDepth()
	total := span(keys, lane)
	if depth < 2 {
		for n := 0; n < total; n++ {
			i := at(lane, n)
			v, err := drv.Get(keys[i])
			if err == nil {
				vals[i] = append(vals[i][:0], v...)
			}
			if err := s.resolved(i, vals, miss, err); err != nil {
				return err
			}
		}
		return nil
	}
	s.winH, s.winI = s.winH[:0], s.winI[:0]
	head, next := 0, 0
	for {
		// Reap the oldest in-flight read while the window is full, or once
		// every key has been submitted.
		for head < len(s.winH) && (len(s.winH)-head >= depth || next == total) {
			h, i := s.winH[head], s.winI[head]
			head++
			v, err := drv.WaitGetInto(h, vals[i])
			if err == nil {
				vals[i] = v
			}
			if err := s.resolved(i, vals, miss, err); err != nil {
				return err
			}
		}
		if next == total {
			return nil
		}
		i := at(lane, next)
		next++
		// A known-missing key resolves host-side: no command is built and no
		// simulated time passes, exactly as Driver.Get short-circuits the
		// serial path.
		if drv.NegativeKnown(keys[i]) {
			if err := s.resolved(i, vals, miss, driver.ErrNegativeHit); err != nil {
				return err
			}
			continue
		}
		h, err := drv.StartGet(keys[i])
		if err != nil {
			return err
		}
		s.winH = append(s.winH, h)
		s.winI = append(s.winI, i)
	}
}
