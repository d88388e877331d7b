package driver

import (
	"fmt"

	"bandslim/internal/device"
	"bandslim/internal/nvme"
)

// Batcher implements the host-side batching approach of Dotori and KV-CSD
// (§2): PUTs accumulate in host memory and ship as one bulk OpKVBatchWrite
// when the batch fills. It exists as the comparator BandSlim argues against:
// batching amortizes per-command overhead but (i) everything buffered on the
// host is lost on power failure — the peak of that window is tracked in
// BatcherStats — and (ii) the device pays an unpacking pass per record.
// PutBatch flushes before it returns, so its records are durable; the
// ablation-batch experiment drives one directly to measure the window.
type Batcher struct {
	d      *Driver
	maxOps int
	keys   [][]byte
	// keyArena backs every buffered key in one contiguous allocation; keys
	// holds sub-slices into it. This removes the per-Put key copy allocation
	// (one arena append instead of a fresh []byte per record).
	keyArena []byte
	payload  []byte
	stats    BatcherStats
}

// BatcherStats tallies batching behaviour.
type BatcherStats struct {
	// PeakAtRiskOps/Bytes record the largest volatile host buffer seen —
	// the data-loss window on power failure.
	PeakAtRiskOps   int
	PeakAtRiskBytes int
}

// NewBatcher returns a batcher flushing after maxOps records (or when the
// payload would exceed the driver's staging limit).
func (d *Driver) NewBatcher(maxOps int) (*Batcher, error) {
	if maxOps < 1 {
		return nil, fmt.Errorf("driver: batch size must be >= 1")
	}
	// Preallocate from the size hints so steady-state Put never grows: the
	// payload is bounded by batchCapacity and the arena by maxOps full-size keys.
	return &Batcher{
		d:        d,
		maxOps:   maxOps,
		keys:     make([][]byte, 0, maxOps),
		keyArena: make([]byte, 0, maxOps*nvme.MaxKeySize),
		payload:  make([]byte, 0, batchCapacity),
	}, nil
}

// batchCapacity bounds one bulk write's payload.
const batchCapacity = MaxValueSize - 4096

// Batchable reports whether Put accepts the record: a key of 1 to
// nvme.MaxKeySize bytes whose framed record fits one batch payload.
func Batchable(key, value []byte) bool {
	return len(key) > 0 && len(key) <= nvme.MaxKeySize && device.BatchRecordOverhead+len(key)+len(value) <= batchCapacity
}

// Stats exposes the batching tallies.
func (b *Batcher) Stats() *BatcherStats { return &b.stats }

// Put buffers one record, flushing the batch if full. The record is NOT
// durable until the flush that carries it completes.
func (b *Batcher) Put(key, value []byte) error {
	if len(key) == 0 || len(key) > nvme.MaxKeySize {
		return fmt.Errorf("driver: batch key length %d out of range", len(key))
	}
	need := device.BatchRecordOverhead + len(key) + len(value)
	if need > batchCapacity {
		return fmt.Errorf("driver: record of %d bytes exceeds batch capacity", need)
	}
	if len(b.payload)+need > batchCapacity {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	// The arena never reallocates in steady state (capacity covers
	// maxOps*MaxKeySize), so the sub-slices in b.keys stay valid.
	start := len(b.keyArena)
	b.keyArena = append(b.keyArena, key...)
	b.keys = append(b.keys, b.keyArena[start:len(b.keyArena):len(b.keyArena)])
	b.payload = device.EncodeBatchRecord(b.payload, key, value)
	if len(b.keys) > b.stats.PeakAtRiskOps {
		b.stats.PeakAtRiskOps = len(b.keys)
	}
	if len(b.payload) > b.stats.PeakAtRiskBytes {
		b.stats.PeakAtRiskBytes = len(b.payload)
	}
	if len(b.keys) >= b.maxOps {
		return b.Flush()
	}
	return nil
}

// Flush ships the buffered batch as one bulk write. A no-op when empty.
//
// A failed flush DISCARDS the buffered records. They were never durable (the
// Put contract), the error tells the caller the whole batch failed, and
// retaining them would resurrect the failed records on the next Flush —
// after the caller may have acknowledged newer writes to the same keys,
// silently reordering history.
func (b *Batcher) Flush() error {
	if len(b.keys) == 0 {
		return nil
	}
	prp, fresh, err := b.d.stagePayload(b.payload)
	if err != nil {
		b.discard()
		return err
	}
	if fresh {
		defer prp.Free(b.d.mem)
	}
	cmd := b.d.command(nvme.OpKVBatchWrite)
	cmd.SetTransferMode(nvme.ModePRP)
	cmd.SetValueSize(uint32(len(b.payload)))
	pointAt(&cmd, prp, nvme.ModePRP)
	comp, err := b.d.call(cmd)
	if err != nil {
		b.discard()
		return err
	}
	if int(comp.Result) != len(b.keys) {
		n, want := comp.Result, len(b.keys)
		b.discard()
		return fmt.Errorf("driver: batch wrote %d of %d records", n, want)
	}
	b.d.stats.Puts.Add(int64(len(b.keys)))
	b.discard()
	return nil
}

// discard drops the buffered records, successful or not.
func (b *Batcher) discard() {
	b.keys = b.keys[:0]
	b.keyArena = b.keyArena[:0]
	b.payload = b.payload[:0]
}

// DefaultBatchOps is the record cap of the batcher behind PutBatch.
const DefaultBatchOps = 128

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
// so every accepted record is durable on return. A refused record discards
// the records buffered before it, which were never acknowledged.
func (d *Driver) PutBatch(keys, values [][]byte, lane []int) error {
	if d.batch == nil {
		b, err := d.NewBatcher(DefaultBatchOps)
		if err != nil {
			return err
		}
		d.batch = b
	}
	for n, total := 0, span(keys, lane); n < total; n++ {
		i := at(lane, n)
		if err := d.batch.Put(keys[i], values[i]); err != nil {
			d.batch.discard()
			return err
		}
	}
	return d.batch.Flush()
}

// resolved books key i's outcome on the batch-read path. A hit has already
// filled vals[i]; a not-found empties the lane and sets miss[i]; any other
// error is returned and ends the batch.
func resolved(i int, vals [][]byte, miss []bool, err error) error {
	if err != nil {
		if st, ok := nvme.StatusOf(err); !ok || st != nvme.StatusKeyNotFound {
			return err
		}
		vals[i] = vals[i][:0]
	}
	miss[i] = err != nil
	return nil
}

// GetBatch resolves the lane-indexed subset of keys (nil lane = all), copying
// each value into the matching caller-owned lane (vals[i], grown as needed).
// An absent key sets miss[i] (len(keys) entries) and empties vals[i]; any
// other failure ends the batch, leaving lanes past it untouched. Reads are
// serial below a window depth of 2; above it they ride the asynchronous
// submission window — up to QueueDepth in flight, completions reaped out of
// order and claimed in submission order — landing results exactly where the
// serial path places them. Written closure-free: the steady-state batch-read
// path must not allocate.
func (d *Driver) GetBatch(keys, vals [][]byte, miss []bool, lane []int) error {
	err := d.getBatch(keys, vals, miss, lane)
	if err != nil {
		// Leave the rings empty for the next operation.
		d.drainWindow()
	}
	return err
}

func (d *Driver) getBatch(keys, vals [][]byte, miss []bool, lane []int) error {
	depth := d.sub.depth()
	total := span(keys, lane)
	if depth < 2 {
		for n := 0; n < total; n++ {
			i := at(lane, n)
			v, err := d.Get(keys[i])
			if err == nil {
				vals[i] = append(vals[i][:0], v...)
			}
			if err := resolved(i, vals, miss, err); err != nil {
				return err
			}
		}
		return nil
	}
	d.winH, d.winI = d.winH[:0], d.winI[:0]
	head, next := 0, 0
	for {
		// Reap the oldest in-flight read while the window is full, or once
		// every key has been submitted.
		for head < len(d.winH) && (len(d.winH)-head >= depth || next == total) {
			h, i := d.winH[head], d.winI[head]
			head++
			v, err := d.waitGetInto(h, vals[i])
			if err == nil {
				vals[i] = v
			}
			if err := resolved(i, vals, miss, err); err != nil {
				return err
			}
		}
		if next == total {
			return nil
		}
		i := at(lane, next)
		next++
		h, err := d.startGet(keys[i])
		if err != nil {
			return err
		}
		d.winH = append(d.winH, h)
		d.winI = append(d.winI, i)
	}
}
