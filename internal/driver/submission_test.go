package driver

// Tests for the submission-policy API and the asynchronous queue-depth-N
// window: config validation, out-of-order completion reaping, doorbell
// batching, and trace-level determinism.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bandslim/internal/device"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// windowedGetAll pumps keys, every one written, through the async window
// with GetBatch: submit until the window fills, reap the oldest, keep going.
func windowedGetAll(t *testing.T, d *Driver, keys [][]byte) {
	t.Helper()
	miss := make([]bool, len(keys))
	if err := d.GetBatch(keys, make([][]byte, len(keys)), miss, nil); err != nil {
		t.Fatal(err)
	}
	for i, m := range miss {
		if m {
			t.Fatalf("key %q reported missing", keys[i])
		}
	}
}

// newWindowed builds an adaptive driver over a NAND-backed device with
// submission policy sub.
func newWindowed(t *testing.T, sub SubmissionConfig) (*Driver, *device.Device, *pcie.Link) {
	t.Helper()
	return newStackWith(t, Config{Method: MethodAdaptive, Thresholds: DefaultThresholds(), Submission: sub}, true)
}

func TestSubmissionConfigValidation(t *testing.T) {
	_, dev, link := newStack(t, MethodAdaptive, false)
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative_depth", Config{Submission: SubmissionConfig{QueueDepth: -1}}, "Submission.QueueDepth"},
		{"depth_exceeds_ring", Config{Submission: SubmissionConfig{QueueDepth: 64}}, "Submission.QueueDepth"},
		{"negative_doorbell", Config{Submission: SubmissionConfig{DoorbellBatch: -2}}, "Submission.DoorbellBatch"},
		{"negative_coalesce", Config{Submission: SubmissionConfig{QueueDepth: 4, CoalesceInterval: -1}}, "Submission.CoalesceInterval"},
		{"coalesce_without_window", Config{Submission: SubmissionConfig{QueueDepth: 1, CoalesceInterval: sim.Microsecond}}, "Submission.CoalesceInterval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(sim.NewClock(), link, nvme.NewHostMemory(), dev, tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("New(%+v) = %v, want *ConfigError", tc.cfg, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
	// Valid settings round-trip through the accessor.
	want := SubmissionConfig{QueueDepth: 8, DoorbellBatch: 4, CoalesceInterval: 2 * sim.Microsecond}
	if d, _, _ := newWindowed(t, want); d.Submission() != want {
		t.Fatalf("Submission() = %+v, want %+v", d.Submission(), want)
	}
}

func TestSubmissionZeroValueIsSync(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	if d.sub.burst() || d.sub.depth() != 1 {
		t.Fatalf("zero-value submission: burst=%v depth=%d, want sync passthrough",
			d.sub.burst(), d.sub.depth())
	}
	// PipelinedSubmission is depth-1 burst mode: bursts, but no window.
	d, _, _ = newWindowed(t, PipelinedSubmission())
	if !d.sub.burst() || d.sub.depth() != 1 {
		t.Fatalf("PipelinedSubmission: burst=%v depth=%d, want burst at depth 1",
			d.sub.burst(), d.sub.depth())
	}
}

// TestWindowedGetOutOfOrderCompletion fills the window with reads whose
// device latencies differ (so completions post out of simulated-time order)
// and checks every wait frame is matched back to its command by CID.
func TestWindowedGetOutOfOrderCompletion(t *testing.T) {
	d, _, _ := newWindowed(t, SubmissionConfig{
		QueueDepth:       8,
		DoorbellBatch:    4,
		CoalesceInterval: 2 * sim.Microsecond,
	})
	// Mixed sizes: over-page values take DMA round trips and multi-page NAND
	// reads; tiny ones complete quickly. Interleaved in one window, their
	// completions coalesce and reorder.
	sizes := []int{5000, 16, 9000, 64, 12000, 8, 7000, 128}
	keys := make([][]byte, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		keys[i] = []byte(fmt.Sprintf("oo%02d", i))
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := d.Put(keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	handles := make([]int, len(keys))
	for i := range keys {
		h, err := d.startGet(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		got, err := d.waitGetInto(h, nil)
		if err != nil {
			t.Fatalf("waitGetInto(%d): %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("key %d: got %d bytes, want %d — completion matched to wrong frame?",
				i, len(got), len(want[i]))
		}
	}
	// The window must be empty again: a fresh startGet succeeds at slot 0.
	h, err := d.startGet(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.waitGetInto(h, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedGetPerKeyOrdering: a windowed read observes the latest
// acknowledged write even when earlier reads of the same key are still in
// flight.
func TestWindowedGetPerKeyOrdering(t *testing.T) {
	d, _, _ := newWindowed(t, SubmissionConfig{QueueDepth: 4})
	key := []byte("ord")
	if err := d.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	h1, err := d.startGet(key)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := d.waitGetInto(h1, nil)
	if err != nil || string(v1) != "v1" {
		t.Fatalf("windowed read before overwrite: %q, %v", v1, err)
	}
	if err := d.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	h2, err := d.startGet(key)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.waitGetInto(h2, nil)
	if err != nil || string(v2) != "v2" {
		t.Fatalf("windowed read after overwrite: %q, %v", v2, err)
	}
}

func TestWindowedGetMiss(t *testing.T) {
	d, _, _ := newWindowed(t, SubmissionConfig{QueueDepth: 4})
	if err := d.Put([]byte("present"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	h, err := d.startGet([]byte("absent"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.waitGetInto(h, nil)
	if st, ok := nvme.StatusOf(err); !ok || st != nvme.StatusKeyNotFound {
		t.Fatalf("missing key through the window: %v, want key-not-found status", err)
	}
	// The miss released its frame; the window keeps working.
	h, err = d.startGet([]byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.waitGetInto(h, nil); err != nil || string(v) != "x" {
		t.Fatalf("window broken after miss: %q, %v", v, err)
	}
}

// TestWindowedDoorbellBatching: batching submissions behind one doorbell
// must cut doorbell MMIO relative to the one-ring-per-command sync path.
func TestWindowedDoorbellBatching(t *testing.T) {
	const nkeys = 16
	run := func(sub SubmissionConfig) int64 {
		d, _, link := newWindowed(t, sub)
		keys := make([][]byte, nkeys)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("db%02d", i))
			if err := d.Put(keys[i], bytes.Repeat([]byte{1}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		before := doorbells(link)
		if sub.QueueDepth >= 2 {
			windowedGetAll(t, d, keys)
		} else {
			for i := range keys {
				if _, err := d.Get(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return doorbells(link) - before
	}
	sync := run(SubmissionConfig{})
	if sync != 2*nkeys {
		t.Fatalf("sync GETs rang %d doorbells, want %d (one SQ + one CQ each)", sync, 2*nkeys)
	}
	windowed := run(SubmissionConfig{QueueDepth: 8, DoorbellBatch: 8})
	if windowed*2 > sync {
		t.Fatalf("windowed GETs rang %d doorbells, want < half of sync's %d", windowed, sync)
	}
}

// TestWindowedTraceDeterminism runs the same windowed workload twice and
// requires byte-identical EvSubmit/EvReap streams: same CIDs, same simulated
// timestamps, same order.
func TestWindowedTraceDeterminism(t *testing.T) {
	run := func() []trace.Event {
		d, _, _ := newWindowed(t, SubmissionConfig{
			QueueDepth:       6,
			DoorbellBatch:    3,
			CoalesceInterval: sim.Microsecond,
		})
		rec := trace.NewRecorder(4096)
		d.SetTracer(rec)
		keys := make([][]byte, 12)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("tr%02d", i))
			if err := d.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 100+400*i)); err != nil {
				t.Fatal(err)
			}
		}
		windowedGetAll(t, d, keys)
		var out []trace.Event
		for _, ev := range rec.Events() {
			if ev.Name == trace.EvSubmit || ev.Name == trace.EvReap {
				out = append(out, ev)
			}
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	reaps := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs:\nrun1: %+v\nrun2: %+v", i, first[i], second[i])
		}
		if first[i].Name == trace.EvReap {
			reaps++
			if first[i].End < first[i].Start {
				t.Fatalf("reap %d spans backwards: %+v", i, first[i])
			}
		}
	}
	if reaps != 12 {
		t.Fatalf("saw %d reap events, want 12 (one per windowed GET)", reaps)
	}
}

// TestDrainWindowAfterError: abandoning a partially reaped window leaves
// the driver consistent for the next operation.
func TestDrainWindowAfterError(t *testing.T) {
	d, _, _ := newWindowed(t, SubmissionConfig{QueueDepth: 4})
	for i := 0; i < 6; i++ {
		if err := d.Put([]byte(fmt.Sprintf("dr%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := d.startGet([]byte(fmt.Sprintf("dr%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a caller bailing out mid-batch.
	d.drainWindow()
	if d.inflight != 0 {
		t.Fatalf("InFlight = %d after drainWindow, want 0", d.inflight)
	}
	// Scalar and windowed paths both still work.
	if v, err := d.Get([]byte("dr05")); err != nil || v[0] != 5 {
		t.Fatalf("Get after drain: %v", err)
	}
	h, err := d.startGet([]byte("dr00"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.waitGetInto(h, nil); err != nil || v[0] != 0 {
		t.Fatalf("windowed Get after drain: %v", err)
	}
}

// TestWindowedReadAboveStaging: a windowed read of a value larger than its
// slot's staging run fails with the status a synchronous Get reports, and
// the in-flight read in the next slot still returns its own bytes.
func TestWindowedReadAboveStaging(t *testing.T) {
	d, _, _ := newWindowed(t, SubmissionConfig{QueueDepth: 4})
	big, near := []byte("big"), bytes.Repeat([]byte{0xA5}, 100)
	for _, kv := range []struct{ k, v []byte }{{big, make([]byte, MaxValueSize+1)}, {[]byte("near"), near}, {[]byte("warm"), []byte("w")}} {
		if err := d.Put(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.Get(big)
	syncStatus, ok := nvme.StatusOf(err)
	if !ok {
		t.Fatalf("synchronous Get of an oversized value: %v, want a status error", err)
	}
	// Slot 1's staging run directly follows slot 0's: a warm-up read takes
	// slot 0 and the neighbour slot 1, then the oversized read reuses slot 0.
	warm, err := d.startGet([]byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	hNear, err := d.startGet([]byte("near"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.waitGetInto(warm, nil); err != nil {
		t.Fatal(err)
	}
	hBig, err := d.startGet(big)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.waitGetInto(hBig, nil)
	if st, ok := nvme.StatusOf(err); !ok || st != syncStatus {
		t.Fatalf("windowed read of an oversized value: %v, want status %v", err, syncStatus)
	}
	if v, err := d.waitGetInto(hNear, nil); err != nil || !bytes.Equal(v, near) {
		t.Fatalf("neighbouring windowed read: %v, %v; want its own %d bytes", v, err, len(near))
	}
}

// TestBurstReportsFirstFailureInFetchOrder: completions reap in readiness
// order, but a burst's frame keeps the failing status of its earliest
// fetched command, and the latest reaped completion otherwise.
func TestBurstReportsFirstFailureInFetchOrder(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	d.frames[0] = frame{used: true, kind: kindBurst, cid: 10, n: 4, left: 4}
	reaped := []nvme.Completion{
		{CommandID: 13, Status: nvme.StatusCapacity, Ready: 1},
		{CommandID: 10, Status: nvme.StatusSuccess, Ready: 2},
		{CommandID: 11, Status: nvme.StatusTransient, Ready: 3},
		{CommandID: 12, Status: nvme.StatusInternal, Ready: 4},
	}
	for _, c := range reaped {
		if err := d.deliver(c); err != nil {
			t.Fatal(err)
		}
	}
	if f := d.frames[0]; f.left != 0 || f.comp.Status != nvme.StatusTransient || f.comp.Ready != 4 {
		t.Fatalf("frame after the burst: left %d, status %v, ready %v; want 0, %v, 4",
			f.left, f.comp.Status, f.comp.Ready, nvme.StatusTransient)
	}
}
