// Submission policy, the one dispatch every command rides, and the
// asynchronous queue-depth-N window built on it.
//
// The paper's testbed submits one command per synchronous round trip
// (§4.2 calls out what that serialization costs). SubmissionConfig folds
// every knob governing how commands reach the device — burst submission of
// multi-command PUTs, the in-flight window depth, doorbell batching, and
// completion coalescing — into one value whose zero state reproduces the
// paper's passthrough byte-for-byte.
//
// A dispatch owns a wait frame for as long as its commands are in flight; a
// synchronous call or a burst opens one and completes it before returning.
// With QueueDepth >= 2, GetBatch keeps a window of reads in flight through
// startGet/waitGetInto: up to QueueDepth reads ride the SQ/CQ pair at once,
// each in its own frame with its own staging slot; completions reap out of
// order, matched back by command ID, so channel/way parallelism in the
// simulated NAND array expresses itself host-side.
package driver

import (
	"fmt"

	"bandslim/internal/nvme"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// SubmissionConfig is the driver's complete submission policy. The zero
// value is the paper's synchronous passthrough: one command in flight, one
// doorbell per command, no coalescing — timings byte-identical to a stack
// that never heard of this type.
type SubmissionConfig struct {
	// QueueDepth bounds the commands in flight on the SQ/CQ pair. 0 and 1
	// both mean the synchronous passthrough; >= 2 enables the asynchronous
	// window behind GetBatch. It must leave room in the device's ring (at
	// most device QueueDepth - 1).
	QueueDepth int

	// DoorbellBatch coalesces SQ doorbell MMIOs: the window rings once per
	// DoorbellBatch queued submissions instead of once per command (waits
	// flush the remainder). 0 and 1 mean one doorbell per submission; any
	// value > 1 also turns on burst submission of multi-command PUTs (the
	// old Pipelined toggle).
	DoorbellBatch int

	// CoalesceInterval, when > 0, quantizes device completion readiness up
	// to multiples of the interval — interrupt-coalescing-style completion
	// sweeps. It requires QueueDepth >= 2: coalescing a sync passthrough
	// only adds latency with nothing to batch.
	CoalesceInterval sim.Duration
}

// PipelinedSubmission returns the policy the legacy Pipelined toggle maps
// to: depth-1 burst mode. Multi-command PUTs submit as one doorbell burst,
// while reads keep the synchronous passthrough.
func PipelinedSubmission() SubmissionConfig {
	return SubmissionConfig{QueueDepth: 1, DoorbellBatch: 64}
}

// async reports whether the config opens a multi-command window.
func (c SubmissionConfig) async() bool { return c.QueueDepth >= 2 }

// burst reports whether multi-command PUTs submit as doorbell bursts.
func (c SubmissionConfig) burst() bool { return c.DoorbellBatch > 1 }

// depth is the effective window depth (>= 1).
func (c SubmissionConfig) depth() int {
	if c.QueueDepth < 1 {
		return 1
	}
	return c.QueueDepth
}

// doorbellEvery is the effective submissions-per-doorbell, clamped into the
// window so a push can never outrun the ring.
func (c SubmissionConfig) doorbellEvery() int {
	n := c.DoorbellBatch
	if n < 1 {
		n = 1
	}
	if d := c.depth(); c.async() && n > d {
		n = d
	}
	return n
}

// ConfigError reports a Config field that failed validation. New returns it,
// and bandslim's Open wraps it; match with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("driver: invalid %s: %s", e.Field, e.Reason)
}

// validate checks the config against the device ring size sqSize.
func (c SubmissionConfig) validate(sqSize int) error {
	if c.QueueDepth < 0 {
		return &ConfigError{Field: "Submission.QueueDepth", Reason: fmt.Sprintf("must be >= 0, got %d", c.QueueDepth)}
	}
	if c.QueueDepth > sqSize-1 {
		return &ConfigError{Field: "Submission.QueueDepth", Reason: fmt.Sprintf("%d exceeds the device ring (max %d for Device.QueueDepth %d)", c.QueueDepth, sqSize-1, sqSize)}
	}
	if c.DoorbellBatch < 0 {
		return &ConfigError{Field: "Submission.DoorbellBatch", Reason: fmt.Sprintf("must be >= 0, got %d", c.DoorbellBatch)}
	}
	if c.CoalesceInterval < 0 {
		return &ConfigError{Field: "Submission.CoalesceInterval", Reason: fmt.Sprintf("must be >= 0, got %v", c.CoalesceInterval)}
	}
	if c.CoalesceInterval > 0 && !c.async() {
		return &ConfigError{Field: "Submission.CoalesceInterval", Reason: "requires QueueDepth >= 2 (nothing to coalesce on a synchronous queue)"}
	}
	return nil
}

// Submission reports the active submission policy.
func (d *Driver) Submission() SubmissionConfig { return d.sub }

// kind selects a dispatch's device sweep and when it is charged. Every kind
// charges max(start + RTT + (n−1)·PipelineInterval, Ready + RTT) for its n
// commands, Ready being the latest completion's.
type kind uint8

const (
	// kindCall is one synchronous command, swept with no stagger and charged
	// per attempt: each attempt observes its opcode's round trip and is
	// traced as one EvSubmit span.
	kindCall kind = iota
	// kindBurst is up to SQ.Size()−1 commands behind one doorbell, swept with
	// no stagger, charged once, traced as one EvBurst span and never retried:
	// partial completion makes replayed side effects ambiguous.
	kindBurst
	// kindWindow is one windowed read, swept with fetches staggered by the
	// pipeline interval and readiness on the coalescing grid; it is traced as
	// a zero-length EvSubmit at push and charged (EvReap) when claimed.
	kindWindow
)

// frame is one dispatch's wait state, from open to release; a burst's
// commands carry consecutive IDs from cid. Frames live in a slice sized to the
// window depth (at least one); a windowed read in frame i lands in staging
// slot i.
type frame struct {
	used     bool
	kind     kind
	cid      uint16
	n        int             // commands dispatched
	left     int             // completions not yet reaped
	cmd      nvme.Command    // the first command, kept for retries
	comp     nvme.Completion // the latest reaped, carrying the first failing status
	failed   uint16          // which command, counted from cid, that status is from
	start    sim.Time
	attempts int
	backoff  sim.Duration // the wait before the next attempt
}

// retryStep decides whether frame f's retryable completion gets another
// attempt. Once maxRetries are spent it counts the command as exhausted and
// says no; otherwise it counts and traces the retry, waits out the backoff on
// the host clock and doubles it.
func (d *Driver) retryStep(f *frame) bool {
	if f.attempts >= maxRetries {
		d.stats.RetriesExhausted.Inc()
		return false
	}
	f.attempts++
	d.stats.Retries.Inc()
	if d.tr != nil {
		now := d.clock.Now()
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvRetry, Op: byte(f.cmd.Opcode()), Start: now, End: now.Add(f.backoff), Arg: int64(f.attempts)})
	}
	d.clock.Advance(f.backoff)
	f.backoff *= 2
	return true
}

// dispatch sends cmds — one synchronous call, or one burst — as a closed
// trip through the queue pair and returns the completion that answers it.
func (d *Driver) dispatch(k kind, cmds ...nvme.Command) (nvme.Completion, error) {
	h, err := d.free()
	if err == nil {
		err = d.open(h, k, cmds...)
	}
	if err != nil {
		return nvme.Completion{}, err
	}
	err = d.complete(h, k == kindCall)
	comp := d.frames[h].comp
	d.release(h)
	return comp, err
}

// free returns an unused frame.
func (d *Driver) free() (int, error) {
	for h := range d.frames {
		if !d.frames[h].used {
			return h, nil
		}
	}
	return 0, fmt.Errorf("driver: submission window full (%d in flight)", d.inflight)
}

// open pushes cmds behind the next SQ doorbell and starts frame h waiting
// for them.
func (d *Driver) open(h int, k kind, cmds ...nvme.Command) error {
	for i := range cmds {
		if err := d.push(&cmds[i]); err != nil {
			return err
		}
	}
	f := &d.frames[h] // a free frame is zero (release clears it)
	f.used, f.kind, f.cid, f.n, f.left = true, k, cmds[0].CommandID(), len(cmds), len(cmds)
	f.cmd, f.start, f.backoff = cmds[0], d.clock.Now(), retryBackoff
	d.inflight++
	return nil
}

// push queues cmd on the SQ behind the next doorbell.
func (d *Driver) push(cmd *nvme.Command) error {
	if err := d.dev.Queues().SQ.Push(*cmd); err != nil {
		return err
	}
	d.stats.CommandsIssued.Inc()
	d.unrung++
	return nil
}

// ring publishes the commands pushed since the last doorbell with one SQ
// doorbell and lets the device sweep them with kind k's fetch stagger and
// completion coalescing.
func (d *Driver) ring(k kind) error {
	if d.unrung == 0 {
		return nil
	}
	d.dev.Queues().SQ.RingDoorbell()
	d.link.RecordDoorbell()
	d.unrung = 0
	var stagger, coalesce sim.Duration
	if k == kindWindow {
		stagger, coalesce = d.link.Model.PipelineInterval, d.sub.CoalesceInterval
	}
	return d.dev.Process(d.clock.Now(), stagger, coalesce)
}

// complete awaits frame h and, while retry is set and its answer is
// retryable, re-submits the frame's command (see retryStep) and awaits it
// again. A call or burst is charged after every attempt; a window
// frame only when it is claimed.
func (d *Driver) complete(h int, retry bool) error {
	f := &d.frames[h]
	for {
		if err := d.await(f); err != nil {
			return err
		}
		if f.kind != kindWindow {
			d.charge(f)
		}
		if !retry || !f.comp.Status.Retryable() || !d.retryStep(f) {
			return nil
		}
		if f.kind != kindWindow {
			f.start = d.clock.Now()
		}
		if err := d.push(&f.cmd); err != nil {
			return err
		}
		f.left, f.comp = 1, nvme.Completion{}
	}
}

// await rings what is queued and reaps until frame f has every completion.
// Each sweep drains the CQ exhaustively with one CQ doorbell, matching every
// completion to its frame by command ID: other frames' completions wait in
// theirs, so awaiting them later costs nothing, and doorbell MMIO stays at
// one ring per sweep.
func (d *Driver) await(f *frame) error {
	for f.left > 0 {
		if err := d.ring(f.kind); err != nil {
			return err
		}
		cq := d.dev.Queues().CQ
		n := cq.Pending()
		if n == 0 {
			return fmt.Errorf("driver: command %d never completed", f.cid)
		}
		for ; n > 0; n-- {
			comp, err := cq.Reap()
			if err == nil {
				err = d.deliver(comp)
			}
			if err != nil {
				return err
			}
		}
		cq.RingDoorbell()
		d.link.RecordDoorbell()
	}
	return nil
}

// deliver hands comp to the in-flight frame whose commands include its ID.
// The frame keeps the latest completion, with the failing status of the
// first command in fetch order, whatever order they were reaped in.
func (d *Driver) deliver(comp nvme.Completion) error {
	for h := range d.frames {
		f := &d.frames[h]
		if i := comp.CommandID - f.cid; f.used && f.left > 0 && i < uint16(f.n) {
			if comp.Status == nvme.StatusSuccess || f.comp.Status != nvme.StatusSuccess && f.failed < i {
				comp.Status = f.comp.Status
			} else {
				f.failed = i
			}
			f.comp = comp
			f.left--
			return nil
		}
	}
	return fmt.Errorf("driver: completion for unknown command %d", comp.CommandID)
}

// charge advances the host clock to max(start + RTT + (n−1)·PipelineInterval,
// Ready + RTT) — for one command, its Ready plus the round trip — and books
// frame f's trip: a call or window read observes its opcode's round trip and
// closes with an EvSubmit or EvReap span, a burst with one EvBurst span.
func (d *Driver) charge(f *frame) {
	m := d.link.Model
	end := f.start.Add(m.CommandRoundTrip + sim.Duration(f.n-1)*m.PipelineInterval)
	d.clock.AdvanceTo(max(end, f.comp.Ready.Add(m.CommandRoundTrip)))
	now := d.clock.Now()
	name, arg := trace.EvBurst, int64(f.n)
	if f.kind != kindBurst {
		name, arg = trace.EvSubmit, int64(f.cid)
		if f.kind == kindWindow {
			name = trace.EvReap
		}
		d.stats.PerOp.Observe(f.cmd.Opcode().String(), float64(now.Sub(f.start)))
	}
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: name, Op: byte(f.cmd.Opcode()), Start: f.start, End: now, Arg: arg})
	}
}

// slotStaging returns slot i's persistent staging region, allocating it on
// first use (one MaxValueSize run per window slot: concurrent reads cannot
// share the single-owner d.stage).
func (d *Driver) slotStaging(i int) nvme.PRPList {
	if d.slotStage[i].Pages == nil {
		d.slotStage[i] = nvme.AllocStaging(d.mem, MaxValueSize)
	}
	return d.slotStage[i]
}

// startGet submits an asynchronous read for key and returns its frame
// handle; the result is claimed with waitGetInto. The caller (GetBatch)
// keeps at most the window depth outstanding — exceeding it fails — and
// calls it only with QueueDepth >= 2.
func (d *Driver) startGet(key []byte) (int, error) {
	h, err := d.free()
	if err != nil {
		return 0, err
	}
	cmd, err := d.readCommand(key, d.slotStaging(h))
	if err == nil {
		err = d.open(h, kindWindow, cmd)
	}
	if err != nil {
		return 0, err
	}
	if d.tr != nil {
		now := d.clock.Now()
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvSubmit, Op: byte(nvme.OpKVRead), Start: now, End: now, Arg: int64(cmd.CommandID())})
	}
	if d.unrung >= d.sub.doorbellEvery() {
		return h, d.ring(kindWindow)
	}
	return h, nil
}

// release returns frame h to the free set.
func (d *Driver) release(h int) {
	d.frames[h] = frame{}
	d.inflight--
}

// waitGetInto claims the result of startGet handle h, gathering the value
// into dst (grown as needed) and returning the filled slice. The host clock
// advances to the completion's arrival plus one round trip — out-of-order
// completions each charge their own arrival, so waits on an already-ready
// frame cost nothing extra. Missing keys surface as nvme.StatusKeyNotFound
// errors, exactly like Get.
func (d *Driver) waitGetInto(h int, dst []byte) ([]byte, error) {
	f := &d.frames[h]
	err := d.complete(h, true)
	var data []byte
	if err == nil {
		d.charge(f)
		data, err = d.finishGet(&f.cmd, f.comp, d.slotStage[h], dst, f.start)
	}
	d.release(h)
	return data, err
}

// drainWindow completes and discards every outstanding frame — the error
// path's cleanup, leaving the rings empty for the next operation. Nothing is
// retried and statuses are ignored (the triggering error already surfaced);
// the clock advances past every straggler's arrival.
func (d *Driver) drainWindow() {
	for h := range d.frames {
		f := &d.frames[h]
		if !f.used {
			continue
		}
		// Only a simulation bug fails the sweep; that frame goes uncharged.
		if d.complete(h, false) == nil {
			d.clock.AdvanceTo(f.comp.Ready.Add(d.link.Model.CommandRoundTrip))
		}
		d.release(h)
	}
	d.unrung = 0
}
