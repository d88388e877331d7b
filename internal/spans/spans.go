// Package spans reconstructs per-operation latency attribution from the
// command-level trace stream: which simulated nanoseconds of one PUT/GET/
// DELETE were spent queued in the submission window, waiting for the
// controller fetch, moving bytes over PCIe/DMA, in NAND service, held back
// by completion coalescing, or in the reap-to-return tail.
//
// The reconstruction is a pure function of the event stream. Per shard,
// events replay in emission (Seq) order; each command id accumulates stage
// intervals as its boundary events arrive, and each operation event
// (EvPut/EvGet/EvDelete) claims the commands that completed inside its span.
// Stage durations are then computed by a priority-union sweep over the
// operation's [Start, End] window: every elementary time segment is charged
// to the highest-priority stage covering it, and time no stage claims is
// charged to the host stage. Because the segments partition the window
// exactly, the per-stage durations are non-negative and sum to the
// end-to-end latency with zero residual — by construction, for every op,
// even on streams where a ring eviction swallowed some boundary events
// (missing boundaries only shift time into a coarser stage).
package spans

import (
	"sort"

	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Stage is one latency-attribution bucket, in pipeline order.
type Stage uint8

const (
	// StageHost is host-side time not attributable to any finer stage:
	// software overhead, retry backoff, and the pre-submit setup of an op.
	StageHost Stage = iota
	// StageWindowWait is submission-queue residency: SQ push to controller
	// fetch (the window/doorbell-batching wait of a deep queue).
	StageWindowWait
	// StageFetch is controller fetch to execution start: command decode and
	// the per-command pipeline-interval stagger within a window.
	StageFetch
	// StageDevExec is device firmware execution not covered by a transfer or
	// flash interval (FTL lookup, page-buffer memcpy, device CPU time).
	StageDevExec
	// StageTransfer is PCIe/DMA wire time: PRP/SGL data transfers in either
	// direction.
	StageTransfer
	// StageNAND is flash array service: program, read, and erase operations
	// (including forced-flush cascades an op triggers).
	StageNAND
	// StageCoalesce is completion-coalescing delay: device work finished to
	// the completion being posted to the CQ.
	StageCoalesce
	// StageReap is the completion-to-return tail: CQ post to the host
	// observing the completion (round trip plus out-of-order wait).
	StageReap
	// StageDevCache is device-DRAM read-cache service: the hit lookup that
	// replaced an LSM walk + NAND read (value tier) or an SSTable page
	// fetch (page tier).
	StageDevCache

	NumStages
)

var stageNames = [NumStages]string{
	"host", "window_wait", "fetch", "dev_exec",
	"transfer", "nand", "coalesce", "reap", "dev_cache",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// stagePriority resolves overlapping intervals: the most specific stage wins
// the overlapped time. Flash and wire time are the ground truth (they nest
// inside exec spans); coalescing and reap tails are coarser; queue waits
// coarser still; host is the default for time nobody claims.
var stagePriority = [NumStages]int{
	StageHost:       0,
	StageWindowWait: 1,
	StageFetch:      2,
	StageReap:       3,
	StageCoalesce:   4,
	StageDevExec:    5,
	StageTransfer:   6,
	StageNAND:       7,
	// The cache hit nests inside its exec span like NAND time does, and
	// nothing finer ever overlaps it.
	StageDevCache: 8,
}

// Op is one reconstructed operation with its stage breakdown. The invariant
// every consumer relies on: all Stages entries are >= 0 and their sum equals
// End - Start exactly (Residual() == 0).
type Op struct {
	// Name is the operation event's name: "put", "get", or "delete".
	Name string
	// Shard and Seq identify the closing op event in the source stream.
	Shard int32
	Seq   uint64
	// Start and End bound the operation in simulated time.
	Start sim.Time
	End   sim.Time
	// Stages holds the attributed duration of each stage.
	Stages [NumStages]sim.Duration
	// Commands is how many NVMe command round trips the op claimed (retried
	// synchronous attempts count once per attempt).
	Commands int
	// Retries is how many retry backoffs fired inside the op's span.
	Retries int
}

// E2E reports the end-to-end simulated latency.
func (o *Op) E2E() sim.Duration { return o.End.Sub(o.Start) }

// Residual reports E2E minus the sum of all stage durations. It is zero for
// every op Analyze produces; tests and the bench gate assert it.
func (o *Op) Residual() sim.Duration {
	sum := sim.Duration(0)
	for _, d := range o.Stages {
		sum += d
	}
	return o.E2E() - sum
}

// Report is the result of analyzing one event stream.
type Report struct {
	// Ops lists every reconstructed operation, ordered by (Start, Shard,
	// Seq) — the same order trace.Merge gives events.
	Ops []Op
	// Unclaimed counts completed commands no operation event claimed:
	// flush/iterator commands, and window reads whose key missed (their
	// EvGet never fires). Informational, not an error.
	Unclaimed int
	// Incomplete counts commands still open when the stream ended or a
	// mount reset the device: crash victims and drained windows.
	Incomplete int
	// TruncatedEvents counts events the Seq numbering proves missing (ring
	// eviction or a Recorder reset). Nonzero means attribution near the
	// truncation degrades: time from lost boundaries folds into coarser
	// stages.
	TruncatedEvents int64
	// DuplicateEvents counts events sharing a (Shard, Seq) with an earlier
	// one (a stream merged with itself); duplicates are skipped.
	DuplicateEvents int64
}

// Lossy reports whether the stream is provably missing events.
func (r *Report) Lossy() bool { return r.TruncatedEvents > 0 }

// interval is one stage's claim on a time range.
type interval struct {
	stage      Stage
	start, end sim.Time
}

// span is a plain time range (retry backoffs awaiting claim).
type span struct {
	start, end sim.Time
}

// cmdInst is one command id's life from SQ push to host-visible completion.
// A CID is reused across the run; an instance spans one occupancy.
type cmdInst struct {
	cid     uint16
	pushT   sim.Time // first push (claim anchor)
	curPush sim.Time // latest push (re-push = window retry)

	curFetch    sim.Time
	haveFetch   bool
	lastExecEnd sim.Time
	haveExec    bool
	ready       sim.Time
	haveReady   bool

	closedBy  trace.Name
	closeSpan span // the closing event's own span
	closedAt  sim.Time

	ivs []interval
}

// shardState is the per-shard replay state.
type shardState struct {
	open    map[uint16]*cmdInst
	closed  []*cmdInst
	retries []span
	nested  []interval // DMA/NAND intervals awaiting their EvExec
	seen    bool
	prevSeq uint64
}

// Analyze reconstructs operations from an event stream. The stream may hold
// one shard or a merged set; events are partitioned by shard and replayed in
// Seq order, so any input ordering yields the same report.
func Analyze(events []trace.Event) *Report {
	r := &Report{}
	byShard := make(map[int32][]trace.Event)
	var shardIDs []int32
	for _, e := range events {
		if _, ok := byShard[e.Shard]; !ok {
			shardIDs = append(shardIDs, e.Shard)
		}
		byShard[e.Shard] = append(byShard[e.Shard], e)
	}
	sort.Slice(shardIDs, func(i, j int) bool { return shardIDs[i] < shardIDs[j] })
	for _, id := range shardIDs {
		evs := byShard[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		r.analyzeShard(evs)
	}
	sort.SliceStable(r.Ops, func(i, j int) bool {
		a, b := r.Ops[i], r.Ops[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return r
}

func (r *Report) analyzeShard(events []trace.Event) {
	st := &shardState{open: make(map[uint16]*cmdInst)}
	for _, e := range events {
		if st.seen {
			if e.Seq <= st.prevSeq {
				r.DuplicateEvents++
				continue
			}
			if e.Seq != st.prevSeq+1 {
				r.TruncatedEvents += int64(e.Seq - st.prevSeq - 1)
			}
		} else {
			st.seen = true
			if e.Seq > 1 {
				r.TruncatedEvents += int64(e.Seq - 1)
			}
		}
		st.prevSeq = e.Seq

		switch e.Cat {
		case trace.CatNVMe:
			st.ring(e)
		case trace.CatDMA:
			// Wire transfers nest inside the enclosing exec span; buffer
			// them until it arrives. EvMemcpy is device-CPU copy time the
			// exec span already covers.
			if (e.Name == trace.EvDMAIn || e.Name == trace.EvDMAOut || e.Name == trace.EvSGLIn) && e.End > e.Start {
				st.nested = append(st.nested, interval{StageTransfer, e.Start, e.End})
			}
		case trace.CatNAND:
			if e.End > e.Start {
				st.nested = append(st.nested, interval{StageNAND, e.Start, e.End})
			}
		case trace.CatDevice:
			// Cache hits nest inside the enclosing exec span exactly like
			// DMA/NAND intervals; evict markers are instantaneous bookkeeping.
			if e.Name == trace.EvCacheHit {
				if e.End > e.Start {
					st.nested = append(st.nested, interval{StageDevCache, e.Start, e.End})
				}
				continue
			}
			r.exec(st, e)
		case trace.CatDriver:
			r.driver(st, e)
		}
	}
	// Stream over: whatever is still in flight never completed.
	r.Incomplete += len(st.open)
	r.Unclaimed += len(st.closed)
}

// ring consumes SQ/CQ transitions (all carry the CID in Arg).
func (st *shardState) ring(e trace.Event) {
	cid := uint16(e.Arg)
	switch e.Name {
	case trace.EvSQPush:
		if inst, ok := st.open[cid]; ok {
			// Same-CID re-push while open: a window retry resubmission.
			inst.curPush = e.Start
			inst.haveFetch = false
			return
		}
		st.open[cid] = &cmdInst{cid: cid, pushT: e.Start, curPush: e.Start}
	case trace.EvSQFetch:
		if inst, ok := st.open[cid]; ok {
			if e.Start > inst.curPush {
				inst.ivs = append(inst.ivs, interval{StageWindowWait, inst.curPush, e.Start})
			}
			inst.curFetch = e.Start
			inst.haveFetch = true
		}
	case trace.EvCQPost:
		if inst, ok := st.open[cid]; ok {
			if inst.haveExec && e.Start > inst.lastExecEnd {
				inst.ivs = append(inst.ivs, interval{StageCoalesce, inst.lastExecEnd, e.Start})
			}
			inst.ready = e.Start
			if inst.haveExec && inst.ready < inst.lastExecEnd {
				inst.ready = inst.lastExecEnd
			}
			inst.haveReady = true
		}
		// EvCQReap is stamped at the host clock before it advances to the
		// completion's arrival, so it carries no boundary information; the
		// close events (EvSubmit/EvReap/EvBurst) bound the reap tail.
	}
}

// exec consumes device-layer events: EvExec closes over the buffered nested
// intervals; EvMount is a device reset that orphans everything in flight.
func (r *Report) exec(st *shardState, e trace.Event) {
	switch e.Name {
	case trace.EvMount:
		// Device reset: in-flight commands died with the power; their
		// partial intervals must not leak into post-recovery ops.
		r.Incomplete += len(st.open)
		st.open = make(map[uint16]*cmdInst)
		r.Unclaimed += len(st.closed)
		st.closed = st.closed[:0]
		st.nested = st.nested[:0]
	case trace.EvExec:
		inst, ok := st.open[uint16(e.Arg)]
		if ok {
			if inst.haveFetch && e.Start > inst.curFetch {
				inst.ivs = append(inst.ivs, interval{StageFetch, inst.curFetch, e.Start})
			}
			inst.ivs = append(inst.ivs, interval{StageDevExec, e.Start, e.End})
			for _, nv := range st.nested {
				s, en := nv.start, nv.end
				if s < e.Start {
					s = e.Start
				}
				if en > e.End {
					en = e.End
				}
				if en > s {
					inst.ivs = append(inst.ivs, interval{nv.stage, s, en})
				}
			}
			inst.lastExecEnd = e.End
			inst.haveExec = true
		}
		st.nested = st.nested[:0]
	}
}

// driver consumes host-layer events: closes (EvSubmit span, EvReap,
// EvBurst), retries, and op claims.
func (r *Report) driver(st *shardState, e trace.Event) {
	switch e.Name {
	case trace.EvSubmit:
		if e.End > e.Start {
			// Synchronous round trip: the span closes its command. The
			// windowed queued-submission instant (End == Start) does not.
			st.close(uint16(e.Arg), e)
		}
	case trace.EvReap:
		st.close(uint16(e.Arg), e)
	case trace.EvBurst:
		// One burst closes every command pushed at or after its start, in
		// deterministic (pushT, cid) order.
		var cids []*cmdInst
		for _, inst := range st.open {
			if inst.curPush >= e.Start {
				cids = append(cids, inst)
			}
		}
		sort.Slice(cids, func(i, j int) bool {
			a, b := cids[i], cids[j]
			if a.pushT != b.pushT {
				return a.pushT < b.pushT
			}
			return a.cid < b.cid
		})
		for _, inst := range cids {
			st.closeInst(inst, e)
		}
	case trace.EvRetry:
		st.retries = append(st.retries, span{e.Start, e.End})
	case trace.EvPut, trace.EvGet, trace.EvDelete:
		r.claim(st, e)
	}
}

// close finishes the open instance for cid with closing event e.
func (st *shardState) close(cid uint16, e trace.Event) {
	inst, ok := st.open[cid]
	if !ok {
		return
	}
	st.closeInst(inst, e)
}

func (st *shardState) closeInst(inst *cmdInst, e trace.Event) {
	if inst.haveReady && e.End > inst.ready {
		inst.ivs = append(inst.ivs, interval{StageReap, inst.ready, e.End})
	}
	inst.closedBy = e.Name
	inst.closeSpan = span{e.Start, e.End}
	inst.closedAt = e.End
	delete(st.open, inst.cid)
	st.closed = append(st.closed, inst)
}

// claim resolves one operation event against the closed commands.
func (r *Report) claim(st *shardState, e trace.Event) {
	opStart, opEnd := e.Start, e.End

	// A windowed wait emits EvReap and its op event with the identical
	// span, back to back — an exact link. When any closed command matches
	// it, claim only those; otherwise fall back to containment (sync and
	// burst paths, whose op event brackets its commands' round trips).
	var claimed []*cmdInst
	for _, c := range st.closed {
		if c.closedBy == trace.EvReap && c.closeSpan.start == opStart && c.closeSpan.end == opEnd {
			claimed = append(claimed, c)
		}
	}
	exact := len(claimed) > 0
	rest := st.closed[:0]
	for _, c := range st.closed {
		switch {
		case exact && c.closedBy == trace.EvReap && c.closeSpan.start == opStart && c.closeSpan.end == opEnd:
			// already claimed
		case !exact && c.pushT >= opStart && c.closedAt <= opEnd:
			claimed = append(claimed, c)
		case c.closedAt <= opEnd:
			// Closed before this op returned but claimable by no later op
			// (a later op's span starts at or after this op's end).
			r.Unclaimed++
		default:
			rest = append(rest, c)
		}
	}
	st.closed = rest

	nret := 0
	restR := st.retries[:0]
	for _, rs := range st.retries {
		switch {
		case rs.start >= opStart && rs.end <= opEnd:
			nret++
		case rs.end <= opEnd:
			// A backoff belonging to an unclaimed command; drop it.
		default:
			restR = append(restR, rs)
		}
	}
	st.retries = restR

	op := Op{
		Name:     e.Name.String(),
		Shard:    e.Shard,
		Seq:      e.Seq,
		Start:    opStart,
		End:      opEnd,
		Commands: len(claimed),
		Retries:  nret,
	}
	var ivs []interval
	for _, c := range claimed {
		ivs = append(ivs, c.ivs...)
	}
	op.Stages = attribute(opStart, opEnd, ivs)
	r.Ops = append(r.Ops, op)
}

// attribute charges each elementary segment of [start, end] to the highest-
// priority covering stage (host when none covers it). The segments partition
// the window, so the result sums to end-start exactly with no negatives.
func attribute(start, end sim.Time, ivs []interval) [NumStages]sim.Duration {
	var stages [NumStages]sim.Duration
	if end <= start {
		return stages
	}
	clipped := make([]interval, 0, len(ivs))
	pts := make([]sim.Time, 0, 2*len(ivs)+2)
	pts = append(pts, start, end)
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e <= s {
			continue
		}
		clipped = append(clipped, interval{iv.stage, s, e})
		pts = append(pts, s, e)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	uniq := pts[:1]
	for _, p := range pts[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		best := StageHost
		bestPri := stagePriority[StageHost]
		for _, iv := range clipped {
			if iv.start <= a && a < iv.end {
				if p := stagePriority[iv.stage]; p > bestPri {
					best, bestPri = iv.stage, p
				}
			}
		}
		stages[best] += b.Sub(a)
	}
	return stages
}
