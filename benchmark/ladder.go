package main

// The layer ladder: standalone instances of each layer, assembled bottom-up
// from the public constructors and driven on the host clock with calls derived
// from a miniature instance of the current workload (same generator, pinned
// sizes). Every rung runs under every workload, so each number answers "what
// does this layer cost under this traffic", also for layers the workload's
// own stack does not contain (resp under fill_mixgraph is its Puts as SETs).
// Where the traffic has no call of the class a rung needs, the nearest calls
// stand in: a write-only stream reads its own keys back, a stream with no
// value on one side of the inline threshold sends all its values through
// that entry point, a cache-off workload gets the serving profile's cache.
// Each rung is one span in out/spans.jsonl; a rung's children are measured
// where a seam exists (a timing decorator on lsm.PageStore and
// pagebuf.FlushFunc) and otherwise estimated as child call count x the child
// rung's unit cost, marked _est.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"bandslim"
	"bandslim/internal/cache"
	"bandslim/internal/device"
	"bandslim/internal/dma"
	"bandslim/internal/ftl"
	"bandslim/internal/lsm"
	"bandslim/internal/nand"
	"bandslim/internal/nvme"
	"bandslim/internal/pagebuf"
	"bandslim/internal/pcie"
	"bandslim/internal/resp"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// Pinned call counts of the rungs that are not sized by the miniature
// instance itself (at -scale 1).
const (
	ladderPrograms = 4096  // NAND pages programmed / FTL pages written
	ladderReads    = 16384 // NAND / FTL page reads
	ladderReadBack = 30000 // Gets a write-only stream issues against its own keys
)

type ladder struct {
	w      *workload
	cfg    bandslim.Config
	dev    device.Config
	mi     *instance // always two streams: a single-caller stream is split in halves
	puts   []op      // load, then the streams' Puts, in issue order
	gets   []op      // the streams' Gets, present and absent; else the Puts read back
	scale  float64
	sl     *spanLog
	parent int64
	out    map[string]float64
}

func runLadder(w *workload, seed uint64, scale float64, sl *spanLog, parent int64) (map[string]float64, error) {
	l := &ladder{w: w, cfg: w.config(), scale: scale, sl: sl, parent: parent, out: map[string]float64{}}
	l.dev = l.cfg.Device
	l.dev.Buffer.Policy = l.cfg.Policy
	l.dev.Cache = l.cfg.Cache
	l.mi = w.buildLadder(seed, scale)
	if len(l.mi.callers) == 1 {
		s := l.mi.callers[0]
		l.mi = &instance{load: [][]op{l.mi.load[0], nil}, callers: [][]op{s[:len(s)/2], s[len(s)/2:]}}
	}
	for _, s := range l.mi.load {
		l.puts = append(l.puts, s...)
	}
	for _, s := range l.mi.callers {
		for _, o := range s {
			if o.kind == opPut {
				l.puts = append(l.puts, o)
			} else {
				l.gets = append(l.gets, o)
			}
		}
	}
	if len(l.gets) == 0 {
		// Write-only stream: each caller reads back its own first Puts.
		for c, s := range l.mi.callers {
			back := len(s)
			if max := l.count(ladderReadBack) / len(l.mi.callers); back > max {
				back = max
			}
			for _, o := range s[:back] {
				l.gets = append(l.gets, op{key: o.key, kind: opGet})
			}
			l.mi.callers[c] = append(s[:len(s):len(s)], l.gets[len(l.gets)-back:]...)
		}
	}
	steps := []func() error{l.nandFTL, l.lsm, l.pagebuf, l.vlog, l.dma, l.nvme, l.cache, l.stacks, l.resp, l.server}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		runtime.GC() // a rung's garbage is not the next rung's GC bill
	}
	return l.out, nil
}

func (l *ladder) count(n int) int {
	v := int(float64(n) * l.scale)
	if v < 64 {
		v = 64
	}
	return v
}

// rung runs fn — calls calls into one layer — under a span and returns ns per
// call plus the span id for its children.
func (l *ladder) rung(name string, calls int, fn func() error) (float64, int64, error) {
	if calls == 0 {
		return 0, 0, nil
	}
	id := l.sl.begin("rung."+name, l.parent, int64(calls))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.sl.end(id)
	if err != nil {
		return 0, id, fmt.Errorf("rung %s: %w", name, err)
	}
	return float64(d) / float64(calls), id, nil
}

// est records an estimated child: calls x unit ns.
func (l *ladder) est(parent int64, name string, calls int64, unitNs float64) {
	l.sl.child("rung."+name, parent, time.Duration(float64(calls)*unitNs), calls, true)
}

func allocated() (bytes, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

func pageAddr(g nand.Geometry, i int) nand.PageAddr {
	ways := g.Ways()
	return nand.PageAddr{
		Channel: i % g.Channels,
		Way:     i / g.Channels % g.WaysPerChannel,
		Block:   i / ways / g.PagesPerBlock,
		Page:    i / ways % g.PagesPerBlock,
	}
}

// pageImage packs the workload's first values into one NAND page.
func (l *ladder) pageImage(size int) []byte {
	page := make([]byte, 0, size+1024)
	var scratch []byte
	for _, o := range l.puts {
		if len(page)+int(o.size) > size {
			break
		}
		scratch = fillValue(scratch, o.key, o.ver, int(o.size))
		page = append(page, scratch...)
	}
	return page[:size]
}

func (l *ladder) flash() (*nand.Array, *ftl.FTL, error) {
	arr, err := nand.New(l.dev.Geometry, l.dev.Latency, sim.NewClock())
	if err != nil {
		return nil, nil, err
	}
	f, err := ftl.New(arr, l.dev.FTL)
	return arr, f, err
}

// flashChunk is how many calls the bare NAND makes before the FTL takes over.
const flashChunk = 64

// nandFTL drives a bare NAND array and an FTL over a second array in
// lockstep, flashChunk calls each in turn, so both see the same heap and GC
// state: ftl.*_self_ns is the difference of two loops that differ only in
// the FTL's own code (the FTL has no seam below it, hence _est).
func (l *ladder) nandFTL() error {
	g := l.dev.Geometry
	page := l.pageImage(g.PageSize)
	n, reads := l.count(ladderPrograms), l.count(ladderReads)
	// Grow the heap to the rungs' footprint first, or the first loop pays the
	// page faults and the second reuses them for free.
	if warm, _, err := l.flash(); err == nil {
		for i := 0; i < 2*n; i++ {
			warm.Program(0, pageAddr(g, i), page)
		}
	}
	runtime.GC()
	bare, _, err := l.flash()
	if err != nil {
		return err
	}
	under, f, err := l.flash()
	if err != nil {
		return err
	}
	lpns := make([]int, n)
	for i := range lpns {
		lpns[i] = int(l.puts[i%len(l.puts)].key % uint64(f.LogicalPages()))
	}
	// lockstep times calls [0, total) of a and b in alternating chunks.
	lockstep := func(name string, total int, a, b func(i int) error) (aNs, bNs int64, id int64, err error) {
		_, id, err = l.rung(name, 2*total, func() error {
			for lo := 0; lo < total; lo += flashChunk {
				hi := lo + flashChunk
				if hi > total {
					hi = total
				}
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					if err := a(i); err != nil {
						return err
					}
				}
				t1 := time.Now()
				for i := lo; i < hi; i++ {
					if err := b(i); err != nil {
						return err
					}
				}
				aNs, bNs = aNs+int64(t1.Sub(t0)), bNs+int64(time.Since(t1))
			}
			return nil
		})
		return aNs, bNs, id, err
	}
	nandNs, ftlNs, id, err := lockstep("nand.program+ftl.write", n,
		func(i int) error { _, err := bare.Program(0, pageAddr(g, i), page); return err },
		func(i int) error { _, err := f.Write(0, lpns[i], page); return err })
	if err != nil {
		return err
	}
	programs := under.Stats().PageWrites.Value()
	l.out["nand.program_ns"] = float64(nandNs) / float64(n)
	l.out["ftl.write_self_ns"] = float64(ftlNs)/float64(n) - l.out["nand.program_ns"]*float64(programs)/float64(n)
	l.sl.child("rung.nand.program", id, time.Duration(nandNs), int64(n), false)
	l.sl.child("rung.ftl.write", id, time.Duration(ftlNs), int64(n), false)
	l.est(id, "ftl.write>nand.program", programs, l.out["nand.program_ns"])

	at := func(i int) int { return int(l.gets[i%len(l.gets)].key % uint64(n)) }
	b0, _ := allocated()
	nandNs, ftlNs, id, err = lockstep("nand.read+ftl.read", reads,
		func(i int) error { _, _, err := bare.Read(0, pageAddr(g, at(i))); return err },
		func(i int) error { _, _, err := f.Read(0, lpns[at(i)]); return err })
	if err != nil {
		return err
	}
	b1, _ := allocated()
	l.out["nand.read_ns"] = float64(nandNs) / float64(reads)
	l.out["nand.read_alloc_bytes"] = float64(b1-b0) / float64(2*reads)
	l.out["ftl.read_self_ns"] = float64(ftlNs-nandNs) / float64(reads)
	l.sl.child("rung.nand.read", id, time.Duration(nandNs), int64(reads), false)
	l.sl.child("rung.ftl.read", id, time.Duration(ftlNs), int64(reads), false)
	l.est(id, "ftl.read>nand.read", int64(reads), l.out["nand.read_ns"])
	return nil
}

// timedStore is the timing decorator at the lsm.PageStore seam.
type timedStore struct {
	lsm.PageStore
	ns, writes, reads int64
}

func (s *timedStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	t0 := time.Now()
	end, err := s.PageStore.WritePage(t, page, data)
	s.ns += int64(time.Since(t0))
	s.writes++
	return end, err
}

func (s *timedStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	t0 := time.Now()
	data, end, err := s.PageStore.ReadPage(t, page)
	s.ns += int64(time.Since(t0))
	s.reads++
	return data, end, err
}

func (l *ladder) lsm() error {
	_, f, err := l.flash()
	if err != nil {
		return err
	}
	vlogPages := int(float64(f.LogicalPages()) * l.dev.VLogFraction)
	inner, err := lsm.NewFTLStore(f, vlogPages, f.LogicalPages()-vlogPages)
	if err != nil {
		return err
	}
	store := &timedStore{PageStore: inner}
	tree, err := lsm.NewTree(l.dev.LSM, store)
	if err != nil {
		return err
	}
	var key [8]byte
	var now sim.Time
	var addr vlog.Addr
	b0, _ := allocated()
	per, id, err := l.rung("lsm.put", len(l.puts), func() error {
		for _, o := range l.puts {
			end, err := tree.Put(now, putKey(key[:], o.key), addr, uint32(o.size))
			if err != nil {
				return err
			}
			if end > now {
				now = end
			}
			addr += vlog.Addr(o.size)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b1, _ := allocated()
	n := float64(len(l.puts))
	l.sl.child("rung.lsm.put.store", id, time.Duration(store.ns), store.writes+store.reads, false)
	l.out["lsm.store_ns_per_put"] = float64(store.ns) / n
	l.out["lsm.put_self_ns"] = per - float64(store.ns)/n
	l.out["lsm.put_alloc_bytes"] = float64(b1-b0) / n
	if now, err = tree.Flush(now); err != nil {
		return err
	}
	store.ns, store.reads, store.writes = 0, 0, 0
	per, id, err = l.rung("lsm.get", len(l.gets), func() error {
		for _, o := range l.gets {
			_, found, _, err := tree.Get(now, putKey(key[:], o.key))
			if err != nil {
				return err
			}
			if found != (o.kind == opGet) {
				return fmt.Errorf("key %x: found=%v", o.key, found)
			}
		}
		return nil
	})
	n = float64(len(l.gets))
	l.sl.child("rung.lsm.get.store", id, time.Duration(store.ns), store.reads, false)
	l.out["lsm.store_ns_per_get"] = float64(store.ns) / n
	l.out["lsm.get_self_ns"] = per - float64(store.ns)/n
	l.out["lsm.pages_per_get"] = float64(store.reads) / n
	return err
}

// inline reports whether the driver would piggyback a value of this size
// under the workload's thresholds.
func (l *ladder) inline(size uint16) bool {
	return float64(size) <= l.cfg.Thresholds.Alpha*float64(l.cfg.Thresholds.Threshold1)
}

func (l *ladder) pagebuf() error {
	// place runs every Put value through a fresh buffer: by the driver's
	// threshold (force < 0), or all through one entry point (0 inline, 1 DMA).
	// Inline and DMA placements interleave as in the workload (backfilling
	// depends on it); a chained timestamp charges each call to its class with
	// the flush time it triggered taken out at the seam.
	place := func(name string, force int) (ns, calls [2]int64, err error) {
		_, f, err := l.flash()
		if err != nil {
			return ns, calls, err
		}
		eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), l.dev.Memcpy)
		var flushNs, flushes int64
		buf, err := pagebuf.New(l.dev.Buffer, eng, func(t sim.Time, pageNo int64, data []byte) (sim.Time, error) {
			t0 := time.Now()
			end, err := f.Write(t, int(pageNo%int64(f.LogicalPages())), data)
			flushNs += int64(time.Since(t0))
			flushes++
			return end, err
		})
		if err != nil {
			return ns, calls, err
		}
		var val []byte
		var now sim.Time
		_, id, err := l.rung(name, len(l.puts), func() error {
			prev := time.Now()
			for _, o := range l.puts {
				val = fillValue(val, o.key, o.ver, int(o.size))
				class, f0 := force, flushNs
				if force < 0 {
					class = 1
					if l.inline(o.size) {
						class = 0
					}
				}
				var end sim.Time
				var err error
				if class == 0 {
					_, end, err = buf.PlacePiggybacked(now, val)
				} else {
					_, end, err = buf.PlaceDMA(now, val)
				}
				if err != nil {
					return err
				}
				if end > now {
					now = end
				}
				t := time.Now()
				ns[class] += int64(t.Sub(prev)) - (flushNs - f0)
				calls[class]++
				prev = t
			}
			return nil
		})
		l.sl.child("rung."+name+".flush", id, time.Duration(flushNs), flushes, false)
		return ns, calls, err
	}
	ns, calls, err := place("pagebuf.place", -1)
	if err != nil {
		return err
	}
	for class, name := range []string{"pagebuf.place_inline_ns", "pagebuf.place_dma_ns"} {
		if calls[class] == 0 {
			if ns, calls, err = place("pagebuf.place.forced", class); err != nil {
				return err
			}
		}
		l.out[name] = float64(ns[class]) / float64(calls[class])
	}
	return nil
}

func (l *ladder) vlog() error {
	arr, f, err := l.flash()
	if err != nil {
		return err
	}
	eng := dma.NewEngine(pcie.NewLink(pcie.DefaultCostModel()), l.dev.Memcpy)
	v, err := vlog.Build(f, l.dev.Buffer, eng, 0, int(float64(f.LogicalPages())*l.dev.VLogFraction))
	if err != nil {
		return err
	}
	type loc struct {
		addr vlog.Addr
		n    int
	}
	where := make(map[uint64]loc, len(l.puts))
	var val []byte
	var now sim.Time
	var inlines, dmas int64
	l.out["vlog.append_ns"], _, err = l.rung("vlog.append", len(l.puts), func() error {
		for _, o := range l.puts {
			val = fillValue(val, o.key, o.ver, int(o.size))
			var a vlog.Addr
			var end sim.Time
			var err error
			if l.inline(o.size) {
				inlines++
				a, end, err = v.AppendPiggybacked(now, val)
			} else {
				dmas++
				a, end, err = v.AppendDMA(now, val)
			}
			if err != nil {
				return err
			}
			if end > now {
				now = end
			}
			where[o.key] = loc{a, int(o.size)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var locs []loc
	for _, o := range l.gets {
		if at, ok := where[o.key]; ok && at.n > 0 {
			locs = append(locs, at)
		}
	}
	if len(locs) == 0 {
		return nil
	}
	if now, err = v.Flush(now); err != nil {
		return err
	}
	var dst []byte
	reads0 := arr.Stats().PageReads.Value()
	per, id, err := l.rung("vlog.read", len(locs), func() error {
		for _, at := range locs {
			var err error
			if dst, _, err = v.ReadInto(now, at.addr, at.n, dst[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	l.est(id, "ftl.read", arr.Stats().PageReads.Value()-reads0, l.out["ftl.read_self_ns"]+l.out["nand.read_ns"])
	l.out["vlog.read_ns"] = per
	return err
}

func (l *ladder) dma() error {
	link, mem := pcie.NewLink(pcie.DefaultCostModel()), nvme.NewHostMemory()
	eng := dma.NewEngine(link, l.dev.Memcpy)
	staging := nvme.AllocStaging(mem, 64<<10)
	pattern := fillValue(nil, 1, 0, 4096)
	if err := staging.WithPayload(len(pattern)).Scatter(mem, pattern); err != nil {
		return err
	}
	var sizes, all []int
	for _, o := range l.puts {
		all = append(all, int(o.size))
		if !l.inline(o.size) {
			sizes = append(sizes, int(o.size))
		}
	}
	if len(sizes) == 0 {
		sizes = all
	}
	var dst []byte
	var err error
	l.out["dma.transfer_in_ns"], _, err = l.rung("dma.transfer_in", len(sizes), func() error {
		for _, n := range sizes {
			var err error
			if dst, _, err = eng.TransferInTo(0, mem, staging.WithPayload(n), dst[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Every found Get DMAs its value out, whatever its size.
	sizeOf := make(map[uint64]int, len(l.puts))
	for _, o := range l.puts {
		sizeOf[o.key] = int(o.size)
	}
	sizes = nil
	for _, o := range l.gets {
		if n := sizeOf[o.key]; n > 0 {
			sizes = append(sizes, n)
		}
	}
	l.out["dma.transfer_out_ns"], _, err = l.rung("dma.transfer_out", len(sizes), func() error {
		for _, n := range sizes {
			if _, err := eng.TransferOut(0, mem, staging.WithPayload(n), pattern[:n]); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func (l *ladder) nvme() error {
	qp := nvme.NewQueuePair(l.dev.QueueDepth)
	var key [8]byte
	var val []byte
	one := func(o op, id uint16) error {
		var cmd nvme.Command
		cmd.SetCommandID(id)
		if err := cmd.SetKey(putKey(key[:], o.key)); err != nil {
			return err
		}
		if o.kind == opPut {
			cmd.SetOpcode(nvme.OpKVWrite)
			cmd.SetValueSize(uint32(o.size))
			if l.inline(o.size) {
				cmd.SetTransferMode(nvme.ModeInline)
				val = fillValue(val, o.key, o.ver, int(o.size))
				cmd.SetWritePiggyback(val)
			}
		} else {
			cmd.SetOpcode(nvme.OpKVRead)
		}
		if err := qp.SQ.Push(cmd); err != nil {
			return err
		}
		qp.SQ.RingDoorbell()
		got, err := qp.SQ.Fetch()
		if err != nil {
			return err
		}
		if err := qp.CQ.Post(nvme.Completion{CommandID: got.CommandID(), SQHead: qp.SQ.Head()}); err != nil {
			return err
		}
		if _, err := qp.CQ.Reap(); err != nil {
			return err
		}
		qp.CQ.RingDoorbell()
		return nil
	}
	var err error
	l.out["nvme.roundtrip_ns"], _, err = l.rung("nvme.roundtrip", len(l.puts)+len(l.gets), func() error {
		var id uint16
		for _, s := range [][]op{l.puts, l.gets} {
			for _, o := range s {
				id++
				if err := one(o, id); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return err
}

func (l *ladder) cache() error {
	cc := l.cfg.Cache
	if cc.ValueBytes == 0 {
		cc = bandslim.ServingCacheConfig()
	}
	c := cache.NewValues(cc.ValueBytes, cache.NewPolicy(cc.Policy))
	var key [8]byte
	var val []byte
	var err error
	l.out["cache.put_ns"], _, err = l.rung("cache.put", len(l.puts), func() error {
		for _, o := range l.puts {
			val = fillValue(val, o.key, o.ver, int(o.size))
			c.Put(putKey(key[:], o.key), val)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var hits []uint64
	for _, o := range l.gets {
		if _, ok := c.Get(putKey(key[:], o.key)); ok {
			hits = append(hits, o.key)
		}
	}
	_, m0 := allocated()
	l.out["cache.get_hit_ns"], _, err = l.rung("cache.get_hit", len(hits), func() error {
		for _, k := range hits {
			if _, ok := c.Get(putKey(key[:], k)); !ok {
				return fmt.Errorf("resident key %x missed", k)
			}
		}
		return nil
	})
	_, m1 := allocated()
	l.out["cache.hit_allocs"] = ratio(float64(m1-m0), float64(len(hits)))
	return err
}

// target is what a miniature run drives: Stack.Drv directly, a DB, or a
// ShardedDB.
type target interface {
	Put(key, value []byte) error
	Get(key, dst []byte) ([]byte, error)
	Flush() error
}

type drvTarget struct{ st *shard.Stack }

func (t drvTarget) Put(k, v []byte) error           { return t.st.Drv.Put(k, v) }
func (t drvTarget) Get(k, _ []byte) ([]byte, error) { return t.st.Drv.Get(k) }
func (t drvTarget) Flush() error                    { return t.st.Drv.Flush() }

type kvTarget struct{ kv kv }

func (t kvTarget) Put(k, v []byte) error             { return t.kv.Put(k, v) }
func (t kvTarget) Get(k, dst []byte) ([]byte, error) { return t.kv.GetInto(k, dst) }
func (t kvTarget) Flush() error                      { return t.kv.Flush() }

// miniResult is the host time one miniature run spent per op class. Put
// covers set-up and stream Puts; stream* cover the measured streams only.
type miniResult struct {
	mu                       sync.Mutex
	putNs, puts, getNs, gets int64
	streamBusy               time.Duration // summed over callers
	streamWall               time.Duration
	streamOps                int64
}

func (m *miniResult) putNsPerOp() float64 { return ratio(float64(m.putNs), float64(m.puts)) }
func (m *miniResult) getNsPerOp() float64 { return ratio(float64(m.getNs), float64(m.gets)) }
func (m *miniResult) perOp() float64      { return ratio(float64(m.streamBusy), float64(m.streamOps)) }
func (m *miniResult) kops() float64 {
	return ratio(float64(m.streamOps), m.streamWall.Seconds()) / 1000
}

// miniCaller issues ops against one target; a chained timestamp charges every
// call to its class.
type miniCaller struct {
	t        target
	res      *miniResult
	key      [8]byte
	val, dst []byte
}

func (c *miniCaller) drive(ops []op, stream bool) error {
	var putNs, puts, getNs, gets int64
	begin := time.Now()
	prev := begin
	for i := range ops {
		o := &ops[i]
		k := putKey(c.key[:], o.key)
		if o.kind == opPut {
			c.val = fillValue(c.val, o.key, o.ver, int(o.size))
			if err := c.t.Put(k, c.val); err != nil {
				return err
			}
			now := time.Now()
			putNs, puts, prev = putNs+int64(now.Sub(prev)), puts+1, now
			continue
		}
		v, err := c.t.Get(k, c.dst)
		if (err == nil) != (o.kind == opGet) {
			return fmt.Errorf("key %x kind %d: %v", o.key, o.kind, err)
		}
		if err == nil {
			c.dst = v[:0]
		}
		now := time.Now()
		getNs, gets, prev = getNs+int64(now.Sub(prev)), gets+1, now
	}
	r := c.res
	r.mu.Lock()
	r.putNs, r.puts, r.getNs, r.gets = r.putNs+putNs, r.puts+puts, r.getNs+getNs, r.gets+gets
	if stream {
		r.streamBusy += time.Since(begin)
		r.streamOps += int64(len(ops))
	}
	r.mu.Unlock()
	return nil
}

// lockstepChunk is how many ops one target runs before the next takes over.
const lockstepChunk = 512

// miniLockstep loads the miniature instance into every target and issues its
// streams from one goroutine, alternating between the targets every
// lockstepChunk ops, so that the box's speed drift and the GC hit all of them
// alike and differences between targets are differences between the code.
func (l *ladder) miniLockstep(name string, ts ...target) ([]*miniResult, error) {
	res := make([]*miniResult, len(ts))
	cs := make([]*miniCaller, len(ts))
	for i, t := range ts {
		res[i] = &miniResult{}
		cs[i] = &miniCaller{t: t, res: res[i]}
	}
	all := func(ops []op, stream bool) error {
		for len(ops) > 0 {
			n := len(ops)
			if n > lockstepChunk {
				n = lockstepChunk
			}
			for _, c := range cs {
				if err := c.drive(ops[:n], stream); err != nil {
					return err
				}
			}
			ops = ops[n:]
		}
		return nil
	}
	_, _, err := l.rung(name, len(ts)*(len(l.puts)+len(l.gets)), func() error {
		for _, s := range l.mi.load {
			if err := all(s, false); err != nil {
				return err
			}
		}
		for _, t := range ts {
			if err := t.Flush(); err != nil {
				return err
			}
		}
		for _, s := range l.mi.callers {
			if err := all(s, true); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// miniConcurrent loads the miniature instance into t and issues its streams
// from one goroutine each.
func (l *ladder) miniConcurrent(name string, t target) (*miniResult, error) {
	res := &miniResult{}
	_, _, err := l.rung(name, len(l.puts)+len(l.gets), func() error {
		for _, s := range l.mi.load {
			if err := (&miniCaller{t: t, res: res}).drive(s, false); err != nil {
				return err
			}
		}
		if err := t.Flush(); err != nil {
			return err
		}
		errs := make([]error, len(l.mi.callers))
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, s := range l.mi.callers {
			wg.Add(1)
			go func(i int, s []op) {
				defer wg.Done()
				errs[i] = (&miniCaller{t: t, res: res}).drive(s, true)
			}(i, s)
		}
		wg.Wait()
		res.streamWall = time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// stackOptions mirrors what bandslim.Open derives from a Config.
func (l *ladder) stackOptions() shard.Options {
	d := l.dev
	d.NANDEnabled = true
	return shard.Options{Device: d, Method: l.cfg.Method, Thresholds: l.cfg.Thresholds, Submission: l.cfg.Submission}
}

// stacks runs the miniature instance on Stack.Drv, a DB and a one-shard
// ShardedDB in lockstep and reports each front-end's cost as the difference
// to the driver on the same calls; then on ShardedDB with concurrent callers.
func (l *ladder) stacks() error {
	st, err := shard.NewStack(l.stackOptions())
	if err != nil {
		return err
	}
	var opened []*stack
	defer func() {
		for _, s := range opened {
			s.close()
		}
	}()
	front := func(kind stackKind, nshards int) (target, error) {
		s, err := open(kind, l.cfg, nshards, 0, nil)
		if err != nil {
			return nil, err
		}
		opened = append(opened, s)
		return kvTarget{s.kv}, nil
	}
	db, err := front(stackDB, 1)
	if err != nil {
		return err
	}
	one, err := front(stackSharded, 1)
	if err != nil {
		return err
	}
	res, err := l.miniLockstep("driver+db+shard.1x1caller", drvTarget{st}, db, one)
	if err != nil {
		return err
	}
	drv := res[0]
	l.out["driver.put_ns"], l.out["driver.get_ns"] = drv.putNsPerOp(), drv.getNsPerOp()
	l.out["db.put_overhead_ns"] = res[1].putNsPerOp() - drv.putNsPerOp()
	l.out["db.get_overhead_ns"] = res[1].getNsPerOp() - drv.getNsPerOp()
	l.out["shard.handoff_ns"] = res[2].perOp() - drv.perOp()

	oneT, err := front(stackSharded, 1)
	if err != nil {
		return err
	}
	oneC, err := l.miniConcurrent("shard.1x2callers", oneT)
	if err != nil {
		return err
	}
	l.out["shard.contended_handoff_ns"] = oneC.perOp() - drv.perOp()
	fourT, err := front(stackSharded, shards)
	if err != nil {
		return err
	}
	four, err := l.miniConcurrent("shard.4x2callers", fourT)
	if err != nil {
		return err
	}
	l.out["shard.scaling_4_over_1"] = ratio(four.kops(), oneC.kops())
	return nil
}

func (l *ladder) resp() error {
	var stream []op
	for _, s := range l.mi.callers {
		stream = append(stream, s...)
	}
	var wire bytes.Buffer
	enc := resp.NewWriter(&wire)
	var key [8]byte
	var val []byte
	for _, o := range stream {
		if o.kind == opPut {
			val = fillValue(val, o.key, o.ver, int(o.size))
			enc.Command(respSet, putKey(key[:], o.key), val)
		} else {
			enc.Command(respGet, putKey(key[:], o.key))
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	_, m0 := allocated()
	var err error
	l.out["resp.parse_ns_per_cmd"], _, err = l.rung("resp.parse", len(stream), func() error {
		r := resp.NewReader(bytes.NewReader(wire.Bytes()))
		for range stream {
			if _, err := r.ReadCommand(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	val = fillValue(val, 1, 0, int(l.puts[0].size))
	l.out["resp.reply_ns"], _, err = l.rung("resp.reply", len(stream), func() error {
		w := resp.NewWriter(io.Discard)
		for i, o := range stream {
			switch o.kind {
			case opPut:
				w.Simple("OK")
			case opGet:
				w.Bulk(val)
			default:
				w.Null()
			}
			if i%pipelineDepth == pipelineDepth-1 {
				if err := w.Flush(); err != nil {
					return err
				}
			}
		}
		return w.Flush()
	})
	_, m1 := allocated()
	l.out["resp.allocs_per_cmd"] = float64(m1-m0) / float64(len(stream))
	return err
}

// direct issues the streams the way the server's writer does — bursts of
// pipelineDepth, runs of SETs as one PutBatch, runs of GETs as one
// GetBatchSparse — straight into the ShardedDB, with no socket or codec.
func direct(db kv, ops []op) error {
	keyBuf := make([]byte, pipelineDepth*8)
	keys, vals := make([][]byte, 0, pipelineDepth), make([][]byte, 0, pipelineDepth)
	sets := make([][]byte, pipelineDepth)
	gets := make([][]byte, pipelineDepth)
	miss := make([]bool, pipelineDepth)
	for len(ops) > 0 {
		n := len(ops)
		if n > pipelineDepth {
			n = pipelineDepth
		}
		for i := 0; i < n; {
			put := ops[i].kind == opPut
			keys, vals = keys[:0], vals[:0]
			j := i
			for ; j < n && (ops[j].kind == opPut) == put; j++ {
				keys = append(keys, putKey(keyBuf[j*8:j*8+8], ops[j].key))
				if put {
					sets[j] = fillValue(sets[j], ops[j].key, ops[j].ver, int(ops[j].size))
					vals = append(vals, sets[j])
				}
			}
			if put {
				if err := db.PutBatch(keys, vals); err != nil {
					return err
				}
			} else if _, err := db.GetBatchSparse(keys, gets[:len(keys)], miss[:len(keys)]); err != nil {
				return err
			}
			i = j
		}
		ops = ops[n:]
	}
	return nil
}

func (l *ladder) server() error {
	served := func(name string, in *instance) (float64, error) {
		st, err := open(stackServed, l.cfg, shards, len(in.callers), nil)
		if err != nil {
			return 0, err
		}
		var kops float64
		_, _, err = l.rung(name, in.ops(), func() error {
			if err := st.load(in); err != nil {
				return err
			}
			res, err := runPass(l.w, in, st, nil, nil, 0)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%d commands failed", res.failed)
			}
			kops = float64(res.ops) / res.wall.Seconds() / 1000
			return nil
		})
		if cerr := st.close(); err == nil {
			err = cerr
		}
		return kops, err
	}
	two, err := served("server.served_2conns", l.mi)
	if err != nil {
		return err
	}
	single := &instance{load: [][]op{nil}, callers: [][]op{nil}}
	for i := range l.mi.callers {
		single.load[0] = append(single.load[0], l.mi.load[i]...)
		single.callers[0] = append(single.callers[0], l.mi.callers[i]...)
	}
	one, err := served("server.served_1conn", single)
	if err != nil {
		return err
	}
	st, err := open(stackSharded, l.cfg, shards, 0, nil)
	if err != nil {
		return err
	}
	var wall time.Duration
	_, _, err = l.rung("server.direct", l.mi.ops(), func() error {
		if err := st.load(l.mi); err != nil {
			return err
		}
		errs := make([]error, len(l.mi.callers))
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, s := range l.mi.callers {
			wg.Add(1)
			go func(i int, s []op) { defer wg.Done(); errs[i] = direct(st.kv, s) }(i, s)
		}
		wg.Wait()
		wall = time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	directKops := float64(l.mi.ops()) / wall.Seconds() / 1000
	l.out["server.direct_kops"] = directKops
	l.out["server.overhead_us_per_op"] = 1000/two - 1000/directKops
	l.out["server.conn_scaling_2_over_1"] = ratio(two, one)
	return nil
}
