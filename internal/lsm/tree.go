package lsm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bandslim/internal/metrics"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// Config tunes the tree.
type Config struct {
	// MemTableEntries triggers a flush when the MemTable reaches this many
	// entries.
	MemTableEntries int
	// L0CompactionTrigger compacts L0 into L1 when L0 accumulates this many
	// tables.
	L0CompactionTrigger int
	// LevelTableBase caps L1 at this many tables; each deeper level holds
	// 10x more.
	LevelTableBase int
	// MaxLevels bounds the tree depth (L0..L{MaxLevels-1}).
	MaxLevels int
	// TablePages caps the size of one output SSTable during compaction.
	TablePages int
}

// DefaultConfig returns the tuning used by the benchmarks.
func DefaultConfig() Config {
	return Config{
		MemTableEntries:     4096,
		L0CompactionTrigger: 4,
		LevelTableBase:      8,
		MaxLevels:           4,
		TablePages:          8,
	}
}

// MaxMemTableEntries bounds Config.MemTableEntries. A full MemTable flushes
// as one table, whose restart index holds at most math.MaxUint16 restarts,
// one per restartInterval entries (about 1.04 M entries); and NewTree sizes
// the MemTable's arrays from the setting, so it must be one a host can hold.
const MaxMemTableEntries = 1 << 19

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MemTableEntries < 1 || c.L0CompactionTrigger < 2 ||
		c.LevelTableBase < 1 || c.MaxLevels < 2 || c.TablePages < 1 {
		return fmt.Errorf("lsm: invalid config %+v", c)
	}
	if c.MemTableEntries > MaxMemTableEntries {
		return fmt.Errorf("lsm: MemTableEntries %d above the maximum %d", c.MemTableEntries, MaxMemTableEntries)
	}
	return nil
}

// Stats tallies tree activity.
type Stats struct {
	Compactions  metrics.Counter // L0 merges and level pushes, trivial moves included
	PagesWritten metrics.Counter // meta pages of every table written: WAF's index term
	TrivialMoves metrics.Counter // level pushes that re-linked the victim instead of merging it
	// FilterSkips counts the tables a Get's filter probe ruled out, each a
	// page read not made; FilterFalsePositives the probes that passed on a
	// table whose page then did not hold the key.
	FilterSkips          metrics.Counter
	FilterFalsePositives metrics.Counter
}

// Tree is the LSM index. Values never live here — only (addr, size) pairs
// pointing into the vLog, so compaction rewrites the index, not the data.
type Tree struct {
	cfg    Config
	store  PageStore
	alloc  *pageAllocator
	mem    *MemTable
	levels [][]*SSTable // levels[0]: newest first; deeper: sorted by smallest
	// pointer[lvl] is the largest key of the table lvl last pushed down (the
	// zero Key, which sorts before every key: none yet): the next push takes
	// the first table past it, so a level is evicted round-robin over the key
	// space instead of from its low end.
	pointer []sim.Key
	stats   Stats
	// pushLevel is compactLevel; the policy tests swap in a lowest-table-first
	// push to measure it against.
	pushLevel func(tr *Tree, t sim.Time, lvl int) (sim.Time, error)
	// build builds every table the tree writes; views holds the store's views
	// of the input pages of the merge in progress, in input order.
	build tableBuilder
	views [][]byte
	// runs and heads are the merge's inputs and their head keys, kept from
	// one merge to the next like views; inputs is a compaction's input tables
	// and out a merge's output tables, kept the same way.
	runs   []mergeRun
	heads  []sim.Key
	inputs []*SSTable
	out    []*SSTable
	// reclaims counts the commits that freed pages. An open Iterator holds
	// page numbers of the tables it was built over; once any page has been
	// freed those numbers may name recycled pages, so an iterator older than
	// the latest reclaim must not load another page.
	reclaims uint64

	// Crash-atomicity state. The catalog (levels + compaction pointers +
	// allocator) is copied into committed at the end of every successful
	// Flush; Restore rolls back to that copy, after a power cut or when a
	// Flush fails. Both copies are refilled in the storage they already
	// have. Pages vacated by compaction
	// are only trimmed at commit (pendingFree), so the committed catalog's
	// tables are always intact on flash; their handles, filters included, join
	// the builder's free list then too (pendingTables), so a table of the
	// committed catalog is never handed out again while it can be restored.
	pendingFree   []int
	pendingTables []*SSTable
	committed     catalog
}

// catalog is the durable view of the tree: everything needed to rebuild it
// at mount, as firmware would persist in a superblock.
type catalog struct {
	levels  [][]*SSTable // a table is immutable until commit frees it; sharing pointers is safe
	pointer []sim.Key
	alloc   allocState
}

// save copies the tree's catalog into c, table pointers shared.
func (c *catalog) save(tr *Tree) {
	for i, level := range tr.levels {
		c.levels[i] = append(c.levels[i][:0], level...)
	}
	c.pointer = append(c.pointer[:0], tr.pointer...)
	c.alloc.save(tr.alloc)
}

// commit applies the deferred page frees and snapshots the catalog. Called
// at the end of every successful Flush — the tree's durability point.
func (tr *Tree) commit() {
	if len(tr.pendingFree) > 0 {
		tr.reclaims++
	}
	for _, pg := range tr.pendingFree {
		tr.alloc.free(pg)
		// Trim failures only occur for out-of-range pages, which would be a
		// bug caught by the allocator; ignore defensively.
		_ = tr.store.TrimPage(pg)
	}
	tr.pendingFree = tr.pendingFree[:0]
	tr.build.free = append(tr.build.free, tr.pendingTables...)
	clear(tr.pendingTables)
	tr.pendingTables = tr.pendingTables[:0]
	clear(tr.build.handed)
	tr.build.handed = tr.build.handed[:0]
	tr.committed.save(tr)
}

// Unflushed calls fn with each MemTable entry in the order its key was first
// written, and stops at the first error fn returns. An entry's Key is a view
// into the MemTable, good until the next write.
func (tr *Tree) Unflushed(fn func(Entry) error) error {
	for i := range tr.mem.slab {
		if err := fn(tr.mem.entry(uint32(i))); err != nil {
			return err
		}
	}
	return nil
}

// Restore rolls the tree back to its last committed catalog, after a power
// cut or a failed Flush: partially flushed tables vanish and deferred frees
// are dropped (their pages were never trimmed, so the committed tables remain
// intact). The MemTable stays: it sits in battery-backed device DRAM, and
// with the committed catalog it is the whole index. Restoring the allocator
// is what hands back the pages written since: they are in no catalog, and
// their numbers are rewritten before they are read. The handles of the tables
// built since go back on the free list the same way: they are in no catalog
// either.
func (tr *Tree) Restore() {
	for i, level := range tr.committed.levels {
		clear(tr.levels[i])
		tr.levels[i] = append(tr.levels[i][:0], level...)
	}
	tr.pointer = append(tr.pointer[:0], tr.committed.pointer...)
	tr.alloc.restore(tr.committed.alloc)
	tr.pendingFree = tr.pendingFree[:0]
	clear(tr.pendingTables)
	tr.pendingTables = tr.pendingTables[:0]
	tr.build.free = append(tr.build.free, tr.build.handed...)
	clear(tr.build.handed)
	tr.build.handed = tr.build.handed[:0]
}

// NewTree builds an empty tree over the store.
func NewTree(cfg Config, store PageStore) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store.PageSize() > math.MaxUint16+1 {
		return nil, fmt.Errorf("lsm: page size %d beyond the %d a restart offset can address", store.PageSize(), math.MaxUint16+1)
	}
	alloc := newPageAllocator(store.Pages())
	tr := &Tree{
		cfg:     cfg,
		store:   store,
		alloc:   alloc,
		mem:     NewMemTable(cfg.MemTableEntries),
		levels:  make([][]*SSTable, cfg.MaxLevels),
		pointer: make([]sim.Key, cfg.MaxLevels),

		pushLevel: (*Tree).compactLevel,
		// Room for the hashes of a flush's table and of a merge's table of
		// 8-byte keys at the default geometry, so neither regrows them.
		build: tableBuilder{store: store, alloc: alloc, page: make([]byte, store.PageSize()), hashes: make([]uint64, 0, 2*cfg.MemTableEntries)},
		// Room for the input pages of an L0 merge that takes a full L1, or
		// of a level push that overlaps a fanout of tables, so that neither
		// regrows the list.
		views: make([][]byte, 0, (cfg.L0CompactionTrigger+cfg.LevelTableBase+levelFanout)*cfg.TablePages),
	}
	tr.committed = catalog{levels: make([][]*SSTable, cfg.MaxLevels)}
	tr.committed.save(tr)
	return tr, nil
}

// Stats exposes the tree's tallies.
func (tr *Tree) Stats() *Stats { return &tr.stats }

// FilterBytes reports the device DRAM the live tables' filters hold.
func (tr *Tree) FilterBytes() int64 {
	var words int
	for _, level := range tr.levels {
		for _, table := range level {
			words += len(table.filter)
		}
	}
	return int64(words) * 8
}

// Put records key → (addr, size). It may trigger a MemTable flush and
// cascading compactions, whose NAND time is charged to the returned
// completion time (firmware performs them synchronously).
func (tr *Tree) Put(t sim.Time, key []byte, addr vlog.Addr, size uint32) (sim.Time, error) {
	return tr.insert(t, key, addr, size, false)
}

// Delete records a tombstone for key.
func (tr *Tree) Delete(t sim.Time, key []byte) (sim.Time, error) {
	return tr.insert(t, key, 0, 0, true)
}

func (tr *Tree) insert(t sim.Time, key []byte, addr vlog.Addr, size uint32, tomb bool) (sim.Time, error) {
	if err := tr.mem.Put(key, addr, size, tomb); err != nil {
		return t, err
	}
	return tr.FlushIfFull(t)
}

// FlushIfFull flushes the MemTable once it holds MemTableEntries entries, as
// the write that fills it does.
func (tr *Tree) FlushIfFull(t sim.Time) (sim.Time, error) {
	if tr.mem.Len() < tr.cfg.MemTableEntries {
		return t, nil
	}
	return tr.Flush(t)
}

// Flush persists the MemTable as a new L0 table and runs any compactions it
// triggers. Flushing an empty MemTable is a no-op. A Flush that fails leaves
// nothing behind: the tree is the committed catalog plus the MemTable it had,
// so every key stays readable and the next Put tries again.
func (tr *Tree) Flush(t sim.Time) (sim.Time, error) {
	if tr.mem.Len() == 0 {
		return t, nil
	}
	end, err := tr.flush(t)
	if err != nil {
		tr.Restore()
		return end, err
	}
	tr.mem = tr.mem.recycle()
	tr.commit()
	return end, nil
}

func (tr *Tree) flush(t sim.Time) (sim.Time, error) {
	b := tr.build.start()
	it := tr.mem.Iterator()
	for it.Next() {
		if err := b.add(t, it.Entry(), it.key()); err != nil {
			return t, err
		}
	}
	table, end, err := b.finish(t)
	if err != nil {
		return t, err
	}
	if table != nil {
		tr.levels[0] = slices.Insert(tr.levels[0], 0, table)
		tr.wrote(table)
	}
	cEnd, err := tr.maybeCompact(t)
	if err != nil {
		return end, err
	}
	if cEnd > end {
		end = cEnd
	}
	return end, nil
}

// wrote tallies one finished table.
func (tr *Tree) wrote(table *SSTable) {
	tr.stats.PagesWritten.Add(int64(len(table.pages)))
}

// Get resolves a key to its vLog location, searching MemTable, then L0
// newest-first, then each deeper level. The boolean reports presence; a
// present tombstone means "deleted". An entry found in the MemTable has its
// Key in the MemTable's slab, which the next write may recycle; one found in a
// table has the caller's key. A table whose filter rules the key out costs no
// page read.
func (tr *Tree) Get(t sim.Time, key []byte) (Entry, bool, sim.Time, error) {
	k := sim.KeyOf(key)
	if e, ok := tr.mem.Get(k); ok {
		return e, true, t, nil
	}
	h := k.FilterHash()
	end := t
	for _, table := range tr.levels[0] {
		if !table.overlaps(k, k) {
			continue
		}
		e, ok, rEnd, err := tr.probeTable(t, table, key, k, h)
		if err != nil {
			return Entry{}, false, t, err
		}
		if rEnd > end {
			end = rEnd
		}
		if ok {
			return e, true, end, nil
		}
	}
	for lvl := 1; lvl < len(tr.levels); lvl++ {
		table := tr.findInLevel(lvl, k)
		if table == nil {
			continue
		}
		e, ok, rEnd, err := tr.probeTable(t, table, key, k, h)
		if err != nil {
			return Entry{}, false, t, err
		}
		if rEnd > end {
			end = rEnd
		}
		if ok {
			return e, true, end, nil
		}
	}
	return Entry{}, false, end, nil
}

// findInLevel binary-searches a sorted (non-overlapping) level for the table
// covering k.
func (tr *Tree) findInLevel(lvl int, k sim.Key) *SSTable {
	tables := tr.levels[lvl]
	i := sort.Search(len(tables), func(i int) bool { return !tables[i].largest.Less(k) })
	if i < len(tables) && !k.Less(tables[i].smallest) {
		return tables[i]
	}
	return nil
}

// probeTable searches a table for key, whose inline form is k and filter hash
// h, unless the table's filter rules it out. The probe itself costs no
// simulated time, as the fence keys and restart offsets beside it do not.
func (tr *Tree) probeTable(t sim.Time, table *SSTable, key []byte, k sim.Key, h uint64) (Entry, bool, sim.Time, error) {
	if !table.filter.Has(h) {
		tr.stats.FilterSkips.Inc()
		return Entry{}, false, t, nil
	}
	e, ok, end, err := tr.searchTable(t, table, k)
	switch {
	case ok:
		e.Key = key
	case err == nil:
		tr.stats.FilterFalsePositives.Inc()
	}
	return e, ok, end, err
}

// searchTable reads the one candidate page and searches it, in place, for k:
// a binary search over the page's restart points, then a short walk.
func (tr *Tree) searchTable(t sim.Time, table *SSTable, k sim.Key) (Entry, bool, sim.Time, error) {
	pi := table.pageForKey(k)
	if pi < 0 {
		return Entry{}, false, t, nil
	}
	data, end, err := tr.store.ReadPage(t, table.pages[pi])
	if err != nil {
		return Entry{}, false, t, err
	}
	e, ok, err := searchPage(data, k, table.pageRestarts(pi))
	if err != nil {
		return Entry{}, false, t, err
	}
	return e, ok, end, nil
}

func (tr *Tree) maxTables(lvl int) int {
	n := tr.cfg.LevelTableBase
	for i := 1; i < lvl; i++ {
		n *= levelFanout
	}
	return n
}

// maybeCompact runs L0→L1 compaction and cascades level overflows downward.
func (tr *Tree) maybeCompact(t sim.Time) (sim.Time, error) {
	end := t
	if len(tr.levels[0]) >= tr.cfg.L0CompactionTrigger {
		e, err := tr.compactL0(t)
		if err != nil {
			return end, err
		}
		if e > end {
			end = e
		}
	}
	for lvl := 1; lvl < len(tr.levels)-1; lvl++ {
		for len(tr.levels[lvl]) > tr.maxTables(lvl) {
			e, err := tr.pushLevel(tr, t, lvl)
			if err != nil {
				return end, err
			}
			if e > end {
				end = e
			}
		}
	}
	return end, nil
}

// compactL0 merges every L0 table with the overlapping span of L1.
func (tr *Tree) compactL0(t sim.Time) (sim.Time, error) {
	lo, hi := keyRange(tr.levels[0])
	i, j := overlapSpan(tr.levels[1], lo, hi)
	inputs := append(append(tr.inputs[:0], tr.levels[0]...), tr.levels[1][i:j]...)
	tr.inputs = inputs
	out, end, err := tr.merge(t, inputs, 1 == len(tr.levels)-1)
	if err != nil {
		return t, err
	}
	clear(tr.levels[0])
	tr.levels[0] = tr.levels[0][:0]
	tr.levels[1] = slices.Replace(tr.levels[1], i, j, out...)
	tr.freeTables(inputs)
	tr.stats.Compactions.Inc()
	return end, nil
}

// compactLevel pushes one table from lvl into lvl+1. The victim is the first
// table past the level's compaction pointer, wrapping to the lowest, so that
// successive pushes sweep the key space and the level keeps covering all of
// it; always taking the lowest table instead leaves the level holding only the
// largest keys seen, each table of which spans most of the level below. A
// victim that overlaps nothing below is re-linked as it is: no page is read,
// written or freed.
func (tr *Tree) compactLevel(t sim.Time, lvl int) (sim.Time, error) {
	level, after := tr.levels[lvl], tr.pointer[lvl]
	vi := sort.Search(len(level), func(i int) bool { return after.Less(level[i].smallest) }) % len(level)
	victim := level[vi]
	i, j := overlapSpan(tr.levels[lvl+1], victim.smallest, victim.largest)
	inputs := append(append(tr.inputs[:0], victim), tr.levels[lvl+1][i:j]...)
	tr.inputs = inputs
	out, end := inputs[:1], t
	if i == j {
		tr.stats.TrivialMoves.Inc()
	} else {
		var err error
		out, end, err = tr.merge(t, inputs, lvl+1 == len(tr.levels)-1)
		if err != nil {
			return t, err
		}
		tr.freeTables(inputs)
	}
	tr.stats.Compactions.Inc()
	// The victim leaves its level only now: a merge that failed left it there.
	tr.levels[lvl] = slices.Delete(level, vi, vi+1)
	tr.levels[lvl+1] = slices.Replace(tr.levels[lvl+1], i, j, out...)
	tr.pointer[lvl] = victim.largest
	return end, nil
}

// mergeRun is one sorted input of a merge: the views of the pages of one or
// more input tables, consecutive in the tree's views, and its head entry,
// parsed in place. The head's key is not here but in the tree's heads, at the
// run's index, so that the pick scans one flat slice of inline keys.
type mergeRun struct {
	page   []byte // the view of the head's page
	off, n int    // the head's offset in page and its encoded length
	tomb   bool   // the head is a tombstone
	next   int    // index in views of the run's next page
	stop   int    // index in views past the run's last page
}

// advance parses the entry at off, moving on to the run's next page of views
// where this one's entries end, into the run's head and *key. ok is false
// once the run is exhausted.
func (r *mergeRun) advance(views [][]byte, off int, key *sim.Key) (ok bool, err error) {
	for {
		if off < len(r.page) {
			kl, _, _, tomb, n, err := parseEntry(r.page[off:])
			if err == nil {
				*key = sim.KeyOf(r.page[off+1 : off+1+kl])
				r.off, r.n, r.tomb = off, n, tomb
				return true, nil
			}
			if err != errEndOfPage {
				return false, err
			}
		}
		if r.next == r.stop {
			return false, nil
		}
		r.page, off = views[r.next], 0
		r.next++
	}
}

// merge performs a k-way merge of the inputs (ordered newest-first for
// duplicate resolution) into size-capped output tables. Tombstones are
// dropped when merging into the bottom level.
//
// It runs in two phases, and the split is what the device sees. First every
// page of every input is read, in input order and all at time t (reads
// charged to the request that triggered the compaction, as synchronous
// firmware does), and the store's view of each is kept: the inputs are freed
// only at the next commit, and the outputs' writes, which can make FTL GC
// move an input page, leave its view as it was. Only then are entries
// merged, straight from the views into the table builder: each is parsed
// once, as it becomes its run's head, and its encoded bytes are copied once,
// into the output page.
func (tr *Tree) merge(t sim.Time, inputs []*SSTable, bottom bool) ([]*SSTable, sim.Time, error) {
	end := t
	// Consecutive inputs whose key ranges ascend without overlap (the tables
	// taken from one level >= 1) chain into a single run, which keeps the
	// pick below at L0CompactionTrigger+1 candidates however wide the overlap.
	// A run spans whole inputs, so run order is still newest-first.
	views, runs := tr.views[:0], tr.runs[:0]
	defer func() {
		clear(views)
		tr.views = views[:0]
	}()
	for i, table := range inputs {
		for _, pg := range table.pages {
			data, e, err := tr.store.ReadPage(t, pg)
			if err != nil {
				return nil, end, err
			}
			if e > end {
				end = e
			}
			views = append(views, data)
		}
		if i > 0 && inputs[i-1].largest.Less(table.smallest) {
			runs[len(runs)-1].stop = len(views)
		} else {
			// No page open yet: the first advance opens the one at next.
			runs = append(runs, mergeRun{next: len(views) - len(table.pages), stop: len(views)})
		}
	}
	heads := slices.Grow(tr.heads[:0], len(runs))[:len(runs)]
	tr.runs, tr.heads = runs, heads
	for i := 0; i < len(runs); {
		ok, err := runs[i].advance(views, 0, &heads[i])
		if err != nil {
			return nil, end, err
		}
		if ok {
			i++
		} else {
			runs, heads = slices.Delete(runs, i, i+1), slices.Delete(heads, i, i+1)
		}
	}
	// The output list is the tree's, good until the next merge.
	out := tr.out[:0]
	var builder *tableBuilder // the table open, if any
	finish := func() error {
		table, bEnd, err := builder.finish(t)
		builder = nil
		if err != nil {
			return err
		}
		if bEnd > end {
			end = bEnd
		}
		if table != nil {
			out = append(out, table)
			tr.wrote(table)
		}
		return nil
	}
	// prev is the key taken last; no entry's key is empty, so the zero Key
	// matches none.
	var prev sim.Key
	for len(runs) > 0 {
		// The smallest head wins, the newest run on a tie: an older
		// duplicate comes to the front only after the newest, and is
		// skipped then.
		best, key := 0, heads[0]
		for i := 1; i < len(heads); i++ {
			if heads[i].Less(key) {
				best, key = i, heads[i]
			}
		}
		r := &runs[best]
		page, at, n, tomb := r.page, r.off, r.n, r.tomb
		ok, err := r.advance(views, at+n, &heads[best])
		if err != nil {
			return nil, end, err
		}
		if !ok {
			runs, heads = slices.Delete(runs, best, best+1), slices.Delete(heads, best, best+1)
		}
		dup := key == prev
		prev = key
		if dup || tomb && bottom {
			continue
		}
		if builder == nil {
			builder = tr.build.start()
		}
		if err := builder.addEncoded(t, page[at:at+n], key); err != nil {
			return nil, end, err
		}
		if len(builder.pages) >= tr.cfg.TablePages {
			if err := finish(); err != nil {
				return nil, end, err
			}
		}
	}
	if builder != nil {
		if err := finish(); err != nil {
			return nil, end, err
		}
	}
	tr.out = out
	return out, end, nil
}

// freeTables schedules every input table's pages and handle for release. The
// frees are deferred to the next catalog commit: until then the pages stay
// allocated and untrimmed and the handles untouched, so a crash between
// compaction and commit can roll back to the previous catalog with all its
// tables readable.
func (tr *Tree) freeTables(tables []*SSTable) {
	for _, table := range tables {
		tr.pendingFree = append(tr.pendingFree, table.pages...)
	}
	tr.pendingTables = append(tr.pendingTables, tables...)
}

// keyRange reports the smallest and largest keys across tables.
func keyRange(tables []*SSTable) (lo, hi sim.Key) {
	for i, t := range tables {
		if i == 0 || t.smallest.Less(lo) {
			lo = t.smallest
		}
		if i == 0 || hi.Less(t.largest) {
			hi = t.largest
		}
	}
	return lo, hi
}

// overlapSpan returns the span [i, j) of a sorted, disjoint level (any level
// >= 1) whose tables overlap [lo, hi]: as the level's tables ascend in both
// bounds, the overlapping ones are consecutive. Every key of the tables a
// merge or a move puts in the span's place lies between the tables before i
// and those from j on, so replacing the span with them, in place, keeps the
// level sorted.
func overlapSpan(level []*SSTable, lo, hi sim.Key) (i, j int) {
	i = sort.Search(len(level), func(k int) bool { return !level[k].largest.Less(lo) })
	j = i + sort.Search(len(level)-i, func(k int) bool { return hi.Less(level[i+k].smallest) })
	return i, j
}
