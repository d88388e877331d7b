package lsm

import (
	"bytes"
	"encoding/binary"
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

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MemTableEntries < 1 || c.L0CompactionTrigger < 2 ||
		c.LevelTableBase < 1 || c.MaxLevels < 2 || c.TablePages < 1 {
		return fmt.Errorf("lsm: invalid config %+v", c)
	}
	return nil
}

// Stats tallies tree activity.
type Stats struct {
	Compactions  metrics.Counter // L0 merges and level pushes, trivial moves included
	PagesWritten metrics.Counter // meta pages of every table written: WAF's index term
	TrivialMoves metrics.Counter // level pushes that re-linked the victim instead of merging it
}

// Tree is the LSM index. Values never live here — only (addr, size) pairs
// pointing into the vLog, so compaction rewrites the index, not the data.
type Tree struct {
	cfg    Config
	store  PageStore
	alloc  *pageAllocator
	mem    *MemTable
	levels [][]*SSTable // levels[0]: newest first; deeper: sorted by smallest
	// pointer[lvl] is the largest key of the table lvl last pushed down (nil:
	// none yet): the next push takes the first table past it, so a level is
	// evicted round-robin over the key space instead of from its low end.
	pointer [][]byte
	stats   Stats
	// pushLevel is compactLevel; the policy tests swap in a lowest-table-first
	// push to measure it against.
	pushLevel func(tr *Tree, t sim.Time, lvl int) (sim.Time, error)
	// build is the staging area every tableBuilder fills; slab holds the
	// input page images of the merge in progress (grown to the largest merge
	// seen, never past it).
	build tableScratch
	slab  []byte
	// reclaims counts the commits that freed pages. An open Iterator holds
	// page numbers of the tables it was built over; once any page has been
	// freed those numbers may name recycled pages, so an iterator older than
	// the latest reclaim must not load another page.
	reclaims uint64

	// Crash-atomicity state. The catalog (levels + compaction pointers +
	// allocator) is snapshotted at the end of every successful Flush;
	// Restore rolls back to that snapshot after a power cut, and a Flush that
	// fails without one rolls itself back the same way. Pages vacated by
	// compaction are only trimmed at commit (pendingFree), so the committed
	// catalog's tables are always intact on flash.
	pendingFree []int
	committed   catalog
	onDurable   func()
}

// catalog is the durable view of the tree: everything needed to rebuild it
// at mount, as firmware would persist in a superblock.
type catalog struct {
	levels  [][]*SSTable // SSTables are immutable; sharing pointers is safe
	pointer [][]byte     // keys are immutable too
	alloc   allocState
}

// snapshotCatalog deep-copies the level structure (table pointers shared).
func (tr *Tree) snapshotCatalog() catalog {
	return catalog{
		levels:  copyLevels(tr.levels),
		pointer: slices.Clone(tr.pointer),
		alloc:   tr.alloc.snapshot(),
	}
}

func copyLevels(levels [][]*SSTable) [][]*SSTable {
	out := make([][]*SSTable, len(levels))
	for i, lvl := range levels {
		out[i] = slices.Clone(lvl)
	}
	return out
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
	tr.committed = tr.snapshotCatalog()
	if tr.onDurable != nil {
		tr.onDurable()
	}
}

// SetOnDurable registers a hook invoked every time the tree reaches a new
// durable point (end of a successful Flush). The device uses it to clear its
// battery-backed index journal.
func (tr *Tree) SetOnDurable(fn func()) { tr.onDurable = fn }

// Restore rolls the tree back to its last committed catalog: the MemTable
// empties, partially flushed tables vanish, and deferred frees are dropped
// (their pages were never trimmed, so the committed tables remain intact).
// The device mount calls this before replaying its journal.
func (tr *Tree) Restore() {
	tr.rollback()
	tr.mem = NewMemTable()
}

// rollback returns everything but the MemTable to the committed catalog.
// Restoring the allocator is what hands back the pages written since: they
// are in no catalog, and their numbers are rewritten before they are read.
func (tr *Tree) rollback() {
	tr.levels = copyLevels(tr.committed.levels)
	tr.pointer = append(tr.pointer[:0], tr.committed.pointer...)
	tr.alloc.restore(tr.committed.alloc)
	tr.pendingFree = tr.pendingFree[:0]
}

// NewTree builds an empty tree over the store.
func NewTree(cfg Config, store PageStore) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store.PageSize() > math.MaxUint16+1 {
		return nil, fmt.Errorf("lsm: page size %d beyond the %d a restart offset can address", store.PageSize(), math.MaxUint16+1)
	}
	tr := &Tree{
		cfg:     cfg,
		store:   store,
		alloc:   newPageAllocator(store.Pages()),
		mem:     NewMemTable(),
		levels:  make([][]*SSTable, cfg.MaxLevels),
		pointer: make([][]byte, cfg.MaxLevels),

		pushLevel: (*Tree).compactLevel,
		build:     tableScratch{page: make([]byte, store.PageSize())},
	}
	tr.committed = tr.snapshotCatalog()
	return tr, nil
}

// Stats exposes the tree's tallies.
func (tr *Tree) Stats() *Stats { return &tr.stats }

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
		tr.rollback()
		return end, err
	}
	tr.mem = NewMemTable()
	tr.commit()
	return end, nil
}

func (tr *Tree) flush(t sim.Time) (sim.Time, error) {
	b := newTableBuilder(tr.store, tr.alloc, &tr.build)
	it := tr.mem.Iterator()
	for it.Next() {
		if err := b.add(t, it.Entry()); err != nil {
			return t, err
		}
	}
	table, end, err := b.finish(t)
	if err != nil {
		return t, err
	}
	if table != nil {
		tr.levels[0] = append([]*SSTable{table}, tr.levels[0]...)
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
// present tombstone means "deleted".
func (tr *Tree) Get(t sim.Time, key []byte) (Entry, bool, sim.Time, error) {
	if e, ok := tr.mem.Get(key); ok {
		return e, true, t, nil
	}
	end := t
	for _, table := range tr.levels[0] {
		if !table.overlaps(key, key) {
			continue
		}
		e, ok, rEnd, err := tr.searchTable(t, table, key)
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
		table := tr.findInLevel(lvl, key)
		if table == nil {
			continue
		}
		e, ok, rEnd, err := tr.searchTable(t, table, key)
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
// covering key.
func (tr *Tree) findInLevel(lvl int, key []byte) *SSTable {
	tables := tr.levels[lvl]
	i := sort.Search(len(tables), func(i int) bool {
		return bytes.Compare(tables[i].largest, key) >= 0
	})
	if i < len(tables) && bytes.Compare(tables[i].smallest, key) <= 0 {
		return tables[i]
	}
	return nil
}

// searchTable reads the one candidate page and searches it, in place, for the
// key: a binary search over the page's restart points, then a short walk.
func (tr *Tree) searchTable(t sim.Time, table *SSTable, key []byte) (Entry, bool, sim.Time, error) {
	pi := table.pageForKey(key)
	if pi < 0 {
		return Entry{}, false, t, nil
	}
	data, end, err := tr.store.ReadPage(t, table.pages[pi])
	if err != nil {
		return Entry{}, false, t, err
	}
	e, ok, err := searchPage(data, key, table.pageRestarts(pi))
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
	inputs := append([]*SSTable(nil), tr.levels[0]...)
	lo, hi := keyRange(inputs)
	over, rest := splitOverlap(tr.levels[1], lo, hi)
	inputs = append(inputs, over...)
	out, end, err := tr.merge(t, inputs, 1 == len(tr.levels)-1)
	if err != nil {
		return t, err
	}
	tr.levels[0] = nil
	tr.levels[1] = insertSorted(rest, out)
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
	level := tr.levels[lvl]
	vi := 0
	if after := tr.pointer[lvl]; after != nil {
		vi = sort.Search(len(level), func(i int) bool {
			return bytes.Compare(level[i].smallest, after) > 0
		}) % len(level)
	}
	victim := level[vi]
	over, rest := splitOverlap(tr.levels[lvl+1], victim.smallest, victim.largest)
	out, end := []*SSTable{victim}, t
	if len(over) == 0 {
		tr.stats.TrivialMoves.Inc()
	} else {
		inputs := append([]*SSTable{victim}, over...)
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
	tr.levels[lvl+1] = insertSorted(rest, out)
	tr.pointer[lvl] = victim.largest
	return end, nil
}

// mergeRun is one sorted input of a merge: the page images of one or more
// input tables, walked entry by entry.
type mergeRun struct {
	pages []byte // images not yet opened, PageSize each
	cur   pageCursor
	e     Entry  // head entry; its Key is a view into the slab
	head  uint64 // keyPrefix(e.Key)
	ok    bool   // false once the run is exhausted
}

// keyPrefix packs the first eight bytes of a key, zero-padded, so that two
// keys whose prefixes differ order the way the prefixes do; equal prefixes
// decide nothing. The merge compares heads several times per entry, and this
// turns all but the ties into integer compares.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// before reports whether r's head key sorts before o's.
func (r *mergeRun) before(o *mergeRun) bool {
	if r.head != o.head {
		return r.head < o.head
	}
	return bytes.Compare(r.e.Key, o.e.Key) < 0
}

// advance moves the run's head to its next entry.
func (r *mergeRun) advance(pageSize int) error {
	for {
		ok, err := r.cur.next(&r.e)
		if ok || err != nil {
			r.head, r.ok = keyPrefix(r.e.Key), ok
			return err
		}
		if len(r.pages) == 0 {
			r.ok = false
			return nil
		}
		r.cur = pageCursor{data: r.pages[:pageSize]}
		r.pages = r.pages[pageSize:]
	}
}

// merge performs a k-way merge of the inputs (ordered newest-first for
// duplicate resolution) into size-capped output tables. Tombstones are
// dropped when merging into the bottom level.
//
// It runs in two phases, and the split is what the device sees. First every
// page of every input is read, in input order and all at time t (reads
// charged to the request that triggered the compaction, as synchronous
// firmware does), and copied into the slab: the outputs' writes can make FTL
// GC move an input page, which kills the store's view of it. Only then are
// entries merged, straight from the slab into the table builder.
func (tr *Tree) merge(t sim.Time, inputs []*SSTable, bottom bool) ([]*SSTable, sim.Time, error) {
	end := t
	ps := tr.store.PageSize()
	need := 0
	for _, table := range inputs {
		need += len(table.pages) * ps
	}
	if cap(tr.slab) < need {
		tr.slab = make([]byte, need)
	}
	slab := tr.slab[:need]
	// Consecutive inputs whose key ranges ascend without overlap (the tables
	// taken from one level >= 1) chain into a single run, which keeps the
	// pick below at L0CompactionTrigger+1 candidates however wide the overlap.
	// A run spans whole inputs, so run order is still newest-first.
	runs := make([]mergeRun, 0, len(inputs))
	off := 0
	for i, table := range inputs {
		lo := off
		for _, pg := range table.pages {
			data, e, err := tr.store.ReadPage(t, pg)
			if err != nil {
				return nil, end, err
			}
			if e > end {
				end = e
			}
			n := copy(slab[off:off+ps], data)
			clear(slab[off+n : off+ps])
			off += ps
		}
		if i > 0 && bytes.Compare(inputs[i-1].largest, table.smallest) < 0 {
			last := &runs[len(runs)-1]
			last.pages = last.pages[:len(last.pages)+off-lo]
		} else {
			runs = append(runs, mergeRun{pages: slab[lo:off]})
		}
	}
	for i := range runs {
		if err := runs[i].advance(ps); err != nil {
			return nil, end, err
		}
	}
	var out []*SSTable
	var builder *tableBuilder
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
	for {
		// Pick the smallest key; ties resolved by run order (newest first).
		best := -1
		for i := range runs {
			if runs[i].ok && (best < 0 || runs[i].before(&runs[best])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e, head := runs[best].e, runs[best].head
		// Step every run past this key: the winner, and its older duplicates.
		for i := range runs {
			for runs[i].ok && runs[i].head == head && bytes.Equal(runs[i].e.Key, e.Key) {
				if err := runs[i].advance(ps); err != nil {
					return nil, end, err
				}
			}
		}
		if e.Tombstone && bottom {
			continue
		}
		if builder == nil {
			builder = newTableBuilder(tr.store, tr.alloc, &tr.build)
		}
		if err := builder.add(t, e); err != nil {
			return nil, end, err
		}
		if len(builder.table.pages) >= tr.cfg.TablePages {
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
	return out, end, nil
}

// freeTables schedules every input table's pages for release. The frees are
// deferred to the next catalog commit: until then the pages stay allocated
// and untrimmed, so a crash between compaction and commit can roll back to
// the previous catalog with all its tables readable.
func (tr *Tree) freeTables(tables []*SSTable) {
	for _, table := range tables {
		tr.pendingFree = append(tr.pendingFree, table.pages...)
	}
}

// keyRange reports the smallest and largest keys across tables.
func keyRange(tables []*SSTable) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.smallest, lo) < 0 {
			lo = t.smallest
		}
		if hi == nil || bytes.Compare(t.largest, hi) > 0 {
			hi = t.largest
		}
	}
	return lo, hi
}

// splitOverlap partitions a sorted level into tables overlapping [lo,hi] and
// the rest.
func splitOverlap(tables []*SSTable, lo, hi []byte) (over, rest []*SSTable) {
	for _, t := range tables {
		if lo != nil && t.overlaps(lo, hi) {
			over = append(over, t)
		} else {
			rest = append(rest, t)
		}
	}
	return over, rest
}

// insertSorted merges new tables into a level, keeping it sorted by smallest
// key. Levels ≥1 are non-overlapping by construction.
func insertSorted(level, add []*SSTable) []*SSTable {
	out := append(append([]*SSTable(nil), level...), add...)
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].smallest, out[j].smallest) < 0
	})
	return out
}
