package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// buildTables writes key-ordered entries into the tree's store as tables cut
// every tablePages pages (0: one table), the way a flush or a merge would.
func buildTables(tb testing.TB, tr *Tree, entries []Entry, tablePages int) []*SSTable {
	tb.Helper()
	var out []*SSTable
	var b *tableBuilder
	finish := func() {
		table, _, err := b.finish(0)
		if err != nil {
			tb.Fatal(err)
		}
		out, b = append(out, table), nil
	}
	for _, e := range entries {
		if b == nil {
			b = newTableBuilder(tr.store, tr.alloc, &tr.build)
		}
		if err := b.add(0, e); err != nil {
			tb.Fatal(err)
		}
		if tablePages > 0 && len(b.table.pages) >= tablePages {
			finish()
		}
	}
	if b != nil {
		finish()
	}
	return out
}

// storeOp is one call a tree made on its PageStore.
type storeOp struct {
	write bool
	page  int
	at    sim.Time
}

// hostileStore is a PageStore that records every call and honours the
// ReadPage contract to the letter and no further: the view it returns is one
// scratch page, overwritten by the next read and poisoned by the next write.
// A tree that keeps a view across a store call reads garbage here.
type hostileStore struct {
	*memStore
	ops     []storeOp
	scratch []byte
}

func newHostileStore(pages int) *hostileStore {
	return &hostileStore{memStore: newMemStore(pages)}
}

func (s *hostileStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	data, end, err := s.memStore.ReadPage(t, page)
	s.ops = append(s.ops, storeOp{page: page, at: t})
	s.scratch = append(s.scratch[:0], data...)
	return s.scratch, end, err
}

func (s *hostileStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	s.ops = append(s.ops, storeOp{write: true, page: page, at: t})
	for i := range s.scratch {
		s.scratch[i] = 0xDB
	}
	return s.memStore.WritePage(t, page, data)
}

// referenceMerge is the merge this package shipped before the cursor merge,
// kept as the oracle: it materialises every input table as []Entry with a
// heap-allocated key per entry, then does the same newest-input-wins linear
// pick into the same tableBuilder.
func referenceMerge(tr *Tree, t sim.Time, inputs []*SSTable, bottom bool) ([]*SSTable, sim.Time, error) {
	end := t
	runs := make([][]Entry, len(inputs))
	for i, table := range inputs {
		for _, pg := range table.pages {
			data, e, err := tr.store.ReadPage(t, pg)
			if err != nil {
				return nil, end, err
			}
			if e > end {
				end = e
			}
			for off := 0; off < len(data); {
				ent, n, err := decodeEntry(data[off:])
				if err == errEndOfPage {
					break
				}
				if err != nil {
					return nil, end, err
				}
				runs[i] = append(runs[i], ent)
				off += n
			}
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
	pos := make([]int, len(runs))
	for {
		best := -1
		for i := range runs {
			if pos[i] < len(runs[i]) && (best < 0 || bytes.Compare(runs[i][pos[i]].Key, runs[best][pos[best]].Key) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := runs[best][pos[best]]
		for i := range runs {
			for pos[i] < len(runs[i]) && bytes.Equal(runs[i][pos[i]].Key, e.Key) {
				pos[i]++
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

// mergeCase builds one randomized set of merge inputs on tr: some overlapping
// "L0" tables (random subsets of the key space, so duplicates across runs are
// the rule) followed by the tables of one sorted level (disjoint, ascending),
// with tombstones throughout and key lengths from 1 to MaxKeySize.
func mergeCase(tb testing.TB, tr *Tree, rng *rand.Rand, overlapping, level int) []*SSTable {
	tb.Helper()
	const space = 600
	keyOf := func(i int) []byte {
		k := []byte(fmt.Sprintf("%04d", i))
		// Same order, different lengths: pad some keys, so prefixes of eight
		// bytes and less both decide and tie.
		if pad := i % 5 * 3; pad > 0 {
			k = append(k, bytes.Repeat([]byte{'.'}, pad)...)
		}
		return k
	}
	var addr vlog.Addr
	pick := func(lo, hi int, share float64) []Entry {
		var es []Entry
		for i := lo; i < hi; i++ {
			if rng.Float64() < share {
				addr += 100
				es = append(es, Entry{Key: keyOf(i), Addr: addr, Size: uint32(rng.Intn(1 << 20)), Tombstone: rng.Intn(4) == 0})
			}
		}
		return es
	}
	var inputs []*SSTable
	for i := 0; i < overlapping; i++ {
		lo := rng.Intn(space / 2)
		if es := pick(lo, lo+space/2, 0.1+rng.Float64()*0.6); len(es) > 0 {
			inputs = append(inputs, buildTables(tb, tr, es, 0)...)
		}
	}
	if level > 0 {
		tables := buildTables(tb, tr, pick(0, space, 0.7), 1)
		if len(tables) > level {
			tables = tables[:level]
		}
		inputs = append(inputs, tables...)
	}
	return inputs
}

// Same device: a merge reads every page of every input, in input order and
// all at the merge's start time, before it writes anything — the order NAND
// way scheduling and fault plans are sensitive to.
func TestMergeReadsEverythingFirst(t *testing.T) {
	store := newHostileStore(4096)
	store.pageSize = 256
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	inputs := mergeCase(t, tr, rand.New(rand.NewSource(1)), 3, 6)
	var want []int
	for _, table := range inputs {
		want = append(want, table.pages...)
	}
	store.ops = nil
	const at = sim.Time(12345)
	out, _, err := tr.merge(at, inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.ops) <= len(want) {
		t.Fatalf("merge made %d store calls over %d input pages", len(store.ops), len(want))
	}
	for i, op := range store.ops {
		switch {
		case op.at != at:
			t.Fatalf("call %d issued at %v, want %v", i, op.at, at)
		case i < len(want) && (op.write || op.page != want[i]):
			t.Fatalf("call %d = %+v, want a read of page %d", i, op, want[i])
		case i >= len(want) && !op.write:
			t.Fatalf("call %d reads page %d after the first write", i, op.page)
		}
	}
	written := 0
	for _, table := range out {
		written += len(table.pages)
	}
	if written != len(store.ops)-len(want) {
		t.Fatalf("%d writes for %d output pages", len(store.ops)-len(want), written)
	}
}

// Same bytes: over random inputs — duplicates across runs, tombstones, bottom
// and non-bottom, 1 to 12 inputs, overlapping and chained — the cursor merge
// writes exactly the pages, tables and counters the materialising merge does,
// and the restart index in each output handle is what a walk of its pages
// finds.
func TestMergeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		overlapping := rng.Intn(n + 1)
		if seed%10 == 0 {
			overlapping = n // nothing chains
		}
		bottom := rng.Intn(2) == 0
		pageSize := 128 << rng.Intn(3)

		var trees [2]*Tree
		var inputs [2][]*SSTable
		for i := range trees {
			store := newHostileStore(4096)
			store.pageSize = pageSize
			tr, err := NewTree(smallTreeConfig(), store)
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
			inputs[i] = mergeCase(t, tr, rand.New(rand.NewSource(seed)), overlapping, n-overlapping)
		}
		if len(inputs[0]) == 0 {
			continue
		}
		got, gotEnd, err := trees[0].merge(7, inputs[0], bottom)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		want, wantEnd, err := referenceMerge(trees[1], 7, inputs[1], bottom)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if len(got) != len(want) || gotEnd != wantEnd {
			t.Fatalf("seed %d: %d tables ending %v, reference %d ending %v", seed, len(got), gotEnd, len(want), wantEnd)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.entries != w.entries || !bytes.Equal(g.smallest, w.smallest) || !bytes.Equal(g.largest, w.largest) ||
				fmt.Sprint(g.pages) != fmt.Sprint(w.pages) || fmt.Sprint(g.firstKey) != fmt.Sprint(w.firstKey) {
				t.Fatalf("seed %d: table %d = %+v, reference %+v", seed, i, g, w)
			}
			for _, pg := range g.pages {
				a, _, _ := trees[0].store.(*hostileStore).memStore.ReadPage(0, pg)
				b, _, _ := trees[1].store.(*hostileStore).memStore.ReadPage(0, pg)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: table %d page %d differs from the reference", seed, i, pg)
				}
			}
			checkRestarts(t, trees[0].store.(*hostileStore).memStore, g)
		}
		if gs, ws := trees[0].stats, trees[1].stats; gs != ws {
			t.Fatalf("seed %d: counters %+v, reference %+v", seed, gs, ws)
		}
		if pagesInUse(trees[0].alloc) != pagesInUse(trees[1].alloc) {
			t.Fatalf("seed %d: %d pages in use, reference %d", seed, pagesInUse(trees[0].alloc), pagesInUse(trees[1].alloc))
		}
	}
	treeRestartsMatchPages(t)
}

// walkRestarts recomputes a page's restart offsets the slow way: a full walk
// from byte 0, noting where every restartInterval-th entry starts.
func walkRestarts(tb testing.TB, page []byte) []uint16 {
	tb.Helper()
	var restarts []uint16
	c := pageCursor{data: page}
	for i := 0; ; i++ {
		from := c.off
		var e Entry
		ok, err := c.next(&e)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return restarts
		}
		if i > 0 && i%restartInterval == 0 {
			restarts = append(restarts, uint16(from))
		}
	}
}

// checkRestarts requires the handle's restart index to be exactly what a walk
// of the table's pages on the store finds, in one exact-sized slice.
func checkRestarts(tb testing.TB, store PageStore, table *SSTable) {
	tb.Helper()
	total := len(table.pages) + 1
	for i, pg := range table.pages {
		page, _, err := store.ReadPage(0, pg)
		if err != nil {
			tb.Fatal(err)
		}
		want := walkRestarts(tb, page)
		if got := table.pageRestarts(i); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("table on pages %v, page %d: restarts %v, a walk finds %v", table.pages, i, got, want)
		}
		total += len(want)
	}
	if len(table.restarts) != total || cap(table.restarts) != total {
		tb.Fatalf("table on pages %v: restart index len %d cap %d, want exactly %d", table.pages, len(table.restarts), cap(table.restarts), total)
	}
}

// A table's restart index is one allocation however many restarts it holds:
// the offsets are staged in the tree's scratch and copied once, exact-sized,
// at finish. A one-page table costs eight allocations — the builder, the
// handle, the page list, the first-key list and its one key, smallest, largest
// and the index — whether the page has no restart or a dozen.
func TestTableBuildAllocs(t *testing.T) {
	store := newMemStore(16)
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Key: key(i), Addr: vlog.Addr(i), Size: 8})
	}
	for _, n := range []int{restartInterval, len(entries)} {
		var table *SSTable
		allocs := testing.AllocsPerRun(20, func() {
			table = buildTables(t, tr, entries[:n], 0)[0]
			for _, pg := range table.pages {
				tr.alloc.free(pg) // the next build reuses the page, and memStore its image
			}
		})
		allocs-- // buildTables' own result slice
		if len(table.pages) != 1 || len(table.pageRestarts(0)) != (n-1)/restartInterval {
			t.Fatalf("%d entries: %d pages, restarts %v", n, len(table.pages), table.pageRestarts(0))
		}
		if allocs != 8 {
			t.Errorf("building a one-page table of %d entries (%d restarts) costs %.0f allocations, want 8", n, len(table.pageRestarts(0)), allocs)
		}
	}
}

// treeRestartsMatchPages is the tree-level half of TestMergeMatchesReference:
// the restart index of every table a tree builds — by flush, by compactL0, by
// compactLevel — matches its pages, and still does after Restore rolls the
// tree back to a catalog that shares those handles.
func treeRestartsMatchPages(t *testing.T) {
	store := newMemStore(8192)
	store.pageSize = 512 // ~27 entries a page: restarts on every full page
	cfg := smallTreeConfig()
	cfg.MemTableEntries = 100
	tr, err := NewTree(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		tables, restarts := 0, 0
		for _, level := range tr.levels {
			for _, table := range level {
				checkRestarts(t, store, table)
				tables++
				restarts += len(table.restarts) - len(table.pages) - 1
			}
		}
		if tables == 0 || restarts == 0 {
			t.Fatalf("%s: %d tables with %d restarts: nothing checked", when, tables, restarts)
		}
	}
	const n = 4000
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, key(i*7%n), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			check("after the first flush") // one L0 table, nothing merged yet
		}
	}
	if lt := levelTables(tr); lt[1] == 0 || lt[2] == 0 {
		t.Fatalf("levels %v: compactL0 and compactLevel did not both run", lt)
	}
	check("after compactions")
	for i := 0; i < 50; i++ { // uncommitted tail, lost by the rollback
		tr.Put(0, key(n+i), 1, 8)
	}
	tr.Restore()
	check("after Restore")
	for i := 0; i < n; i++ {
		if e, ok, _, err := tr.Get(0, key(i)); err != nil || !ok || e.Tombstone {
			t.Fatalf("after Restore: key %d found=%v err=%v", i, ok, err)
		}
	}
}

// The whole tree on the hostile store: lookups, scans and cascading
// compactions never depend on a view outliving the next store call.
func TestTreeHoldsNoViewAcrossStoreCalls(t *testing.T) {
	store := newHostileStore(8192)
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, key(i*7%n), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if e, ok, _, err := tr.Get(0, key(i)); err != nil || !ok || e.Tombstone {
			t.Fatalf("key %d: found=%v err=%v", i, ok, err)
		}
	}
	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !it.Valid() || !bytes.Equal(it.Entry().Key, key(i)) {
			t.Fatalf("scan position %d: valid=%v key %q err %v", i, it.Valid(), it.Entry().Key, it.Err())
		}
		it.Next(0)
	}
	if it.Valid() || it.Err() != nil {
		t.Fatalf("scan end: valid=%v err=%v", it.Valid(), it.Err())
	}
}

// An open iterator survives writes that only add tables, and stops with
// ErrIteratorInvalidated — not with recycled pages' keys — at its first page
// load after a compaction's frees were committed.
func TestIteratorInvalidatedByReclaim(t *testing.T) {
	store := newMemStore(4096)
	store.pageSize = 128 // several pages per table: a scan keeps loading
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		tr.Put(0, key(2*i), vlog.Addr(i), 8)
	}
	scan := func(it *Iterator, from int) (int, error) {
		i := from
		for ; it.Valid(); i++ {
			if !bytes.Equal(it.Entry().Key, key(2*i)) {
				t.Fatalf("position %d: key %q, want %q", i, it.Entry().Key, key(2*i))
			}
			it.Next(0)
		}
		return i, it.Err()
	}

	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	reclaims := tr.reclaims
	tr.Put(0, key(1), 1, 8)
	if _, err := tr.Flush(0); err != nil { // one more L0 table, nothing freed
		t.Fatal(err)
	}
	if tr.reclaims != reclaims {
		t.Skip("the extra flush compacted; the tree shape no longer fits this test")
	}
	if got, err := scan(it, 0); got != n || err != nil {
		t.Fatalf("scan across a plain flush: %d of %d keys, err %v", got, n, err)
	}

	it, err = tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	it.Next(0) // past key(0); key(1) is next
	it.Next(0)
	for i := 0; tr.reclaims == reclaims; i++ {
		tr.Put(0, key(2*n+i), 1, 8)
	}
	got, err := scan(it, 1)
	if !errors.Is(err, ErrIteratorInvalidated) {
		t.Fatalf("scan across a compaction: %d keys then err %v, want ErrIteratorInvalidated", got, err)
	}
	if got >= n {
		t.Fatalf("scan returned all %d keys and an error besides", got)
	}
}

// A page that is not what it should be. A lookup is a restart search and a
// short walk, so it fails exactly when that path touches a damaged entry; a
// released flash page (every byte the 0xDB poison) fails every lookup whatever
// the key, because every probe and every walk start lands on a key length of
// 219. A full cursor walk, a merge and a scan still stop at the damaged entry.
func TestCursorRejectsCorruptPages(t *testing.T) {
	store := newMemStore(16)
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	const n, bad = 100, 40 // restarts at entries 16, 32, ... 96; entry 40 is off all of them
	var entries []Entry
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{Key: key(i), Addr: vlog.Addr(i), Size: 8})
	}
	table := buildTables(t, tr, entries, 0)[0]
	if len(table.pages) != 1 || len(table.pageRestarts(0)) != (n-1)/restartInterval {
		t.Fatalf("%d pages, restarts %v: the test wants one page of %d entries", len(table.pages), table.pageRestarts(0), n)
	}
	restarts := table.pageRestarts(0)
	page, _, _ := store.ReadPage(0, table.pages[0]) // the store's own image
	page[bad*encodedLen(entries[0])] = 0xDB         // entry 40's key length

	// Searches that never come near entry 40 answer; the ones that walk
	// 32..47 into it fail. A miss fails the same way as a hit.
	for i, wantErr := range map[int]bool{2: false, 16: false, 35: false, 39: false, 40: true, 45: true, 48: false, 70: false, 99: false} {
		e, ok, err := searchPage(page, key(i), restarts)
		if wantErr && (err == nil || ok) {
			t.Fatalf("key %d, searched through the damage: found=%v err=%v", i, ok, err)
		}
		if !wantErr && (err != nil || !ok || e.Addr != vlog.Addr(i)) {
			t.Fatalf("key %d, searched clear of the damage: %+v found=%v err=%v", i, e, ok, err)
		}
	}
	if _, ok, err := searchPage(page, append(key(44), '!'), restarts); err == nil || ok {
		t.Fatalf("absent key searched through the damage: found=%v err=%v", ok, err)
	}
	if _, ok, err := searchPage(page, []byte("zzz"), restarts); err != nil || ok {
		t.Fatalf("absent key past every entry: found=%v err=%v", ok, err)
	}
	// A damaged restart entry fails the searches that probe it.
	probed := append([]byte(nil), page...)
	probed[restarts[3]] = 0xDB // entry 64: the first probe of six
	if _, ok, err := searchPage(probed, key(2), restarts); err == nil || ok {
		t.Fatalf("search probing a damaged restart: found=%v err=%v", ok, err)
	}

	c := pageCursor{data: page}
	var e Entry
	walked := 0
	for {
		ok, err := c.next(&e)
		if !ok {
			if err == nil {
				t.Fatal("walk over a damaged page ended cleanly")
			}
			break
		}
		walked++
	}
	if walked != bad {
		t.Fatalf("walk yielded %d entries before the damage, want %d", walked, bad)
	}
	if _, _, err := tr.merge(0, []*SSTable{table}, false); err == nil {
		t.Fatal("merge over a damaged page succeeded")
	}
	tr.levels[0] = []*SSTable{table}
	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for ; it.Valid(); it.Next(0) {
		scanned++
	}
	// The scan holds one entry of look-ahead, so it stops one short.
	if it.Err() == nil || scanned != bad-1 {
		t.Fatalf("scan yielded %d entries, err %v; want %d and an error", scanned, it.Err(), bad-1)
	}
	if _, err := tr.Seek(0, key(45)); err == nil {
		t.Fatal("Seek through the damage succeeded")
	}
	if it, err := tr.Seek(0, key(70)); err != nil || !it.Valid() || !bytes.Equal(it.Entry().Key, key(70)) {
		t.Fatalf("Seek clear of the damage: err %v", err)
	}

	stale := bytes.Repeat([]byte{0xDB}, store.PageSize())
	for _, r := range [][]uint16{restarts, nil, {19}} {
		for _, k := range [][]byte{key(0), key(50), key(99), {0}, []byte("zzz"), bytes.Repeat([]byte{0xFF}, MaxKeySize)} {
			if _, ok, err := searchPage(stale, k, r); err == nil || ok {
				t.Fatalf("lookup of %q in a released page (restarts %v): found=%v err=%v", k, r, ok, err)
			}
		}
	}
}
