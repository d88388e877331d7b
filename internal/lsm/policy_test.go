package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"bandslim/internal/ftl"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// lowestFirst is the level push this package shipped before the compaction
// pointer, kept as the reference the policy is measured against: the victim is
// always the level's lowest table, and it is merged even when it overlaps
// nothing below.
func lowestFirst(tr *Tree, t sim.Time, lvl int) (sim.Time, error) {
	victim := tr.levels[lvl][0]
	tr.levels[lvl] = tr.levels[lvl][1:]
	over, rest := splitOverlap(tr.levels[lvl+1], victim.smallest, victim.largest)
	inputs := append([]*SSTable{victim}, over...)
	out, end, err := tr.merge(t, inputs, lvl+1 == len(tr.levels)-1)
	if err != nil {
		return t, err
	}
	tr.levels[lvl+1] = insertSorted(rest, out)
	tr.freeTables(inputs)
	tr.stats.Compactions.Inc()
	return end, nil
}

func hashedKey(i int) []byte     { return benchKey(i, 8) }
func sequentialKey(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

// filled keeps the trees fill has built: the tests that share one only read it.
var filled = map[string]*Tree{}

// fill puts keys 0..n-1 into a default-configured tree over 16 KiB pages,
// pushing levels with push (nil: the tree's own compactLevel).
func fill(tb testing.TB, n int, key func(int) []byte, push func(*Tree, sim.Time, int) (sim.Time, error)) (*Tree, *memStore) {
	tb.Helper()
	id := fmt.Sprintf("%d %x %v", n, key(1), push == nil)
	if tr := filled[id]; tr != nil {
		return tr, tr.store.(*memStore)
	}
	store := newMemStore(1 << 16)
	store.pageSize = benchPageSize
	tr, err := NewTree(DefaultConfig(), store)
	if err != nil {
		tb.Fatal(err)
	}
	if push != nil {
		tr.pushLevel = push
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, key(i), vlog.Addr(i), 64); err != nil {
			tb.Fatal(err)
		}
	}
	if got := tr.stats.PagesWritten.Value(); got != int64(store.writes) {
		tb.Fatalf("PagesWritten = %d, the store saw %d writes", got, store.writes)
	}
	filled[id] = tr
	return tr, store
}

// The point of the policy: for the same Puts the rotating victim with the
// trivial move writes a fraction of the pages lowest-first does, and nothing a
// reader can see differs.
func TestRotationWritesFewerPages(t *testing.T) {
	const n = 400_000
	for _, tc := range []struct {
		name  string
		key   func(int) []byte
		ratio float64
	}{
		{"hashed", hashedKey, 0.6},
		{"sequential", sequentialKey, 0.75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, store := fill(t, n, tc.key, nil)
			ref, refStore := fill(t, n, tc.key, lowestFirst)
			t.Logf("%d pages (%d compactions, %d of them trivial moves) against %d lowest-first (%d compactions)", store.writes,
				tr.stats.Compactions.Value(), tr.stats.TrivialMoves.Value(), refStore.writes, ref.stats.Compactions.Value())
			if got, limit := float64(store.writes), tc.ratio*float64(refStore.writes); got > limit {
				t.Errorf("wrote %d pages, lowest-first %d: ratio %.2f, want <= %.2f", store.writes, refStore.writes, got/float64(refStore.writes), tc.ratio)
			}
			if ref.stats.TrivialMoves.Value() != 0 {
				t.Errorf("the reference re-linked %d tables", ref.stats.TrivialMoves.Value())
			}
			// Point lookups at both ends, past them and on a sample between;
			// the lockstep scan below compares every entry.
			probe := func(i int) {
				t.Helper()
				a, aok, _, aerr := tr.Get(0, tc.key(i))
				b, bok, _, berr := ref.Get(0, tc.key(i))
				if aerr != nil || berr != nil || aok != bok || a.Addr != b.Addr || a.Size != b.Size || a.Tombstone != b.Tombstone || aok != (i >= 0 && i < n) {
					t.Fatalf("Get(key %d) = %+v %v %v, lowest-first %+v %v %v", i, a, aok, aerr, b, bok, berr)
				}
			}
			for i := -3; i < 3; i++ {
				probe(i)
				probe(n + i)
			}
			for i := 3; i < n-3; i += 7 {
				probe(i)
			}
			ai, err := tr.Seek(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			bi, err := ref.Seek(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for ; ai.Valid() && bi.Valid(); seen++ {
				if a, b := ai.Entry(), bi.Entry(); !bytes.Equal(a.Key, b.Key) || a.Addr != b.Addr {
					t.Fatalf("scan entry %d: %x -> %d, lowest-first %x -> %d", seen, a.Key, a.Addr, b.Key, b.Addr)
				}
				ai.Next(0)
				bi.Next(0)
			}
			if ai.Valid() || bi.Valid() || ai.Err() != nil || bi.Err() != nil || seen != n {
				t.Fatalf("scans ended after %d of %d entries (valid %v/%v, err %v/%v)", seen, n, ai.Valid(), bi.Valid(), ai.Err(), bi.Err())
			}
		})
	}
}

// levelOf links tables holding the given key ranges (inclusive, key(i)) into
// a level.
func levelOf(t *testing.T, tr *Tree, ranges ...[2]int) []*SSTable {
	t.Helper()
	var level []*SSTable
	for _, r := range ranges {
		var entries []Entry
		for i := r[0]; i <= r[1]; i++ {
			entries = append(entries, Entry{Key: key(i), Addr: vlog.Addr(i), Size: 8})
		}
		level = append(level, buildTables(t, tr, entries, 0)...)
	}
	return level
}

// The pointer walks a level in key order, whatever is linked into the level
// meanwhile, and wraps to the lowest table after the highest.
func TestVictimRotates(t *testing.T) {
	tr, store := newTestTree(t)
	tr.levels[1] = levelOf(t, tr, [2]int{10, 19}, [2]int{30, 39}, [2]int{50, 59}, [2]int{70, 79})
	tr.levels[2] = levelOf(t, tr, [2]int{32, 34}, [2]int{52, 53})
	push := func(wantSmallest int, trivial bool) {
		t.Helper()
		writes, moves, reads, inUse, pending := store.writes, tr.stats.TrivialMoves.Value(), store.reads, pagesInUse(tr.alloc), len(tr.pendingFree)
		if _, err := tr.compactLevel(0, 1); err != nil {
			t.Fatal(err)
		}
		if got := tr.pointer[1]; got.Less(sim.KeyOf(key(wantSmallest))) || sim.KeyOf(key(wantSmallest+9)).Less(got) {
			t.Fatalf("pushed the table ending at %v, want the one starting at %q", got, key(wantSmallest))
		}
		if e, ok, _, err := tr.Get(0, key(wantSmallest)); err != nil || !ok || e.Addr != vlog.Addr(wantSmallest) {
			t.Fatalf("key %d after its table was pushed: %+v %v %v", wantSmallest, e, ok, err)
		}
		moved := tr.stats.TrivialMoves.Value() - moves
		if trivial && (moved != 1 || store.writes != writes || store.reads != reads+1 || pagesInUse(tr.alloc) != inUse || len(tr.pendingFree) != pending) {
			// (the one read is the Get above)
			t.Fatalf("re-linking the table at %q: %d moves, %d writes, %d reads, pages %d -> %d, %d -> %d pending frees", key(wantSmallest),
				moved, store.writes-writes, store.reads-reads-1, inUse, pagesInUse(tr.alloc), pending, len(tr.pendingFree))
		}
		if !trivial && (moved != 0 || store.writes == writes) {
			t.Fatalf("merging the table at %q: %d moves, %d writes", key(wantSmallest), moved, store.writes-writes)
		}
	}
	push(10, true)  // no pointer yet: the lowest
	push(30, false) // overlaps [32,34] below
	// Tables linked in behind the pointer wait for the next lap; one linked in
	// ahead of it is next.
	tr.levels[1] = insertSorted(tr.levels[1], levelOf(t, tr, [2]int{0, 9}, [2]int{40, 49}))
	push(40, true)
	push(50, false)
	push(70, true)
	push(0, true) // wrapped
	if lt := levelTables(tr); lt[1] != 0 {
		t.Fatalf("levels %v after six pushes of six tables", lt)
	}
	if tr.reclaims != 0 {
		t.Fatalf("reclaims = %d before any commit", tr.reclaims)
	}
	for _, table := range tr.levels[2] {
		checkRestarts(t, store, table)
	}

	// What rotation buys: L1 stays a sample of the whole key space, so a
	// victim overlaps its share of L2 and no more. Lowest-first leaves L1
	// holding only the top of the range.
	rotated, _ := fill(t, 400_000, hashedKey, nil)
	ref, _ := fill(t, 400_000, hashedKey, lowestFirst)
	got, was := keySpaceCovered(rotated.levels[1]), keySpaceCovered(ref.levels[1])
	t.Logf("L1 spans %.0f %% of the key space, lowest-first %.0f %%", 100*got, 100*was)
	if got < 0.6 {
		t.Errorf("L1 spans %.0f %% of the key space after 400 k hashed Puts, want >= 60 %%", 100*got)
	}
	if was > 0.3 {
		t.Errorf("the lowest-first reference spans %.0f %%: it no longer shows the defect", 100*was)
	}
}

// keySpaceCovered is the share of the 64-bit key space the level's tables
// span, fence to fence.
func keySpaceCovered(level []*SSTable) float64 {
	var span float64
	for _, table := range level {
		span += float64(table.largest.W0 - table.smallest.W0)
	}
	return span / (1 << 64)
}

// scriptedStore logs every page write and fails the failAt-th one from now
// with an ordinary error: no power cut, the device stays up.
type scriptedStore struct {
	*memStore
	failAt int
	log    []pageWrite
}

type pageWrite struct {
	page int
	sum  uint64
}

// errScripted is the meta region running out of space, the failure a write
// meets on a healthy device.
var errScripted = fmt.Errorf("scripted write failure: %w", ftl.ErrNoSpace)

func (s *scriptedStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if s.failAt > 0 {
		if s.failAt--; s.failAt == 0 {
			return t, errScripted
		}
	}
	h := fnv.New64a()
	h.Write(data)
	s.log = append(s.log, pageWrite{page, h.Sum64()})
	return s.memStore.WritePage(t, page, data)
}

// cascadeKey spreads the test keys over the key space (7919 is prime to n)
// so that every merge overlaps the level below.
func cascadeKey(i int) []byte { return key(i * 7919 % 100_000) }

func newScriptedTree(t *testing.T) (*Tree, *scriptedStore) {
	t.Helper()
	store := &scriptedStore{memStore: newMemStore(8192)}
	cfg := smallTreeConfig()
	cfg.TablePages = 1 // 227 entries a table: L2 overflows within 5 k Puts
	tr, err := NewTree(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	return tr, store
}

// findCascade returns the index of the first Put whose Flush merges L0 into
// L1 and then pushes both L1 and L2, with how many pages that Flush writes.
func findCascade(t *testing.T) (put, writes int) {
	t.Helper()
	tr, store := newScriptedTree(t)
	for i := 0; i < 100_000; i++ {
		before, l3, moves := len(store.log), levelTables(tr)[3], tr.stats.TrivialMoves.Value()
		if _, err := tr.Put(0, cascadeKey(i), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
		if levelTables(tr)[3] > l3 && levelTables(tr)[0] == 0 && tr.stats.TrivialMoves.Value() == moves {
			return i, len(store.log) - before
		}
	}
	t.Fatal("no Flush cascaded through L0, L1 and L2")
	return 0, 0
}

// A Flush that fails without a power cut, at any page write of a cascade
// through three levels, leaves nothing behind: the levels are the committed
// catalog's, pointer for pointer, and every one of their handles still
// describes its table's pages; every handle that was free still is, and none
// is both free and in a level; every acknowledged key still reads, no page
// stays allocated, and once the store works again the tree carries on as if
// the failure had not happened.
func TestFailedFlushLeavesNothing(t *testing.T) {
	put, writes := findCascade(t)
	if writes < 8 {
		t.Fatalf("the cascade at Put %d writes %d pages: too few to be one", put, writes)
	}
	clean, _ := newScriptedTree(t)
	for i := 0; i <= put; i++ {
		clean.Put(0, cascadeKey(i), vlog.Addr(i), 8)
	}
	for n := 1; n <= writes; n++ {
		tr, store := newScriptedTree(t)
		for i := 0; i < put; i++ {
			if _, err := tr.Put(0, cascadeKey(i), vlog.Addr(i), 8); err != nil {
				t.Fatal(err)
			}
		}
		inUse, pointer, free := pagesInUse(tr.alloc), slices.Clone(tr.pointer), slices.Clone(tr.build.free)
		levels := make([][]*SSTable, len(tr.levels))
		for lvl, level := range tr.levels {
			levels[lvl] = slices.Clone(level)
		}
		if len(free) == 0 {
			t.Fatal("no free handles before the failing Flush: nothing to keep")
		}
		store.failAt = n
		if _, err := tr.Put(0, cascadeKey(put), vlog.Addr(put), 8); !errors.Is(err, ftl.ErrNoSpace) {
			t.Fatalf("write %d of %d failed but the Put returned %v", n, writes, err)
		}
		if got := pagesInUse(tr.alloc); got != inUse {
			t.Fatalf("write %d of %d failed: %d meta pages in use, %d before the Put", n, writes, got, inUse)
		}
		if !slices.Equal(tr.pointer, pointer) || len(tr.pendingFree) != 0 {
			t.Fatalf("write %d of %d failed: pointers %v (were %v), %d pending frees", n, writes, tr.pointer, pointer, len(tr.pendingFree))
		}
		inLevel := map[*SSTable]bool{}
		for lvl, level := range tr.levels {
			if !slices.Equal(level, levels[lvl]) || !slices.Equal(level, tr.committed.levels[lvl]) {
				t.Fatalf("write %d of %d failed: L%d holds %d tables, %d before and %d committed", n, writes, lvl, len(level), len(levels[lvl]), len(tr.committed.levels[lvl]))
			}
			for _, table := range level {
				checkRestarts(t, store.memStore, table)
				inLevel[table] = true
			}
		}
		for _, table := range free {
			if !slices.Contains(tr.build.free, table) {
				t.Fatalf("write %d of %d failed: a handle left the free list", n, writes)
			}
		}
		for _, table := range tr.build.free {
			if inLevel[table] {
				t.Fatalf("write %d of %d failed: a handle is both free and in a level", n, writes)
			}
		}
		for i := 0; i < put; i++ {
			if e, ok, _, err := tr.Get(0, cascadeKey(i)); err != nil || !ok || e.Addr != vlog.Addr(i) {
				t.Fatalf("write %d of %d failed: acknowledged key %d reads %+v %v %v", n, writes, i, e, ok, err)
			}
		}
		// The store heals: the next Put flushes the MemTable the failed one
		// left in place, and the tree is the one that never failed.
		if _, err := tr.Put(0, cascadeKey(put), vlog.Addr(put), 8); err != nil {
			t.Fatalf("write %d of %d failed: the retry: %v", n, writes, err)
		}
		if got, want := levelTables(tr), levelTables(clean); !slices.Equal(got, want) || pagesInUse(tr.alloc) != pagesInUse(clean.alloc) {
			t.Fatalf("write %d of %d failed: after the retry levels %v pages %d, never-failed tree %v %d", n, writes,
				got, pagesInUse(tr.alloc), want, pagesInUse(clean.alloc))
		}
		for i := 0; i <= put; i++ {
			if e, ok, _, err := tr.Get(0, cascadeKey(i)); err != nil || !ok || e.Addr != vlog.Addr(i) {
				t.Fatalf("write %d of %d failed: after the retry key %d reads %+v %v %v", n, writes, i, e, ok, err)
			}
		}
	}
}

// The compaction pointers are part of the catalog: cut power on the last page
// write of a cascade that has advanced them, Restore, flush the MemTable it
// keeps and carry on — the tree writes exactly the pages, in the order, a
// tree that never lost power writes from the same commit on.
func TestCompactionPointerSurvivesRestore(t *testing.T) {
	put, writes := findCascade(t)
	const more = 6000
	steady, steadyStore := newScriptedTree(t)
	for i := 0; i < put; i++ {
		steady.Put(0, cascadeKey(i), vlog.Addr(i), 8)
	}
	committed := len(steadyStore.log)
	for i := put; i < put+more; i++ {
		steady.Put(0, cascadeKey(i), vlog.Addr(i), 8)
	}

	tr, store := newScriptedTree(t)
	for i := 0; i < put; i++ {
		tr.Put(0, cascadeKey(i), vlog.Addr(i), 8)
	}
	lost := tr.mem.Len()
	pointer := slices.Clone(tr.pointer)
	store.failAt = writes
	if _, err := tr.Put(0, cascadeKey(put), vlog.Addr(put), 8); !errors.Is(err, errScripted) {
		t.Fatalf("the cut Put returned %v", err)
	}
	// What a power cut does that a failed write does not: the device mounts
	// again, which rolls the tree back to its catalog, keeps the
	// battery-backed MemTable, and flushes it, full as the cut Put left it.
	tr.Restore()
	if tr.mem.Len() != lost+1 {
		t.Fatalf("Restore left %d MemTable entries, want the %d the cut flush held", tr.mem.Len(), lost+1)
	}
	store.log = store.log[:0]
	if _, err := tr.FlushIfFull(0); err != nil {
		t.Fatal(err)
	}
	for i := put + 1; i < put+more; i++ {
		if _, err := tr.Put(0, cascadeKey(i), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	if want := steadyStore.log[committed:]; !slices.Equal(store.log, want) {
		at := 0
		for at < len(want) && at < len(store.log) && store.log[at] == want[at] {
			at++
		}
		t.Fatalf("after Restore the tree wrote %d pages, the tree that never lost power %d; they part at write %d", len(store.log), len(want), at)
	}
	if steady.stats.TrivialMoves.Value() == 0 || slices.Equal(steady.pointer, pointer) {
		t.Fatalf("the %d Puts after the cut never moved a pointer (%d trivial moves): nothing was compared", more, steady.stats.TrivialMoves.Value())
	}
}
