package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// memStore is an in-memory PageStore with a NAND-like program latency so
// completion times remain meaningful in tests.
type memStore struct {
	pageSize int
	pages    map[int][]byte
	limit    int
	writes   int
	reads    int
}

func newMemStore(pages int) *memStore {
	return &memStore{pageSize: 4096, pages: make(map[int][]byte), limit: pages}
}

func (s *memStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if page < 0 || page >= s.limit {
		return t, fmt.Errorf("memStore: page %d out of range", page)
	}
	cp, ok := s.pages[page]
	if !ok {
		cp = make([]byte, s.pageSize)
		s.pages[page] = cp
	}
	clear(cp[copy(cp, data):])
	s.writes++
	return t.Add(400 * sim.Microsecond), nil
}

func (s *memStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	if page < 0 || page >= s.limit {
		return nil, t, fmt.Errorf("memStore: page %d out of range", page)
	}
	p, ok := s.pages[page]
	if !ok {
		p = make([]byte, s.pageSize)
	}
	s.reads++
	return p, t.Add(100 * sim.Microsecond), nil
}

func (s *memStore) TrimPage(page int) error {
	delete(s.pages, page)
	return nil
}

func (s *memStore) PageSize() int { return s.pageSize }
func (s *memStore) Pages() int    { return s.limit }

// decodeEntry materialises the entry at the head of src with its own key
// copy: the shape the encoding tests and the reference merge want.
func decodeEntry(src []byte) (Entry, int, error) {
	kl, addr, size, tomb, n, err := parseEntry(src)
	if err != nil {
		return Entry{}, 0, err
	}
	return Entry{Key: append([]byte(nil), src[1:1+kl]...), Addr: addr, Size: size, Tombstone: tomb}, n, nil
}

func smallTreeConfig() Config {
	return Config{
		MemTableEntries:     16,
		L0CompactionTrigger: 3,
		LevelTableBase:      2,
		MaxLevels:           4,
		TablePages:          2,
	}
}

func newTestTree(t *testing.T) (*Tree, *memStore) {
	t.Helper()
	store := newMemStore(4096)
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	return tr, store
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

// levelTables is the table count of each level.
func levelTables(tr *Tree) []int {
	out := make([]int, len(tr.levels))
	for i, lvl := range tr.levels {
		out[i] = len(lvl)
	}
	return out
}

// inUse is how many pages the allocator has handed out and not taken back.
func pagesInUse(a *pageAllocator) int { return a.next - len(a.freeList) }

func TestTreeConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.MaxLevels = 1
	if _, err := NewTree(bad, newMemStore(10)); err == nil {
		t.Fatal("MaxLevels=1 accepted")
	}
}

func TestTreePutGetInMemTable(t *testing.T) {
	tr, _ := newTestTree(t)
	if _, err := tr.Put(0, []byte("a"), 123, 45); err != nil {
		t.Fatal(err)
	}
	e, ok, _, err := tr.Get(0, []byte("a"))
	if err != nil || !ok || e.Addr != 123 || e.Size != 45 {
		t.Fatalf("Get = %+v %v %v", e, ok, err)
	}
	if _, ok, _, _ := tr.Get(0, []byte("nope")); ok {
		t.Fatal("phantom key")
	}
}

func TestTreeFlushCreatesL0Table(t *testing.T) {
	tr, store := newTestTree(t)
	for i := 0; i < 16; i++ { // exactly the flush trigger
		if _, err := tr.Put(0, key(i), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	if tr.mem.Len() != 0 {
		t.Fatalf("MemTable not flushed: %d entries", tr.mem.Len())
	}
	if levelTables(tr)[0] != 1 {
		t.Fatalf("L0 tables = %d", levelTables(tr)[0])
	}
	if store.writes == 0 {
		t.Fatal("flush wrote no pages")
	}
	// All keys still resolvable from the table.
	for i := 0; i < 16; i++ {
		e, ok, _, err := tr.Get(0, key(i))
		if err != nil || !ok || e.Addr != vlog.Addr(i) {
			t.Fatalf("key %d after flush: %+v %v %v", i, e, ok, err)
		}
	}
}

func TestTreeGetChargesNANDTime(t *testing.T) {
	tr, _ := newTestTree(t)
	for i := 0; i < 16; i++ {
		tr.Put(0, key(i), vlog.Addr(i), 8)
	}
	_, ok, end, err := tr.Get(0, key(3))
	if err != nil || !ok {
		t.Fatal("lookup failed")
	}
	if end == 0 {
		t.Fatal("table lookup charged no NAND read time")
	}
}

func TestTreeCompactionCascades(t *testing.T) {
	tr, _ := newTestTree(t)
	// Write enough unique keys to force flushes and multi-level compaction.
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tr.Put(0, key(i), vlog.Addr(i), 8); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if tr.Stats().Compactions.Value() == 0 {
		t.Fatal("no compactions ran")
	}
	levels := levelTables(tr)
	if levels[0] >= smallTreeConfig().L0CompactionTrigger {
		t.Fatalf("L0 never compacted: %v", levels)
	}
	// Every key must still resolve correctly.
	for i := 0; i < n; i++ {
		e, ok, _, err := tr.Get(0, key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.Addr != vlog.Addr(i) {
			t.Fatalf("key %d lost after compaction: %+v %v (levels %v)", i, e, ok, levels)
		}
	}
}

func TestTreeOverwriteNewestWins(t *testing.T) {
	tr, _ := newTestTree(t)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Put(0, key(i%50), vlog.Addr(i), 8)
	}
	// Latest writer for key k is the largest i ≡ k mod 50.
	for k := 0; k < 50; k++ {
		want := vlog.Addr(450 + k)
		e, ok, _, err := tr.Get(0, key(k))
		if err != nil || !ok || e.Addr != want {
			t.Fatalf("key %d = %+v, want addr %d", k, e, want)
		}
	}
}

func TestTreeDeleteTombstones(t *testing.T) {
	tr, _ := newTestTree(t)
	for i := 0; i < 40; i++ {
		tr.Put(0, key(i), vlog.Addr(i), 8)
	}
	for i := 0; i < 40; i += 2 {
		if _, err := tr.Delete(0, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Force everything through flush/compaction.
	if _, err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		e, ok, _, err := tr.Get(0, key(i))
		if err != nil {
			t.Fatal(err)
		}
		deleted := !ok || e.Tombstone
		if i%2 == 0 && !deleted {
			t.Fatalf("key %d not deleted", i)
		}
		if i%2 == 1 && (deleted) {
			t.Fatalf("key %d wrongly deleted", i)
		}
	}
}

func TestTreeFlushEmptyIsNoOp(t *testing.T) {
	tr, store := newTestTree(t)
	if _, err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	if store.writes != 0 {
		t.Fatal("empty flush wrote pages")
	}
}

func TestTreeMetaPagesReclaimedByCompaction(t *testing.T) {
	tr, _ := newTestTree(t)
	// Overwrite the same small key set heavily: dead entries dominate, so
	// the meta footprint must stay bounded well below total writes.
	for i := 0; i < 4000; i++ {
		if _, err := tr.Put(0, key(i%20), vlog.Addr(i), 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := pagesInUse(tr.alloc); got > 200 {
		t.Fatalf("meta pages in use = %d; compaction is not reclaiming", got)
	}
}

func TestIteratorFullScan(t *testing.T) {
	tr, _ := newTestTree(t)
	const n = 300
	for i := 0; i < n; i++ {
		tr.Put(0, key(i), vlog.Addr(i), 8)
	}
	it, err := tr.Seek(0, []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var prev []byte
	for it.Valid() {
		e := it.Entry()
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, e.Key)
		}
		prev = append(prev[:0], e.Key...)
		count++
		it.Next(0)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != n {
		t.Fatalf("scanned %d keys, want %d", count, n)
	}
}

func TestIteratorSeekMidRange(t *testing.T) {
	tr, _ := newTestTree(t)
	for i := 0; i < 100; i++ {
		tr.Put(0, key(i), vlog.Addr(i), 8)
	}
	it, err := tr.Seek(0, key(42))
	if err != nil {
		t.Fatal(err)
	}
	if !it.Valid() || !bytes.Equal(it.Entry().Key, key(42)) {
		t.Fatalf("Seek(42) at %q", it.Entry().Key)
	}
	it.Next(0)
	if !bytes.Equal(it.Entry().Key, key(43)) {
		t.Fatalf("Next gave %q", it.Entry().Key)
	}
}

func TestIteratorSkipsTombstonesAndDuplicates(t *testing.T) {
	tr, _ := newTestTree(t)
	for i := 0; i < 60; i++ {
		tr.Put(0, key(i), vlog.Addr(i), 8)
	}
	tr.Delete(0, key(5))
	tr.Put(0, key(6), vlog.Addr(999), 8) // overwrite spanning mem + tables
	it, err := tr.Seek(0, key(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(it.Entry().Key, key(4)) {
		t.Fatalf("at %q", it.Entry().Key)
	}
	it.Next(0)
	if !bytes.Equal(it.Entry().Key, key(6)) {
		t.Fatalf("tombstoned key not skipped; at %q", it.Entry().Key)
	}
	if it.Entry().Addr != 999 {
		t.Fatalf("stale duplicate won: addr %d", it.Entry().Addr)
	}
}

func TestIteratorSeekPastEnd(t *testing.T) {
	tr, _ := newTestTree(t)
	tr.Put(0, []byte("a"), 1, 1)
	it, err := tr.Seek(0, []byte("zzz"))
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("iterator valid past end")
	}
	it.Next(0) // must not panic
}

func TestIteratorEmptyTree(t *testing.T) {
	tr, _ := newTestTree(t)
	it, err := tr.Seek(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("empty tree yielded an entry")
	}
}

// Property: the tree agrees with a reference map after arbitrary put/delete
// sequences, across flush/compaction boundaries, and scans return exactly
// the live keys in order.
func TestTreeMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		store := newMemStore(8192)
		tr, err := NewTree(smallTreeConfig(), store)
		if err != nil {
			return false
		}
		ref := make(map[string]vlog.Addr)
		for i, op := range ops {
			k := key(int(op) % 64)
			if op%7 == 0 {
				if _, err := tr.Delete(0, k); err != nil {
					return false
				}
				delete(ref, string(k))
			} else {
				if _, err := tr.Put(0, k, vlog.Addr(i), 8); err != nil {
					return false
				}
				ref[string(k)] = vlog.Addr(i)
			}
		}
		for k, addr := range ref {
			e, ok, _, err := tr.Get(0, []byte(k))
			if err != nil || !ok || e.Tombstone || e.Addr != addr {
				return false
			}
		}
		// Scan: exactly the live keys, sorted.
		it, err := tr.Seek(0, nil)
		if err != nil {
			return false
		}
		seen := 0
		var prev []byte
		for it.Valid() {
			e := it.Entry()
			if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
				return false
			}
			if want, ok := ref[string(e.Key)]; !ok || e.Addr != want {
				return false
			}
			prev = append(prev[:0], e.Key...)
			seen++
			it.Next(0)
		}
		return seen == len(ref) && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSSTableEncodingRoundTrip(t *testing.T) {
	e := Entry{Key: []byte("hello"), Addr: (1 << 39) + 12345, Size: 0xDEADBEEF, Tombstone: true}
	buf := make([]byte, encodedLen(e))
	n := encodeEntry(buf, e)
	if n != len(buf) {
		t.Fatalf("encoded %d bytes, want %d", n, len(buf))
	}
	got, m, err := decodeEntry(buf)
	if err != nil || m != n {
		t.Fatalf("decode: %v, %d", err, m)
	}
	if !bytes.Equal(got.Key, e.Key) || got.Addr != e.Addr || got.Size != e.Size || got.Tombstone != e.Tombstone {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSSTableDecodeCorruption(t *testing.T) {
	if _, _, err := decodeEntry([]byte{}); err == nil {
		t.Fatal("empty decode accepted")
	}
	// keyLen says 20 (> MaxKeySize).
	if _, _, err := decodeEntry([]byte{20, 0, 0}); err == nil {
		t.Fatal("oversized keyLen accepted")
	}
	// Sentinel terminates a page.
	if _, _, err := decodeEntry([]byte{0, 1, 2}); err != errEndOfPage {
		t.Fatal("zero keyLen not treated as end of page")
	}
}

func TestPageAllocatorReuse(t *testing.T) {
	a := newPageAllocator(3)
	p0, _ := a.alloc()
	p1, _ := a.alloc()
	if p0 == p1 {
		t.Fatal("duplicate allocation")
	}
	a.free(p0)
	p2, _ := a.alloc()
	if p2 != p0 {
		t.Fatalf("free page not reused: got %d", p2)
	}
	a.alloc()
	if _, err := a.alloc(); err == nil {
		t.Fatal("exhausted allocator kept allocating")
	}
	if pagesInUse(a) != 3 {
		t.Fatalf("inUse = %d", pagesInUse(a))
	}
}
