package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

func TestMemTablePutGet(t *testing.T) {
	m := NewMemTable(16)
	if err := m.Put([]byte("abc"), 100, 32, false); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Get(sim.KeyOf([]byte("abc")))
	if !ok || e.Addr != 100 || e.Size != 32 || e.Tombstone {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := m.Get(sim.KeyOf([]byte("zzz"))); ok {
		t.Fatal("missing key found")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemTableUpdateInPlace(t *testing.T) {
	m := NewMemTable(16)
	m.Put([]byte("k"), 1, 1, false)
	m.Put([]byte("k"), 2, 2, false)
	if m.Len() != 1 {
		t.Fatalf("Len = %d after update", m.Len())
	}
	e, _ := m.Get(sim.KeyOf([]byte("k")))
	if e.Addr != 2 || e.Size != 2 {
		t.Fatalf("update lost: %+v", e)
	}
}

func TestMemTableTombstone(t *testing.T) {
	m := NewMemTable(16)
	m.Put([]byte("k"), 1, 1, false)
	m.Put([]byte("k"), 0, 0, true)
	e, ok := m.Get(sim.KeyOf([]byte("k")))
	if !ok || !e.Tombstone {
		t.Fatal("tombstone not recorded")
	}
}

func TestMemTableKeyValidation(t *testing.T) {
	m := NewMemTable(16)
	if err := m.Put(nil, 0, 0, false); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := m.Put(make([]byte, 17), 0, 0, false); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := m.Put(make([]byte, 16), 0, 0, false); err != nil {
		t.Fatalf("16-byte key rejected: %v", err)
	}
}

func TestMemTableKeyIsCopied(t *testing.T) {
	m := NewMemTable(16)
	k := []byte("abc")
	m.Put(k, 1, 1, false)
	k[0] = 'x'
	if _, ok := m.Get(sim.KeyOf([]byte("abc"))); !ok {
		t.Fatal("caller mutation corrupted stored key")
	}
}

func TestMemTableIteratorOrder(t *testing.T) {
	m := NewMemTable(16)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		m.Put([]byte(k), 0, uint32(i), false)
	}
	it := m.Iterator()
	var got []string
	for it.Next() {
		got = append(got, string(it.Entry().Key))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
}

func TestMemTableIteratorSeek(t *testing.T) {
	m := NewMemTable(16)
	for _, k := range []string{"a", "c", "e", "g"} {
		m.Put([]byte(k), 0, 0, false)
	}
	it := m.Iterator()
	it.Seek(sim.KeyOf([]byte("d")))
	if !it.Next() || string(it.Entry().Key) != "e" {
		t.Fatalf("Seek(d) then Next gave %q", it.Entry().Key)
	}
	it.Seek(sim.KeyOf([]byte("c")))
	if !it.Next() || string(it.Entry().Key) != "c" {
		t.Fatal("Seek to existing key must include it")
	}
	it.Seek(sim.KeyOf([]byte("z")))
	if it.Next() {
		t.Fatal("Seek past end yielded an entry")
	}
}

// Once a table has been made, its whole life under the tree — filled to the
// entries it was sized for, drained in key order as a flush drains it, and
// recycled — allocates nothing.
func TestMemTableRecycleAllocs(t *testing.T) {
	n := DefaultConfig().MemTableEntries
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(i, 8)
	}
	m := NewMemTable(n)
	drained := 0
	// One call of five lives, so that the count is exact; AllocsPerRun calls
	// it twice, once to warm up.
	allocs := testing.AllocsPerRun(1, func() {
		for range 5 {
			for i, k := range keys {
				if err := m.Put(k, vlog.Addr(i), 64, false); err != nil {
					t.Fatal(err)
				}
			}
			for it := m.Iterator(); it.Next(); {
				drained++
			}
			m = m.recycle()
		}
	})
	if allocs != 0 {
		t.Errorf("five of a MemTable's lives, each a fill, drain and recycle, allocated %v times", allocs)
	}
	if drained != 10*n {
		t.Errorf("drained %d entries over ten lives of %d", drained, n)
	}
}

// memTestKeys are keys whose order a padded-word compare could get wrong:
// every length from 1 to MaxKeySize ending in 0x00, 0x01, 0xFE and 0xFF, runs
// of those bytes, prefix pairs, and plain keys between them.
func memTestKeys() [][]byte {
	keys := [][]byte{
		[]byte("ab"), []byte("ab\x00"), []byte("ab\x00\x01"), []byte("ab\x01"),
		[]byte("abcdefg"), []byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefgh\xff"),
	}
	for n := 1; n <= MaxKeySize; n++ {
		for _, last := range []byte{0x00, 0x01, 0xFE, 0xFF} {
			k := bytes.Repeat([]byte{'k'}, n)
			k[n-1] = last
			keys = append(keys, k, bytes.Repeat([]byte{last}, n))
		}
	}
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%03d", i)))
	}
	return keys
}

// sameEntry compares two entries field by field, keys by content.
func sameEntry(a, b Entry) bool {
	return bytes.Equal(a.Key, b.Key) && a.Addr == b.Addr && a.Size == b.Size && a.Tombstone == b.Tombstone
}

// memTail requires it to yield exactly want and then stop.
func memTail(it *MemIterator, want []Entry) error {
	for _, w := range want {
		if !it.Next() {
			return fmt.Errorf("ended before %x", w.Key)
		}
		if e := it.Entry(); !sameEntry(e, w) {
			return fmt.Errorf("yielded %x → %d, want %x → %d", e.Key, e.Addr, w.Key, w.Addr)
		}
	}
	if it.Next() {
		return fmt.Errorf("yielded %x past the end", it.Entry().Key)
	}
	return nil
}

// memTableHolds reports how m differs from want (sorted, distinct keys): its
// length, a Get of every key, a full scan, and a Get and a Seek for every
// probe.
func memTableHolds(m *MemTable, want []Entry, probes [][]byte) error {
	if m.Len() != len(want) {
		return fmt.Errorf("Len %d, want %d", m.Len(), len(want))
	}
	for _, w := range want {
		if e, ok := m.Get(sim.KeyOf(w.Key)); !ok || !sameEntry(e, w) {
			return fmt.Errorf("Get(%x) = %x → %d %v, want → %d", w.Key, e.Key, e.Addr, ok, w.Addr)
		}
	}
	if err := memTail(m.Iterator(), want); err != nil {
		return fmt.Errorf("scan: %v", err)
	}
	for _, p := range probes {
		i := sort.Search(len(want), func(i int) bool { return bytes.Compare(want[i].Key, p) >= 0 })
		if _, ok := m.Get(sim.KeyOf(p)); ok != (i < len(want) && bytes.Equal(want[i].Key, p)) {
			return fmt.Errorf("Get(%x) found=%v", p, ok)
		}
		it := m.Iterator()
		it.Seek(sim.KeyOf(p))
		if err := memTail(it, want[i:]); err != nil {
			return fmt.Errorf("Seek(%x): %v", p, err)
		}
	}
	return nil
}

// Property: the memtable agrees with a sorted reference under random
// workloads over keys whose order is easy to get wrong — through Get, a full
// scan, and Seeks to nil, to every key and to targets longer than any key —
// and a table recycled after other work agrees exactly as a fresh one does.
func TestMemTableMatchesMapProperty(t *testing.T) {
	keys := memTestKeys()
	probes := append([][]byte{nil}, keys...)
	for _, p := range [][]byte{{0}, {0xFF}, []byte("abcdefgh\x00"), bytes.Repeat([]byte{'k'}, MaxKeySize)} {
		probes = append(probes, append(append([]byte(nil), p...), make([]byte, MaxKeySize+1-len(p))...),
			append(bytes.Repeat(p, MaxKeySize+1), 0xFF))
	}
	f := func(ops []uint16) bool {
		// Other keys and values first, outgrowing the 4 entries it is made for.
		recycled := NewMemTable(4)
		for i, op := range ops {
			recycled.Put(keys[(int(op)*7+i)%len(keys)], 1, 1, op%3 == 0)
		}
		if recycled.recycle() != recycled {
			t.Error("an unpinned table was not recycled in place")
			return false
		}
		fresh := NewMemTable(len(keys))
		ref := make(map[string]Entry)
		for i, op := range ops {
			e := Entry{Key: keys[int(op)%len(keys)], Addr: vlog.Addr(i), Size: uint32(i), Tombstone: op%5 == 0}
			for _, m := range []*MemTable{fresh, recycled} {
				if err := m.Put(e.Key, e.Addr, e.Size, e.Tombstone); err != nil {
					t.Error(err)
					return false
				}
			}
			ref[string(e.Key)] = e
		}
		want := make([]Entry, 0, len(ref))
		for _, e := range ref {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })
		for name, m := range map[string]*MemTable{"fresh": fresh, "recycled": recycled} {
			if err := memTableHolds(m, want, probes); err != nil {
				t.Errorf("%s table: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
