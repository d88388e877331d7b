package lsm

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// The merge and the point lookup, measured on their own so a change to either
// shows in seconds (`go test -run '^$' -bench . -benchmem ./internal/lsm`)
// instead of through the 20 s benchmark harness. Shapes are fixed: 8-byte
// hashed keys, 16 KiB pages, the default tree configuration.

const benchPageSize = 16 * 1024

// benchKey is the i-th key of a fixed pseudo-random permutation of uint64,
// followed by as many bytes of a second hash of i as keyLen asks beyond eight.
func benchKey(i, keyLen int) []byte {
	x := uint64(i)*0x9E3779B97F4A7C15 ^ 0x6b65797370616365
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	k := binary.BigEndian.AppendUint64(nil, x)
	return binary.BigEndian.AppendUint64(k, x*0x9E3779B97F4A7C15)[:keyLen]
}

// benchEntries is the entries of keys [from, to) that keep admits (nil: all)
// in key order, each a tombstone where tomb says so (nil: none).
func benchEntries(keyLen, from, to int, keep, tomb func(i int) bool) []Entry {
	entries := make([]Entry, 0, to-from)
	for i := from; i < to; i++ {
		if keep == nil || keep(i) {
			entries = append(entries, Entry{Key: benchKey(i, keyLen), Addr: vlog.Addr(i), Size: 64, Tombstone: tomb != nil && tomb(i)})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
	return entries
}

// benchTables builds tables holding keys [from, to) in key order, cut every
// tablePages pages (0: one table).
func benchTables(b *testing.B, tr *Tree, keyLen, from, to, tablePages int) []*SSTable {
	b.Helper()
	return buildTables(b, tr, benchEntries(keyLen, from, to, nil, nil), tablePages)
}

func benchTree(b *testing.B) *Tree {
	b.Helper()
	store := newMemStore(1 << 16)
	store.pageSize = benchPageSize
	tr, err := NewTree(DefaultConfig(), store)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkMemTablePut is a MemTable's life under a hashed-key fill: Puts of
// MemTableEntries distinct 8-byte keys, the in-order drain a Flush makes of
// them, then the recycle, over and over. ns/op and allocs/op are per Put, so
// the drain's sort is on the Puts' account.
func BenchmarkMemTablePut(b *testing.B) {
	n := DefaultConfig().MemTableEntries
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(i, 8)
	}
	m := NewMemTable(n)
	var drained vlog.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		for _, k := range keys[:min(n, b.N-i)] {
			if err := m.Put(k, vlog.Addr(i), 64, false); err != nil {
				b.Fatal(err)
			}
			i++
		}
		for it := m.Iterator(); it.Next(); {
			drained += it.Entry().Addr
		}
		m = m.recycle()
	}
	benchSink = int(drained)
}

// benchSink keeps a benchmark's results live.
var benchSink int

// BenchmarkMemTableGet looks up the keys of a full MemTable in turn.
func BenchmarkMemTableGet(b *testing.B) {
	n := DefaultConfig().MemTableEntries
	keys := make([][]byte, n)
	m := NewMemTable(n)
	for i := range keys {
		keys[i] = benchKey(i, 8)
		if err := m.Put(keys[i], vlog.Addr(i), 64, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(sim.KeyOf(keys[i%n])); !ok {
			b.Fatalf("key %x missing", keys[i%n])
		}
	}
}

// BenchmarkMemTableLiveScan is a scan left open under writes: a table half
// filled with 8-byte hashed keys is Seek'd to its start, then each op Puts a
// new key and advances the scan one step, which has to find its place again
// in the order the Put extended. A full table is refilled off the clock.
func BenchmarkMemTableLiveScan(b *testing.B) {
	n := DefaultConfig().MemTableEntries
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(i, 8)
	}
	var m *MemTable
	var it *MemIterator
	var seen vlog.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(n/2) == 0 {
			b.StopTimer()
			m = NewMemTable(n)
			for j := 0; j < n; j += 2 {
				if err := m.Put(keys[j], vlog.Addr(j), 64, false); err != nil {
					b.Fatal(err)
				}
			}
			it = m.Iterator()
			it.Seek(sim.Key{})
			b.StartTimer()
		}
		if err := m.Put(keys[2*(i%(n/2))+1], vlog.Addr(i), 64, false); err != nil {
			b.Fatal(err)
		}
		if it.Next() {
			seen += it.Entry().Addr
		}
	}
	benchSink = int(seen)
}

// BenchmarkCompaction is one L0→L1 compaction at the steady-state shape of a
// hashed-key fill: four overlapping 4096-entry L0 tables over a full L1 of
// eight 8-page tables, every key unique, ~49 k entries in and out.
func BenchmarkCompaction(b *testing.B) {
	tr := benchTree(b)
	cfg := DefaultConfig()
	var inputs []*SSTable
	next := 0
	for i := 0; i < cfg.L0CompactionTrigger; i++ {
		inputs = append(inputs, benchTables(b, tr, 8, next, next+cfg.MemTableEntries, 0)...)
		next += cfg.MemTableEntries
	}
	inputs = append(inputs, benchTables(b, tr, 8, next, next+32*1024, cfg.TablePages)...)
	benchMerge(b, tr, inputs, false)
}

// benchPageEntries is how many 8-byte-key entries fill one benchPageSize page.
const benchPageEntries = benchPageSize / (entryFixed + 8)

// BenchmarkCompactionLevelPush is one level push at the steady-state shape of
// a hashed-key fill: a full 8-page victim over the eight full next-level
// tables its key range overlaps, every key unique, into the bottom level. The
// eight tables chain into one run, so the merge picks between two heads.
func BenchmarkCompactionLevelPush(b *testing.B) {
	tr := benchTree(b)
	pages := DefaultConfig().TablePages
	n := 9 * pages * benchPageEntries // every ninth key is the victim's
	victim := buildTables(b, tr, benchEntries(8, 0, n, func(i int) bool { return i%9 == 0 }, nil), 0)
	below := buildTables(b, tr, benchEntries(8, 0, n, func(i int) bool { return i%9 != 0 }, nil), pages)
	if len(victim) != 1 || len(victim[0].pages) != pages || len(below) != 8 {
		b.Fatalf("victim of %d tables (%d pages), %d tables below: not the shape", len(victim), len(victim[0].pages), len(below))
	}
	benchMerge(b, tr, append(victim, below...), true)
}

// BenchmarkCompactionOverwrite is BenchmarkCompaction's L0 shape under
// overwrites, into the bottom level: each L0 table shares half its keys with
// the next, the newest shares all of its keys and the one after it half of
// its keys with L1, and one key in twenty is a tombstone, so the merge skips
// older duplicates and drops tombstones as well as copying.
func BenchmarkCompactionOverwrite(b *testing.B) {
	tr := benchTree(b)
	cfg := DefaultConfig()
	tomb := func(i int) bool { return i%20 == 7 }
	var inputs []*SSTable
	half := cfg.MemTableEntries / 2
	for i := cfg.L0CompactionTrigger - 1; i >= 0; i-- {
		inputs = append(inputs, buildTables(b, tr, benchEntries(8, i*half, i*half+cfg.MemTableEntries, nil, tomb), 0)...)
	}
	from := (cfg.L0CompactionTrigger + 1) * half
	inputs = append(inputs, buildTables(b, tr, benchEntries(8, from-cfg.MemTableEntries, from-cfg.MemTableEntries+32*1024, nil, tomb), cfg.TablePages)...)
	benchMerge(b, tr, inputs, true)
}

// benchMerge times merges of inputs on tr, each one's output tables released
// as a commit would, and reports the time per input entry.
func benchMerge(b *testing.B, tr *Tree, inputs []*SSTable, bottom bool) {
	entries := 0
	for _, t := range inputs {
		for _, pg := range t.pages {
			data, _, _ := tr.store.ReadPage(0, pg)
			c := pageCursor{data: data}
			for e := (Entry{}); ; entries++ {
				if ok, _ := c.next(&e); !ok {
					break
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := tr.merge(0, inputs, bottom)
		if err != nil {
			b.Fatal(err)
		}
		releaseTables(tr, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// coldKeys is how many keys benchColdTree holds: benchKey(0..coldKeys-1).
const coldKeys = 96 * 1024

// benchColdTree is a three-deep tree (L0 + L1 + L2) of n hashed keys of the
// given length under an empty MemTable, and 1024 of its keys spread over all
// three levels.
func benchColdTree(b *testing.B, keyLen int) (*Tree, [][]byte) {
	tr := benchTree(b)
	const n = coldKeys
	tr.levels[2] = benchTables(b, tr, keyLen, 0, n/2, DefaultConfig().TablePages)
	tr.levels[1] = benchTables(b, tr, keyLen, n/2, n-4096, DefaultConfig().TablePages)
	tr.levels[0] = benchTables(b, tr, keyLen, n-4096, n, 0)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = benchKey(i*(n/len(keys)), keyLen)
	}
	return tr, keys
}

// BenchmarkColdGet is a point lookup that misses the MemTable in a three-deep
// tree, with the benchmark's 8-byte keys and with keys of MaxKeySize: for a
// key the tree holds, the filters pass one table and that table's page is
// searched; for an absent key (absent8) every filter rules its table out.
func BenchmarkColdGet(b *testing.B) {
	for _, tc := range []struct {
		name   string
		keyLen int
		absent bool
	}{{"key8", 8, false}, {"key16", MaxKeySize, false}, {"absent8", 8, true}} {
		b.Run(tc.name, func(b *testing.B) {
			tr, keys := benchColdTree(b, tc.keyLen)
			if tc.absent {
				for i := range keys {
					keys[i] = benchKey(coldKeys+i, tc.keyLen)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _, err := tr.Get(0, keys[i%len(keys)]); err != nil || ok == tc.absent {
					b.Fatalf("Get: found=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkSeek is what a Seek pays to place one table source: the first page
// that may hold the key, read from the store and entered at the key.
func BenchmarkSeek(b *testing.B) {
	tr, keys := benchColdTree(b, 8)
	var tables []*SSTable // tables[i] is the L2 table covering keys[i]
	for _, key := range keys {
		if table := tr.findInLevel(2, sim.KeyOf(key)); table != nil {
			keys[len(tables)] = key
			tables = append(tables, table)
		}
	}
	it := &Iterator{tree: tr}
	src := &iterSource{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(tables)]
		*src = iterSource{table: tables[i%len(tables)]}
		src.seekTable(sim.KeyOf(key))
		if err := src.advance(it, 0); err != nil || !src.hasCur || bytes.Compare(src.head.Key, key) < 0 {
			b.Fatalf("seek: head %x for %x, err %v", src.head.Key, key, err)
		}
	}
}
