package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

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

// benchTables builds tables holding keys [from, to) in key order, cut every
// tablePages pages (0: one table).
func benchTables(b *testing.B, tr *Tree, keyLen, from, to, tablePages int) []*SSTable {
	b.Helper()
	entries := make([]Entry, 0, to-from)
	for i := from; i < to; i++ {
		entries = append(entries, Entry{Key: benchKey(i, keyLen), Addr: vlog.Addr(i), Size: 64})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
	return buildTables(b, tr, entries, tablePages)
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
	l1 := benchTables(b, tr, 8, next, next+32*1024, cfg.TablePages)
	inputs = append(inputs, l1...)
	entries := 0
	for _, t := range inputs {
		entries += t.entries
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := tr.merge(0, inputs, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range out {
			for _, pg := range t.pages {
				tr.alloc.free(pg)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// benchColdTree is a three-deep tree (L0 + L1 + L2) of n hashed keys of the
// given length under an empty MemTable, and 1024 of its keys spread over all
// three levels.
func benchColdTree(b *testing.B, keyLen int) (*Tree, [][]byte) {
	tr := benchTree(b)
	const n = 96 * 1024
	tr.levels[2] = benchTables(b, tr, keyLen, 0, n/2, DefaultConfig().TablePages)
	tr.levels[1] = benchTables(b, tr, keyLen, n/2, n-4096, DefaultConfig().TablePages)
	tr.levels[0] = benchTables(b, tr, keyLen, n-4096, n, 0)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = benchKey(i*(n/len(keys)), keyLen)
	}
	return tr, keys
}

// BenchmarkColdGet is a point lookup that misses the MemTable and searches one
// page per level of a three-deep tree, with the benchmark's 8-byte keys and
// with keys of MaxKeySize.
func BenchmarkColdGet(b *testing.B) {
	for _, keyLen := range []int{8, MaxKeySize} {
		b.Run(fmt.Sprintf("key%d", keyLen), func(b *testing.B) {
			tr, keys := benchColdTree(b, keyLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _, err := tr.Get(0, keys[i%len(keys)]); err != nil || !ok {
					b.Fatalf("Get: found=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkSeek is what a Seek pays to place one table source: the first page
// that may hold the key, copied out of the store and entered at the key.
func BenchmarkSeek(b *testing.B) {
	tr, keys := benchColdTree(b, 8)
	var tables []*SSTable // tables[i] is the L2 table covering keys[i]
	for _, key := range keys {
		if table := tr.findInLevel(2, key); table != nil {
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
		*src = iterSource{table: tables[i%len(tables)], page: src.page}
		src.seekTable(key)
		if err := src.advance(it, 0); err != nil || !src.hasCur || bytes.Compare(src.head.Key, key) < 0 {
			b.Fatalf("seek: head %x for %x, err %v", src.head.Key, key, err)
		}
	}
}
