package lsm

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"bandslim/internal/vlog"
)

// linearSeek is the lookup this package shipped before restart points, kept as
// the oracle: walk the page from byte 0 and stop at the first key >= target.
// It reports where that entry starts (the end of the entries when none is) and
// the entry itself when its key equals the target.
func linearSeek(tb testing.TB, data, key []byte) (off int, e Entry, found bool) {
	tb.Helper()
	c := pageCursor{data: data}
	for {
		from := c.off
		ok, err := c.next(&e)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return from, Entry{}, false
		}
		if cmp := bytes.Compare(e.Key, key); cmp >= 0 {
			return from, e, cmp == 0
		}
	}
}

// neighbours returns the keys just below and just above k in byte order (as
// far as MaxKeySize lets them exist), so lookups land between entries, before
// the first and after the last.
func neighbours(k []byte) [][]byte {
	var out [][]byte
	if len(k) < MaxKeySize {
		out = append(out, append(append([]byte(nil), k...), 0)) // the immediate successor
	}
	if last := len(k) - 1; k[last] > 0 {
		below := append([]byte(nil), k...)
		below[last]--
		out = append(out, below, append(below, bytes.Repeat([]byte{0xFF}, MaxKeySize-len(k))...))
	} else if last > 0 {
		out = append(out, k[:last]) // the immediate predecessor
	}
	if last := len(k) - 1; k[last] < 0xFF {
		above := append([]byte(nil), k...)
		above[last]++
		out = append(out, above)
	}
	return out
}

// Over random pages — key lengths 1 to 16 mixed, tombstones, 1 entry, exactly
// restartInterval, one more, and pages filled to the brim — the restart search
// finds what the linear walk finds and stops where it stops, for every present
// key and for the keys just before, after and between them.
func TestSeekMatchesLinearWalk(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := newMemStore(1024)
		store.pageSize = 512 << rng.Intn(6) // 512 B .. 16 KiB
		tr, err := NewTree(smallTreeConfig(), store)
		if err != nil {
			t.Fatal(err)
		}
		// Entry counts around the restart interval, then enough to fill pages.
		count := []int{1, 2, restartInterval - 1, restartInterval, restartInterval + 1,
			2 * restartInterval, 2*restartInterval + 1, 5000}[seed%8]
		maxLen := 1 + rng.Intn(MaxKeySize)
		if count > 200 {
			maxLen = MaxKeySize // room for 5000 distinct keys
		}
		seen := map[string]bool{}
		var entries []Entry
		for len(entries) < count {
			k := make([]byte, 1+rng.Intn(maxLen))
			for i := range k {
				k[i] = byte(rng.Intn(256) &^ (rng.Intn(2) * 0xFC)) // half the bytes from {0..3}: long shared prefixes
			}
			if maxLen == 1 && len(seen) == 256 {
				break
			}
			if seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			entries = append(entries, Entry{Key: k, Addr: vlog.Addr(rng.Int63n(1 << 40)), Size: rng.Uint32(), Tombstone: rng.Intn(5) == 0})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
		table := buildTables(t, tr, entries, 0)[0]
		if count == 5000 && len(table.pages) < 3 {
			t.Fatalf("seed %d: %d pages, want full ones", seed, len(table.pages))
		}
		checkRestarts(t, store, table)

		next := 0 // entries[next] is the first entry of the page under test
		for pi, pg := range table.pages {
			page, _, _ := store.ReadPage(0, pg)
			restarts := table.pageRestarts(pi)
			inPage := 0
			for c, e := (pageCursor{data: page}), (Entry{}); ; inPage++ {
				if ok, _ := c.next(&e); !ok {
					break
				}
			}
			probes := [][]byte{{0}, bytes.Repeat([]byte{0xFF}, MaxKeySize)}
			for _, e := range entries[next : next+inPage] {
				probes = append(probes, e.Key)
				probes = append(probes, neighbours(e.Key)...)
			}
			next += inPage
			for _, k := range probes {
				wantOff, want, wantFound := linearSeek(t, page, k)
				c := pageCursor{data: page}
				if err := c.seek(k, restarts); err != nil || c.off != wantOff {
					t.Fatalf("seed %d page %d (%d entries): seek(%x) = offset %d err %v, the walk stops at %d", seed, pi, inPage, k, c.off, err, wantOff)
				}
				got, found, err := searchPage(page, k, restarts)
				if err != nil || found != wantFound {
					t.Fatalf("seed %d page %d: searchPage(%x) found=%v err=%v, the walk found=%v", seed, pi, k, found, err, wantFound)
				}
				if found && (!bytes.Equal(got.Key, k) || got.Addr != want.Addr || got.Size != want.Size || got.Tombstone != want.Tombstone) {
					t.Fatalf("seed %d page %d: searchPage(%x) = %+v, the walk %+v", seed, pi, k, got, want)
				}
			}
		}
		if next != len(entries) {
			t.Fatalf("seed %d: pages hold %d entries of %d", seed, next, len(entries))
		}
	}
}

// Restart offsets and bounds are 16 bits: a store whose pages are too large to
// address and a table too large to index are refused with an error, not
// truncated.
func TestRestartIndexLimits(t *testing.T) {
	huge := newMemStore(4)
	huge.pageSize = 1<<16 + 1
	if _, err := NewTree(smallTreeConfig(), huge); err == nil {
		t.Fatal("a page size past 64 KiB was accepted")
	}
	store := newMemStore(1 << 17)
	store.pageSize = 64 // three 19-byte entries a page: one bound each, no restart
	tr, err := NewTree(smallTreeConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	b := newTableBuilder(tr.store, tr.alloc, &tr.build)
	for i := 0; i < 3*(1<<16); i++ {
		if err := b.add(0, Entry{Key: key(i), Addr: vlog.Addr(i), Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if table, _, err := b.finish(0); err == nil {
		t.Fatalf("a table of %d pages got a 16-bit restart index of %d slots", len(table.pages), len(table.restarts))
	}
}
