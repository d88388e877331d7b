package lsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// FuzzDecodeEntry hardens the SSTable entry decoder against corrupt page
// bytes: it must never panic, and every successful decode must re-encode to
// the same bytes it consumed.
func FuzzDecodeEntry(f *testing.F) {
	// Seed with a valid encoding and a few mutations.
	e := Entry{Key: []byte("seedkey"), Addr: 123456, Size: 789, Tombstone: true}
	buf := make([]byte, encodedLen(e))
	encodeEntry(buf, e)
	f.Add(buf)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{16}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := decodeEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if len(got.Key) == 0 || len(got.Key) > MaxKeySize {
			t.Fatalf("decoded key length %d", len(got.Key))
		}
		// Semantic round trip: re-encoding and re-decoding must be a fixed
		// point (reserved flag bits are not preserved, so byte identity is
		// not required).
		re := make([]byte, encodedLen(got))
		m := encodeEntry(re, got)
		if m != n {
			t.Fatalf("re-encode length %d, decoded %d", m, n)
		}
		got2, n2, err := decodeEntry(re)
		if err != nil || n2 != m {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(got2.Key, got.Key) || got2.Addr != got.Addr ||
			got2.Size != got.Size || got2.Tombstone != got.Tombstone {
			t.Fatalf("semantic mismatch: %+v vs %+v", got2, got)
		}
	})
}

// FuzzMemTable runs put, tombstone, get, seek and recycle ops against a
// sorted-slice reference. An op is two bytes — the op, a key length — and then
// that many key bytes. A length of 0 or past MaxKeySize must be refused by Put
// and is still a legal Get or Seek target. A Seek pins the table, so a later
// recycle starts a fresh one; without a Seek the table is reset in place.
//
// Two ops check the live view: one Seeks an iterator that stays open across
// the ops that follow, the other advances it one step, which must yield the
// reference's first key past the last one it yielded (at or past the Seek
// target for the first), reading the table it was opened on as it is now —
// or as it was when recycled — and, once it has ended, nothing more.
func FuzzMemTable(f *testing.F) {
	f.Add([]byte("\x00\x02ab\x00\x03ab\x00\x01\x04ab\x00\x01\x00\x03ab\x01\x02\x03ab\x00\x03\x01a\x04\x00\x00\x02ab\x03\x00"))
	f.Add(append([]byte{0, 16}, bytes.Repeat([]byte{0xFF}, 16)...))
	f.Add([]byte("\x00\x01k\x00\x11kkkkkkkkkkkkkkkkk\x03\x11kkkkkkkkkkkkkkkkk\x02\x01k\x04\x00\x00\x01k"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMemTable(8)
		var ref []Entry
		// The live scan: its iterator, its table's reference once that table
		// is recycled, and where its next entry lies.
		var live *MemIterator
		var liveRef []Entry
		var liveFrom []byte
		var livePast, liveDone bool
		for seq := 0; len(data) >= 2; seq++ {
			op, kl := data[0]%7, min(int(data[1])%(MaxKeySize+4), len(data)-2)
			k := data[2 : 2+kl]
			data = data[2+kl:]
			i := sort.Search(len(ref), func(i int) bool { return bytes.Compare(ref[i].Key, k) >= 0 })
			found := i < len(ref) && bytes.Equal(ref[i].Key, k)
			switch op {
			case 0, 1: // put, tombstone
				e := Entry{Key: append([]byte(nil), k...), Addr: vlog.Addr(seq), Size: uint32(seq), Tombstone: op == 1}
				err := m.Put(k, e.Addr, e.Size, e.Tombstone)
				if legal := kl >= 1 && kl <= MaxKeySize; (err == nil) != legal {
					t.Fatalf("Put of a %d-byte key: err %v", kl, err)
				}
				switch {
				case err != nil:
				case found:
					ref[i] = e
				default:
					ref = slices.Insert(ref, i, e)
				}
			case 2:
				if e, ok := m.Get(sim.KeyOf(k)); ok != found || ok && !sameEntry(e, ref[i]) {
					t.Fatalf("Get(%x) = %x → %d %v, want found=%v", k, e.Key, e.Addr, ok, found)
				}
			case 3:
				it := m.Iterator()
				it.Seek(sim.KeyOf(k))
				if err := memTail(it, ref[i:]); err != nil {
					t.Fatalf("Seek(%x): %v", k, err)
				}
			case 4:
				if live != nil && live.m == m {
					liveRef = ref
				}
				m, ref = m.recycle(), nil
			case 5:
				live = m.Iterator()
				live.Seek(sim.KeyOf(k))
				liveFrom, livePast, liveDone = append([]byte(nil), k...), false, false
			case 6:
				if live == nil {
					break
				}
				r := liveRef
				if live.m == m {
					r = ref
				}
				j := sort.Search(len(r), func(j int) bool {
					c := bytes.Compare(r[j].Key, liveFrom)
					return c > 0 || c == 0 && !livePast
				})
				ok := live.Next()
				if want := !liveDone && j < len(r); ok != want {
					t.Fatalf("live Next after %x (past %v) = %v, want %v", liveFrom, livePast, ok, want)
				}
				if ok {
					if e := live.Entry(); !sameEntry(e, r[j]) {
						t.Fatalf("live Next after %x (past %v) yielded %x → %d, want %x → %d", liveFrom, livePast, e.Key, e.Addr, r[j].Key, r[j].Addr)
					}
					liveFrom, livePast = r[j].Key, true
				}
				liveDone = !ok
			}
		}
		if err := memTail(m.Iterator(), ref); err != nil {
			t.Fatalf("final scan: %v", err)
		}
	})
}

// fuzzRestarts reads a fuzzed restart slice off the tail of the fuzz input:
// the last byte is a count, the 2*count bytes before it little-endian offsets.
// The page under test is still the whole input — a page's bytes past its
// end-of-page sentinel are never parsed, so a well-formed input carries its
// restarts there — which keeps the target's signature and its corpus.
func fuzzRestarts(data []byte) []uint16 {
	if len(data) == 0 {
		return nil
	}
	n := min(int(data[len(data)-1])%64, (len(data)-1)/2)
	tail := data[len(data)-1-2*n:]
	restarts := make([]uint16, n)
	for i := range restarts {
		restarts[i] = binary.LittleEndian.Uint16(tail[2*i:])
	}
	return restarts
}

// withRestarts is fuzzRestarts' inverse: page bytes, the sentinel, then the
// restart slice and its count.
func withRestarts(entries []byte, restarts []uint16) []byte {
	out := append(append([]byte(nil), entries...), 0)
	for _, r := range restarts {
		out = binary.LittleEndian.AppendUint16(out, r)
	}
	return append(out, byte(len(restarts)))
}

// FuzzDecodePage drives the one page decoder — the cursor behind lookups,
// iterators and compaction — over arbitrary page bytes. It must never panic;
// every entry it yields has a legal key and re-encodes to the bytes it was
// parsed from (reserved flag bits aside); and a point lookup refuses a page
// whose corruption lies before the key it is looking for. seek is driven with
// a fuzzed restart slice too (out of range, unsorted, mid-entry): an error or
// a position inside the page, never a panic or a read past the end; and over a
// well-formed page with its true restarts it lands where a linear walk does.
func FuzzDecodePage(f *testing.F) {
	store := newMemStore(16)
	alloc := newPageAllocator(16)
	b := (&tableBuilder{store: store, alloc: alloc, page: make([]byte, store.PageSize())}).start()
	for i := 0; i < 50; i++ {
		k := []byte{byte(i), byte(i + 1)}
		b.add(0, Entry{Key: k, Addr: vlog.Addr(i), Size: uint32(i)}, sim.KeyOf(k))
	}
	table, _, err := b.finish(0)
	if err != nil || table == nil {
		f.Fatal("seed table build failed")
	}
	page, _, err := store.ReadPage(0, table.pages[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), page...))
	f.Add([]byte{3, 1, 2})
	// A valid entry followed by one whose key length is a released page's
	// poison byte.
	f.Add(append(append([]byte(nil), page[:entryFixed+2]...), bytes.Repeat([]byte{0xDB}, 32)...))
	// The same page carrying its own restart slice; testdata holds the hostile
	// ones (out of range, unsorted, mid-entry).
	f.Add(withRestarts(page[:50*(entryFixed+2)], table.pageRestarts(0)))
	beyond := bytes.Repeat([]byte{0xFF}, MaxKeySize) // >= every legal key
	f.Fuzz(func(t *testing.T, data []byte) {
		c := pageCursor{data: data}
		var walkErr error
		sawBeyond := false
		re := make([]byte, entryFixed+MaxKeySize)
		// What a linear walk learns: where each entry starts, the page's true
		// restarts, and whether the keys ascend as a built page's do.
		var starts []int
		var trueRestarts []uint16
		var prev []byte
		sorted := true
		for {
			from := c.off
			var e Entry
			ok, err := c.next(&e)
			if !ok {
				walkErr = err
				break
			}
			if len(e.Key) == 0 || len(e.Key) > MaxKeySize {
				t.Fatalf("bad decoded key %x", e.Key)
			}
			n := encodeEntry(re, e)
			consumed := append([]byte(nil), data[from:c.off]...)
			consumed[len(consumed)-1] &= flagTombstone
			if !bytes.Equal(re[:n], consumed) {
				t.Fatalf("entry at %d re-encodes to %x, parsed from %x", from, re[:n], consumed)
			}
			sawBeyond = sawBeyond || bytes.Equal(e.Key, beyond)
			if len(starts) > 0 && len(starts)%restartInterval == 0 && from <= math.MaxUint16 {
				trueRestarts = append(trueRestarts, uint16(from))
			}
			sorted = sorted && bytes.Compare(prev, e.Key) < 0
			starts, prev = append(starts, from), e.Key
		}
		end := c.off
		if end > len(data) {
			t.Fatalf("cursor ran to %d of %d bytes", end, len(data))
		}
		if _, found, err := searchPage(data, sim.KeyOf(beyond), nil); walkErr != nil && !sawBeyond && (err == nil || found) {
			t.Fatalf("lookup past a corrupt entry (%v) answered found=%v err=%v", walkErr, found, err)
		}

		// Probe keys: each of the first entries' keys and its neighbour above,
		// the smallest key and the largest.
		probes := [][]byte{{0}, beyond}
		for _, from := range starts[:min(len(starts), 40)] {
			k := data[from+1 : from+1+int(data[from])]
			probes = append(probes, k, append(append([]byte(nil), k...), 0)[:min(len(k)+1, MaxKeySize)])
		}
		fuzzed := fuzzRestarts(data)
		for _, k := range probes {
			c := pageCursor{data: data}
			if err := c.seek(sim.KeyOf(k), fuzzed); err == nil {
				var e Entry
				if c.off > len(data) {
					t.Fatalf("seek(%x, %v) ran to %d of %d bytes", k, fuzzed, c.off, len(data))
				}
				if ok, _ := c.next(&e); ok && (len(e.Key) == 0 || len(e.Key) > MaxKeySize) {
					t.Fatalf("seek(%x, %v) yields key %x", k, fuzzed, e.Key)
				}
			}
			if walkErr != nil || !sorted || len(data) > math.MaxUint16 {
				continue
			}
			want := end
			for _, from := range starts {
				if bytes.Compare(data[from+1:from+1+int(data[from])], k) >= 0 {
					want = from
					break
				}
			}
			c = pageCursor{data: data}
			if err := c.seek(sim.KeyOf(k), trueRestarts); err != nil || c.off != want {
				t.Fatalf("seek(%x) with the page's own restarts %v: offset %d err %v, a walk says %d", k, trueRestarts, c.off, err, want)
			}
		}
	})
}

// fuzzMergeInputs decodes a FuzzMerge input into a page size and groups of
// key-ordered entries, each group one input table or, if chained, a run of
// one-page tables. The first byte picks the page size (128–512 B); then each
// group is a header byte — entry count, and whether the group is chained —
// and two bytes per entry: the key's first and last byte, and its length
// (1–16) with the tombstone bit. Keys of one first byte and different
// lengths whose last byte is zero differ only by trailing zero bytes, and the
// key space is small enough that groups share keys. At most 9 groups are
// decoded; FuzzMerge keeps at most 9 tables.
func fuzzMergeInputs(data []byte) (pageSize int, groups [][]Entry, chained []bool) {
	if len(data) == 0 {
		return 0, nil, nil
	}
	pageSize, data = 128+int(data[0])%385, data[1:]
	var addr vlog.Addr
	for len(data) > 0 && len(groups) < 9 {
		h := data[0]
		n := min(int(h%32)+1, (len(data)-1)/2)
		var es []Entry
		for i := 1; i < 1+2*n; i += 2 {
			k := make([]byte, int(data[i+1]%16)+1)
			k[0] = data[i] & 7
			k[len(k)-1] |= data[i] >> 3 & 3
			addr += 7
			es = append(es, Entry{Key: k, Addr: addr, Size: uint32(addr) * 3, Tombstone: data[i+1] >= 0xC0})
		}
		data = data[1+2*n:]
		slices.SortStableFunc(es, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
		es = slices.CompactFunc(es, func(a, b Entry) bool { return bytes.Equal(a.Key, b.Key) })
		if len(es) > 0 {
			groups, chained = append(groups, es), append(chained, h&0x40 != 0)
		}
	}
	return pageSize, groups, chained
}

// fuzzEntries returns the image of every input page from each of its
// entries on, in input order: a view into the store's own copy.
func fuzzEntries(store *memStore, inputs []*SSTable) [][]byte {
	var at [][]byte
	for _, table := range inputs {
		for _, pg := range table.pages {
			page := store.pages[pg]
			for off := 0; off < len(page); {
				_, _, _, _, n, err := parseEntry(page[off:])
				if err != nil {
					break
				}
				at, off = append(at, page[off:]), off+n
			}
		}
	}
	return at
}

// FuzzMerge runs the merge and the materialising reference merge kept in
// merge_test.go over the same decoded inputs, both into the bottom level and
// not, and requires the same output tables byte for byte: pages, fence keys,
// restart index and filter words, and the same finish time, counters and
// pages in use. Every third input entry carries the reserved flag bits of
// the input's last byte, which both must drop. Then it damages one entry of
// one input page, picked by that byte too, and requires the merge to fail.
func FuzzMerge(f *testing.F) {
	f.Add([]byte("\x00\x05aAbBcCdDeE\x45aAbBcCdDeEfF"))
	f.Add([]byte("\xff\x4a\x01\x10\x09\x11\x11\x12\x19\x13\x21\x14\x29\x15\x31\x16\x39\x17\x41\x1f\x49\x0f\x51\xcf\x08\x01\x08\x02\x08\x03\x08\x0f"))
	f.Add([]byte("\x80\x47\x00\x00\x00\x01\x00\x02\x00\x07\x00\x08\x00\x0f\x08\x00\x07\x03\x00\xc0\x00\xc1\x00\xc7\x00\xcf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pageSize, groups, chained := fuzzMergeInputs(data)
		if len(groups) == 0 {
			return
		}
		build := func() (*Tree, *memStore, []*SSTable) {
			store := newMemStore(4096)
			store.pageSize = pageSize
			tr, err := NewTree(smallTreeConfig(), store)
			if err != nil {
				t.Fatal(err)
			}
			var inputs []*SSTable
			for i, es := range groups {
				pages := 0
				if chained[i] {
					pages = 1
				}
				inputs = append(inputs, buildTables(t, tr, es, pages)...)
			}
			inputs = inputs[:min(len(inputs), 9)]
			for i, e := range fuzzEntries(store, inputs) {
				if i%3 == 0 {
					e[int(e[0])+entryFixed-1] |= data[len(data)-1] &^ flagTombstone
				}
			}
			return tr, store, inputs
		}
		for _, bottom := range []bool{false, true} {
			tr, store, inputs := build()
			ref, refStore, refInputs := build()
			got, gotEnd, err := tr.merge(3, inputs, bottom)
			if err != nil {
				t.Fatalf("bottom=%v: merge: %v", bottom, err)
			}
			want, wantEnd, err := referenceMerge(ref, 3, refInputs, bottom)
			if err != nil {
				t.Fatalf("bottom=%v: reference: %v", bottom, err)
			}
			if len(got) != len(want) || gotEnd != wantEnd || tr.stats != ref.stats || pagesInUse(tr.alloc) != pagesInUse(ref.alloc) {
				t.Fatalf("bottom=%v: %d tables ending %v, counters %+v; reference %d ending %v, %+v",
					bottom, len(got), gotEnd, tr.stats, len(want), wantEnd, ref.stats)
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.smallest != w.smallest || g.largest != w.largest ||
					!slices.Equal(g.pages, w.pages) || !slices.Equal(g.fences, w.fences) ||
					!slices.Equal(g.restarts, w.restarts) || !slices.Equal(g.filter, w.filter) {
					t.Fatalf("bottom=%v: table %d = %+v, reference %+v", bottom, i, g, w)
				}
				for _, pg := range g.pages {
					if !bytes.Equal(store.pages[pg], refStore.pages[pg]) {
						t.Fatalf("bottom=%v: table %d page %d = %x, reference %x", bottom, i, pg, store.pages[pg], refStore.pages[pg])
					}
				}
			}
		}

		// Damage: the key length of one entry of one input page becomes the
		// poison byte of a released page.
		tr, store, inputs := build()
		entries := fuzzEntries(store, inputs)
		entries[int(data[len(data)-1])%len(entries)][0] = 0xDB
		if _, _, err := tr.merge(3, inputs, data[len(data)-1]&1 != 0); err == nil {
			t.Fatal("merge over a damaged entry succeeded")
		}
	})
}
