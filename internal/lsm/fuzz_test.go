package lsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

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
	b := newTableBuilder(store, alloc, &tableScratch{page: make([]byte, store.PageSize())})
	for i := 0; i < 50; i++ {
		b.add(0, Entry{Key: []byte{byte(i), byte(i + 1)}, Addr: vlog.Addr(i), Size: uint32(i)})
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
		if _, found, err := searchPage(data, beyond, nil); walkErr != nil && !sawBeyond && (err == nil || found) {
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
			if err := c.seek(k, fuzzed); err == nil {
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
			if err := c.seek(k, trueRestarts); err != nil || c.off != want {
				t.Fatalf("seek(%x) with the page's own restarts %v: offset %d err %v, a walk says %d", k, trueRestarts, c.off, err, want)
			}
		}
	})
}
