package lsm

import (
	"bytes"
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

// FuzzDecodePage drives the one page decoder — the cursor behind lookups,
// iterators and compaction — over arbitrary page bytes. It must never panic;
// every entry it yields has a legal key and re-encodes to the bytes it was
// parsed from (reserved flag bits aside); and a point lookup refuses a page
// whose corruption lies before the key it is looking for.
func FuzzDecodePage(f *testing.F) {
	store := newMemStore(16)
	alloc := newPageAllocator(16)
	b := newTableBuilder(store, alloc, 1, make([]byte, store.PageSize()))
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
	beyond := bytes.Repeat([]byte{0xFF}, MaxKeySize) // >= every legal key
	f.Fuzz(func(t *testing.T, data []byte) {
		c := pageCursor{data: data}
		var walkErr error
		sawBeyond := false
		re := make([]byte, entryFixed+MaxKeySize)
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
		}
		if c.off > len(data) {
			t.Fatalf("cursor ran to %d of %d bytes", c.off, len(data))
		}
		if _, found, err := searchPage(data, beyond); walkErr != nil && !sawBeyond && (err == nil || found) {
			t.Fatalf("lookup past a corrupt entry (%v) answered found=%v err=%v", walkErr, found, err)
		}
	})
}
