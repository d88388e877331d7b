package sim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// keysUpTo returns every key of at most n bytes over alphabet.
func keysUpTo(n int, alphabet []byte) [][]byte {
	keys := [][]byte{{}}
	for prev := keys; n > 0; n-- {
		var next [][]byte
		for _, k := range prev {
			for _, b := range alphabet {
				next = append(next, append(k[:len(k):len(k)], b))
			}
		}
		keys, prev = append(keys, next...), next
	}
	return keys
}

// A Key compares as bytes.Compare compares the keys it holds, and Less
// agrees — exhaustively over the keys of up to 3 bytes of an alphabet with a
// zero byte, whose padding is where a packing goes wrong, and over random
// keys of up to 16 bytes that share long prefixes — and two Keys are equal
// only for equal keys.
func TestKeyComparesAsBytes(t *testing.T) {
	keys := keysUpTo(3, []byte{0, 1, 0xFF})
	rng := rand.New(rand.NewSource(1))
	base := []byte("abcdefgh\x00\x00ijklmn")
	for i := 0; i < 400; i++ {
		k := append([]byte(nil), base[:rng.Intn(len(base)+1)]...)
		if len(k) > 0 && rng.Intn(2) == 0 {
			k[rng.Intn(len(k))] = []byte{0, 0xFF}[rng.Intn(2)]
		}
		keys = append(keys, k)
	}
	for _, a := range keys {
		for _, b := range keys {
			ka, kb := KeyOf(a), KeyOf(b)
			if got, want := ka.Compare(kb), bytes.Compare(a, b); got != want || ka.Less(kb) != (want < 0) {
				t.Fatalf("KeyOf(%x).Compare(KeyOf(%x)) = %d (Less %v), bytes.Compare %d", a, b, got, ka.Less(kb), want)
			}
			if (ka == kb) != bytes.Equal(a, b) {
				t.Fatalf("KeyOf(%x) == KeyOf(%x) is %v", a, b, ka == kb)
			}
		}
	}
}

// A Seek target longer than 16 bytes sorts after every stored key that is a
// prefix of it — including the one holding its first 16 bytes, whose words
// it shares — and as bytes.Compare sorts it against every other stored key.
func TestKeyLongTargetSortsAfterItsPrefixes(t *testing.T) {
	stored := keysUpTo(2, []byte{0, 'a'})
	for n := 0; n <= 16; n++ {
		stored = append(stored, bytes.Repeat([]byte{'a'}, n), append(bytes.Repeat([]byte{'a'}, n), 0))
	}
	for _, target := range [][]byte{
		bytes.Repeat([]byte{'a'}, 17),
		append(bytes.Repeat([]byte{'a'}, 16), 0),
		append(bytes.Repeat([]byte{'a'}, 16), bytes.Repeat([]byte{0}, 300)...),
		append([]byte{'a'}, make([]byte, 20)...),
		make([]byte, 17),
	} {
		kt := KeyOf(target)
		for _, s := range stored {
			if len(s) > 16 {
				continue
			}
			got, want := KeyOf(s).Compare(kt), bytes.Compare(s, target)
			if got != want || bytes.HasPrefix(target, s) && got != -1 {
				t.Fatalf("stored %x against the %d-byte target %x: Compare %d, bytes.Compare %d", s, len(target), target, got, want)
			}
		}
	}
}

// refKeyHash is the filter hash written over the key's bytes: Mix64 folded
// over the big-endian 8-byte words of the key's first 16 bytes, the last
// zero-padded, starting from its whole length.
func refKeyHash(k []byte) uint64 {
	h := uint64(len(k)) * 0x9E3779B97F4A7C15
	k = k[:min(len(k), 16)]
	for len(k) >= 8 {
		h = Mix64(h ^ binary.BigEndian.Uint64(k))
		k = k[8:]
	}
	if len(k) > 0 {
		var w uint64
		for i, b := range k {
			w |= uint64(b) << (56 - 8*i)
		}
		h = Mix64(h ^ w)
	}
	return h
}

// FilterHash decides which filter bits a key sets, and so which page reads a
// lookup skips: taken from the key's inline words, it must keep refKeyHash's
// exact output for every key — of every length from 0 to 16, longer than 16,
// and apart from another only in trailing zero bytes, which share its words
// and differ in length alone.
func TestKeyHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(k []byte) {
		t.Helper()
		if got, want := KeyOf(k).FilterHash(), refKeyHash(k); got != want {
			t.Fatalf("KeyOf(%x).FilterHash() = %#x, reference %#x", k, got, want)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 40, 255} {
		k := make([]byte, n)
		for i := 0; i < 200; i++ {
			check(k)
			rng.Read(k)
		}
	}
	seen := map[uint64][]byte{}
	for _, base := range [][]byte{{}, []byte("a"), []byte("abcdefg"), []byte("abcdefgh"), []byte("abcdefghijklmno")} {
		for pad := 0; len(base)+pad <= 20; pad++ {
			k := append(append([]byte(nil), base...), make([]byte, pad)...)
			check(k)
			if h := KeyOf(k).FilterHash(); len(k) <= 16 {
				if prev, dup := seen[h]; dup && !bytes.Equal(prev, k) {
					t.Fatalf("%x and %x, apart only in trailing zeros, share a filter hash", prev, k)
				}
				seen[h] = k
			}
		}
	}
}
