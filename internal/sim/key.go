package sim

import (
	"cmp"
	"encoding/binary"
)

// Key is a key held inline, as an NVMe KV command carries it in its 16-byte
// key field: its first 16 bytes as two big-endian words, zero-padded, and its
// whole length. Zero padding with the length as the tie-break orders keys of
// at most 16 bytes exactly as bytes.Compare does ("ab" < "ab\x00" <
// "ab\x00\x01" < "ab\x01"), and a longer key sorts after every such key that
// is a prefix of it and equals none of them.
//
// The words are separate scalars: a struct holding a [2]uint64 is not
// SSA-able in Go, and passing such a key by value costs a lookup several
// times over.
type Key struct {
	W0, W1 uint64
	N      int
}

// KeyOf returns k's inline form.
func KeyOf(k []byte) Key {
	key := Key{W0: prefix(k), N: len(k)}
	if len(k) > 8 {
		key.W1 = prefix(k[8:])
	}
	return key
}

// prefix packs the first eight bytes of k big-endian, zero-padded.
func prefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// Compare orders k and o as bytes.Compare orders the keys they hold (see
// Key): -1, 0 or +1.
func (k Key) Compare(o Key) int {
	if c := cmp.Compare(k.W0, o.W0); c != 0 {
		return c
	}
	if c := cmp.Compare(k.W1, o.W1); c != 0 {
		return c
	}
	return cmp.Compare(k.N, o.N)
}

// Less reports whether k sorts before o: Compare(o) < 0, decided by the
// first word that differs.
func (k Key) Less(o Key) bool {
	if k.W0 != o.W0 {
		return k.W0 < o.W0
	}
	if k.W1 != o.W1 {
		return k.W1 < o.W1
	}
	return k.N < o.N
}

// Hash is the key's hash for open-addressing tables: every bit of both words
// and the length reaches the low bits a table masks.
func (k Key) Hash() uint64 {
	h := (k.W0 ^ uint64(k.N)) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32 ^ k.W1) * 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// FilterHash is the hash a key is filtered by: Mix64 folded over each of the
// key's words that holds one of its bytes, starting from its length. A key
// longer than 16 bytes hashes by its first 16 and its length.
func (k Key) FilterHash() uint64 {
	h := uint64(k.N) * 0x9E3779B97F4A7C15
	if k.N > 0 {
		h = Mix64(h ^ k.W0)
	}
	if k.N > 8 {
		h = Mix64(h ^ k.W1)
	}
	return h
}
