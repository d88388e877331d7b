package cache

import (
	"encoding/binary"
	"testing"
)

// The tiers' index on its own, so a change to it shows in seconds (`go test
// -run '^$' -bench . -benchmem ./internal/cache`). The value tier holds a
// 256 Ki-key working set of 8-byte hashed keys and 32-byte values, visited in
// a fixed pseudo-random order; the page tier holds 4 096 page numbers spread
// over a million.

const benchKeys = 256 << 10

// benchKeySet returns n distinct 8-byte keys, a fixed permutation of uint64.
func benchKeySet(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		x := uint64(i)*0x9E3779B97F4A7C15 ^ 0x6b65797370616365
		x ^= x >> 32
		x *= 0xD6E8FEB86659FD93
		keys[i] = binary.BigEndian.AppendUint64(nil, x^x>>32)
	}
	return keys
}

// benchValues returns a value tier holding every key of keys.
func benchValues(b *testing.B, keys [][]byte) (*Values, []byte) {
	b.Helper()
	val := make([]byte, 32)
	c := NewValues(4*len(keys)*(8+len(val)), NewPolicy(LRU))
	for _, k := range keys {
		if _, ok := c.Put(k, val); !ok {
			b.Fatal("warm-up put refused")
		}
	}
	return c, val
}

var benchSink int

func BenchmarkValuesGet(b *testing.B) {
	keys := benchKeySet(benchKeys)
	c, _ := benchValues(b, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := c.Get(keys[i%len(keys)])
		benchSink += len(v)
	}
}

// BenchmarkValuesPut overwrites resident keys: each Put drops the old entry
// and admits the new one.
func BenchmarkValuesPut(b *testing.B) {
	keys := benchKeySet(benchKeys)
	c, val := benchValues(b, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], val)
	}
}

// BenchmarkValuesInvalidate drops resident keys; the tier is refilled, off
// the clock, each time every key has gone.
func BenchmarkValuesInvalidate(b *testing.B) {
	keys := benchKeySet(benchKeys)
	c, val := benchValues(b, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 && i > 0 {
			b.StopTimer()
			for _, k := range keys {
				c.Put(k, val)
			}
			b.StartTimer()
		}
		if !c.Invalidate(keys[j]) {
			b.Fatal("resident key not invalidated")
		}
	}
}

func BenchmarkPagesGet(b *testing.B) {
	const n = 4096
	c := NewPages(n, NewPolicy(LRU))
	pages := make([]int, n)
	for i := range pages {
		pages[i] = (i * 7919) % (1 << 20)
		c.Put(pages[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Get(pages[(i*31)%n]) {
			benchSink++
		}
	}
}
