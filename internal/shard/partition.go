package shard

import (
	"fmt"

	"bandslim/internal/sim"
)

// Partitioner assigns keys to shards with sim.Feistel, the keyed 32-bit
// permutation internal/workload also generates keys with: the key bytes fold
// to 32 bits, the 4-round permutation decorrelates them from any structure in
// the key space (sequential fillseq keys spread evenly), and the result
// reduces modulo the shard count. The assignment is a pure function of (key, seed),
// so a workload replays onto the same shards in every run.
type Partitioner struct {
	f sim.Feistel
	n uint32
}

// NewPartitioner returns a partitioner over shards shards, keyed by seed.
func NewPartitioner(shards int, seed uint64) (*Partitioner, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: partitioner needs >= 1 shard, got %d", shards)
	}
	return &Partitioner{f: sim.NewFeistel(seed), n: uint32(shards)}, nil
}

// Shard maps a key to its shard index in [0, shards).
func (p *Partitioner) Shard(key []byte) int {
	if p.n == 1 {
		return 0
	}
	return int(p.f.Permute(fold(key)) % p.n)
}

// fold collapses a key of any length (the API allows 1–16 bytes) into the
// 32-bit domain of the Feistel permutation, FNV-1a style.
func fold(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}
