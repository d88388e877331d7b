package driver

// Host-side negative cache: a per-driver (per-shard) record of keys the
// device recently reported missing, consulted before any NVMe command is
// built. Two structures cooperate:
//
//   - An exact recent-miss ring (map + fixed-capacity key ring) is the
//     authoritative short-circuit. Only keys present in the ring skip the
//     device, so a hit can never wrongly report an existing key as missing.
//   - A bloom filter is admission control, not a lookup structure: the first
//     not-found for a key only sets its bloom bits; a repeat not-found on a
//     bloom-positive key admits it to the ring. One-hit-wonder misses — the
//     long tail of a scan over absent keys — never consume ring slots, so
//     the ring holds the misses that actually repeat. A bloom false positive
//     merely admits a key one observation early; it cannot corrupt results.
//
// Coherence: Put forgets the key (it exists now), a successful Delete
// inserts it directly (known missing, no admission needed), and Recover
// clears everything (journal replay can restore writes whose acknowledgment
// the power cut swallowed).

import (
	"bandslim/internal/nvme"
	"bandslim/internal/pool"
	"bandslim/internal/sim"
)

// errNegativeHit is the preallocated not-found error short-circuited Gets
// return, so the negative-hit path allocates nothing. It is
// indistinguishable from a device-reported miss under nvme.StatusOf; the
// windowed GetBatch returns it for negative hits when no miss slice absorbs
// not-founds.
var errNegativeHit error = &nvme.StatusError{Status: nvme.StatusKeyNotFound}

// negCache is the recent-miss ring plus its bloom admission filter.
type negCache struct {
	idx   map[string]int
	keys  [][]byte // ring of arena-backed key copies
	next  int      // ring cursor (oldest slot, overwritten on insert)
	cap   int
	bloom sim.Bloom
	arena pool.Bytes
}

// bloomKeysPerEntry oversizes the filter relative to the ring so admission
// stays selective even when the miss working set exceeds the ring.
const bloomKeysPerEntry = 2

func newNegCache(entries int) *negCache {
	return &negCache{
		idx:   make(map[string]int, entries),
		keys:  make([][]byte, entries),
		cap:   entries,
		bloom: make(sim.Bloom, sim.BloomWords(entries*bloomKeysPerEntry)),
	}
}

// known reports whether key is in the exact ring (zero-allocation lookup).
func (n *negCache) known(key []byte) bool {
	_, ok := n.idx[string(key)]
	return ok
}

// learn records a device-reported not-found. The first observation only
// arms the bloom filter; a bloom-positive repeat admits the key to the ring.
// It reports whether the key was admitted.
func (n *negCache) learn(key []byte) bool {
	if n.known(key) {
		return false
	}
	if h := sim.KeyHash(key); !n.bloom.Has(h) {
		n.bloom.Add(h)
		return false
	}
	n.insert(key)
	return true
}

// insert places key in the ring unconditionally (Delete's direct path),
// recycling the oldest slot when full.
func (n *negCache) insert(key []byte) {
	if n.known(key) {
		return
	}
	slot := n.next
	n.next = (n.next + 1) % n.cap
	if old := n.keys[slot]; old != nil {
		delete(n.idx, string(old))
		n.arena.Put(old)
	}
	k := append(n.arena.Get(len(key))[:0], key...)
	n.keys[slot] = k
	n.idx[string(k)] = slot
}

// forget drops key from the ring (the key exists now). The bloom filter is
// untouched: it only drives admission, and learn is only called after the
// device itself reported the key missing.
func (n *negCache) forget(key []byte) {
	s, ok := n.idx[string(key)]
	if !ok {
		return
	}
	delete(n.idx, string(key))
	n.arena.Put(n.keys[s])
	n.keys[s] = nil
}

// clear resets ring and bloom (post-recovery coherence).
func (n *negCache) clear() {
	for k, s := range n.idx {
		n.arena.Put(n.keys[s])
		n.keys[s] = nil
		delete(n.idx, k)
	}
	n.bloom.Reset()
	n.next = 0
}

// negativeKnown reports whether key is a known-missing key the caller may
// fail fast on without issuing any NVMe command. A true return counts as a
// negative-cache hit; callers must then report the op as not found (the
// windowed GetBatch does exactly this before startGet).
func (d *Driver) negativeKnown(key []byte) bool {
	if d.neg == nil || !d.neg.known(key) {
		return false
	}
	d.stats.NegativeHits.Inc()
	return true
}

// negLearn records a device-reported not-found in the negative cache.
func (d *Driver) negLearn(key []byte) {
	if d.neg == nil {
		return
	}
	if d.neg.learn(key) {
		d.stats.NegativeLearned.Inc()
	}
}

// negInsert records a key that is authoritatively missing (post-Delete).
func (d *Driver) negInsert(key []byte) {
	if d.neg == nil || d.neg.known(key) {
		return
	}
	d.neg.insert(key)
	d.stats.NegativeLearned.Inc()
}

// negForget drops key from the negative cache (it exists, or may exist).
func (d *Driver) negForget(key []byte) {
	if d.neg != nil {
		d.neg.forget(key)
	}
}

// negClear wipes the negative cache (after crash recovery).
func (d *Driver) negClear() {
	if d.neg != nil {
		d.neg.clear()
	}
}
