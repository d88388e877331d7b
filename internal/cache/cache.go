// Package cache models the device-DRAM read-cache tier of a KV-SSD. The
// tier is value-granular for vLog entries and page-granular for SSTable
// pages; both sit behind the same pluggable replacement policies and charge
// a device-DRAM latency on the virtual clock instead of NAND + channel
// occupancy. Everything here is deterministic and allocation-free on the hit
// path: entry storage comes from internal/pool arenas and lookups use Go's
// zero-copy map[string(bytes)] form.
package cache

import (
	"fmt"

	"bandslim/internal/pool"
	"bandslim/internal/sim"
)

// HitLatency is the device-DRAM access cost charged per cache hit. ~2µs
// covers the firmware lookup plus a DRAM row fetch — two orders of magnitude
// under a NAND page read.
const HitLatency = 2 * sim.Microsecond

// Config sizes the tiered read path. The zero value disables every tier, so
// existing configurations keep seed-identical behavior and timing.
type Config struct {
	// ValueBytes caps the device value cache (vLog entries) in bytes of
	// cached key+value payload. Zero disables the value tier.
	ValueBytes int
	// Pages caps the device page cache (SSTable pages) in resident pages.
	// Zero disables the page tier.
	Pages int
	// Policy selects the replacement policy shared by both device tiers.
	Policy Kind
}

// DeviceEnabled reports whether any device-DRAM tier is configured.
func (c Config) DeviceEnabled() bool { return c.ValueBytes > 0 || c.Pages > 0 }

// Validate rejects configurations the stack cannot honor.
func (c Config) Validate() error {
	if c.ValueBytes < 0 || c.Pages < 0 {
		return fmt.Errorf("cache: negative capacity (values=%d pages=%d)", c.ValueBytes, c.Pages)
	}
	switch c.Policy {
	case LRU, TwoQ:
	default:
		return fmt.Errorf("cache: unknown policy kind %d", int(c.Policy))
	}
	return nil
}

// ServingProfile is the documented starting point for a cache-enabled
// bandslim-server: a 4 MiB value tier and a 64-page SSTable tier under LRU.
func ServingProfile() Config {
	return Config{
		ValueBytes: 4 << 20,
		Pages:      64,
		Policy:     LRU,
	}
}

// ventry is one resident value-cache entry; key and val are arena-backed.
type ventry struct {
	key, val []byte
}

// Values is the value-granular device tier: full vLog entries keyed by user
// key, bounded by payload bytes. Get is zero-allocation; Put and Invalidate
// run on miss/mutation paths where structural allocation is acceptable
// (though entry buffers still recycle through the arena).
type Values struct {
	pol      Policy
	idx      map[string]int
	ents     []ventry
	free     []int
	used     int // resident key+value bytes
	capBytes int
	maxEntry int // admission bound: larger values bypass the cache
	arena    pool.Bytes
}

// NewValues builds the value tier with capBytes of payload budget under pol.
func NewValues(capBytes int, pol Policy) *Values {
	maxEntry := capBytes / 4
	if maxEntry < 1 {
		maxEntry = capBytes
	}
	return &Values{
		pol:      pol,
		idx:      make(map[string]int),
		capBytes: capBytes,
		maxEntry: maxEntry,
	}
}

// Get returns the cached value for key. The returned slice aliases the
// cache's arena and is only valid until the next mutation.
func (c *Values) Get(key []byte) ([]byte, bool) {
	s, ok := c.idx[string(key)] // compiler-optimized: no string alloc
	if !ok {
		return nil, false
	}
	c.pol.Touch(s)
	return c.ents[s].val, true
}

// Put admits a key/value copy, evicting until it fits. It returns how many
// entries were evicted and whether the value was admitted (oversized values
// are rejected so one cold scan cannot claim the whole budget).
func (c *Values) Put(key, val []byte) (evicted int, admitted bool) {
	if c == nil || c.capBytes <= 0 {
		return 0, false
	}
	need := len(key) + len(val)
	if len(val) > c.maxEntry || need > c.capBytes {
		return 0, false
	}
	if s, ok := c.idx[string(key)]; ok {
		c.dropSlot(s)
		c.pol.Remove(s)
	}
	for c.used+need > c.capBytes {
		v := c.pol.Evict()
		if v < 0 {
			return evicted, false
		}
		c.dropSlot(v)
		evicted++
	}
	s := c.allocSlot()
	e := &c.ents[s]
	e.key = append(c.arena.Get(len(key))[:0], key...)
	e.val = append(c.arena.Get(len(val))[:0], val...)
	c.idx[string(e.key)] = s
	c.pol.Admit(s)
	c.used += need
	return evicted, true
}

// Invalidate drops key if resident, reporting whether it was.
func (c *Values) Invalidate(key []byte) bool {
	if c == nil {
		return false
	}
	s, ok := c.idx[string(key)]
	if !ok {
		return false
	}
	c.dropSlot(s)
	c.pol.Remove(s)
	return true
}

// Reset empties the tier (device DRAM is volatile: power cuts clear it).
func (c *Values) Reset() {
	if c == nil {
		return
	}
	for k, s := range c.idx {
		e := &c.ents[s]
		c.arena.Put(e.key)
		c.arena.Put(e.val)
		e.key, e.val = nil, nil
		c.free = append(c.free, s)
		delete(c.idx, k)
	}
	c.pol.Reset()
	c.used = 0
}

// Len reports resident entries.
func (c *Values) Len() int { return len(c.idx) }

func (c *Values) allocSlot() int {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	c.ents = append(c.ents, ventry{})
	return len(c.ents) - 1
}

func (c *Values) dropSlot(s int) {
	e := &c.ents[s]
	c.used -= len(e.key) + len(e.val)
	delete(c.idx, string(e.key))
	c.arena.Put(e.key)
	c.arena.Put(e.val)
	e.key, e.val = nil, nil
	c.free = append(c.free, s)
}

// Pages is the page-granular device tier: which SSTable pages device DRAM
// holds, keyed by page number and bounded by resident page count. It keeps the
// numbers only: a resident page's bytes are the ones on flash, and the device
// serves a hit from a view of those instead of from a second copy on the host.
// Page numbers are recycled by the LSM after commits, so callers must
// invalidate on every write and trim.
type Pages struct {
	pol      Policy
	idx      map[int]int
	pageOf   []int // slot -> page number, for eviction bookkeeping
	free     []int
	capPages int
}

// NewPages builds the page tier holding up to capPages pages under pol.
func NewPages(capPages int, pol Policy) *Pages {
	return &Pages{
		pol:      pol,
		idx:      make(map[int]int),
		capPages: capPages,
	}
}

// Get reports whether page is resident, touching it if so.
func (c *Pages) Get(page int) bool {
	s, ok := c.idx[page]
	if ok {
		c.pol.Touch(s)
	}
	return ok
}

// Put admits page, evicting at capacity. It returns how many pages were
// evicted.
func (c *Pages) Put(page int) (evicted int) {
	if c == nil || c.capPages <= 0 {
		return 0
	}
	if s, ok := c.idx[page]; ok {
		c.dropSlot(s)
		c.pol.Remove(s)
	}
	for len(c.idx) >= c.capPages {
		v := c.pol.Evict()
		if v < 0 {
			return evicted
		}
		c.dropSlot(v)
		evicted++
	}
	s := c.allocSlot()
	c.pageOf[s] = page
	c.idx[page] = s
	c.pol.Admit(s)
	return evicted
}

// Invalidate drops page if resident, reporting whether it was. The LSM
// recycles page numbers after commit, so every WritePage/TrimPage must pass
// through here before the store sees it.
func (c *Pages) Invalidate(page int) bool {
	if c == nil {
		return false
	}
	s, ok := c.idx[page]
	if !ok {
		return false
	}
	c.dropSlot(s)
	c.pol.Remove(s)
	return true
}

// Reset empties the tier.
func (c *Pages) Reset() {
	if c == nil {
		return
	}
	for p, s := range c.idx {
		c.free = append(c.free, s)
		delete(c.idx, p)
	}
	c.pol.Reset()
}

func (c *Pages) allocSlot() int {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	c.pageOf = append(c.pageOf, -1)
	return len(c.pageOf) - 1
}

func (c *Pages) dropSlot(s int) {
	delete(c.idx, c.pageOf[s])
	c.pageOf[s] = -1
	c.free = append(c.free, s)
}
