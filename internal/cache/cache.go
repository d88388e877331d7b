// Package cache models the device-DRAM read-cache tier of a KV-SSD. The
// tier is value-granular for vLog entries and page-granular for SSTable
// pages; both sit behind the same pluggable replacement policies and charge
// a device-DRAM latency on the virtual clock instead of NAND + channel
// occupancy. Everything here is deterministic, a hit never allocates, and once
// a tier has reached its working size neither does a miss, an eviction or a
// reset: both tiers find slots by keys held inline (sim.Key) in one index, the
// value tier carves values from a bounded sim.Slab it keeps, and the page tier
// keeps numbers.
package cache

import (
	"fmt"

	"bandslim/internal/nvme"
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

// pageKey returns page number page's index key.
func pageKey(page int) sim.Key { return sim.Key{W0: uint64(page)} }

// index maps keys to slots. It is open addressing over a power-of-two table
// of slot+1 (0: empty), probed linearly from the key's hash and doubled
// before it is half full; a deletion shifts the rest of its probe run back,
// so there are no tombstones. The slots hold the keys, so the table holds
// none, and a freed slot is the next one reused.
type index struct {
	tab  []int32
	keys []sim.Key // slot -> key
	free []int     // slots not in use
	n    int       // slots in use
}

// pos returns the table position holding k, or the empty one where k goes.
func (x *index) pos(k sim.Key) int {
	mask := len(x.tab) - 1
	for i := int(k.Hash()) & mask; ; i = (i + 1) & mask {
		if s := x.tab[i]; s == 0 || x.keys[s-1] == k {
			return i
		}
	}
}

// get returns the slot holding k, or -1.
func (x *index) get(k sim.Key) int {
	if x.n == 0 {
		return -1
	}
	return int(x.tab[x.pos(k)]) - 1
}

// put files k, which no slot in use holds, in a free slot and returns it; a
// new slot is len(keys)-1.
func (x *index) put(k sim.Key) int {
	if 2*(x.n+1) > len(x.tab) {
		old := x.tab
		x.tab = make([]int32, max(16, 2*len(old)))
		for _, t := range old {
			if t != 0 {
				x.tab[x.pos(x.keys[t-1])] = t
			}
		}
	}
	s := len(x.keys)
	if n := len(x.free); n > 0 {
		s, x.free = x.free[n-1], x.free[:n-1]
	} else {
		x.keys = append(x.keys, sim.Key{})
	}
	x.keys[s] = k
	x.tab[x.pos(k)] = int32(s + 1)
	x.n++
	return s
}

// drop frees slot s. Each later entry of its probe run whose home position
// is not between the gap and itself moves into the gap.
func (x *index) drop(s int) {
	mask := len(x.tab) - 1
	gap := x.pos(x.keys[s])
	for j := (gap + 1) & mask; x.tab[j] != 0; j = (j + 1) & mask {
		if home := int(x.keys[x.tab[j]-1].Hash()) & mask; (j-home)&mask >= (j-gap)&mask {
			x.tab[gap], gap = x.tab[j], j
		}
	}
	x.tab[gap] = 0
	x.n--
	x.free = append(x.free, s)
}

// reset frees every slot, listed so that they are reused in slot order.
func (x *index) reset() {
	clear(x.tab)
	x.n = 0
	x.free = x.free[:0]
	for s := len(x.keys) - 1; s >= 0; s-- {
		x.free = append(x.free, s)
	}
}

// ventry is one value-tier slot; its key is the index's.
type ventry struct {
	val  []byte // a slab chunk cut to the value's length, or an exact-size allocation
	slab bool   // val goes back to the slab when the entry leaves
	live bool
}

// Values is the value-granular device tier: full vLog entries keyed by user
// key, bounded by payload bytes. Keys are held inline and values carved from
// a slab the tier keeps, so once the tier has reached its working size no
// admission, eviction, invalidation or Reset allocates, and a hit never
// does.
type Values struct {
	pol      Policy
	idx      index
	ents     []ventry
	used     int // resident key+value bytes
	capBytes int
	maxEntry int // admission bound: larger values bypass the cache
	// slab holds values in blocks of up to 64 KiB, at most 2*capBytes in
	// all. A value the slab cannot place gets an exact-size allocation it
	// never takes back.
	slab sim.Slab
}

// NewValues builds the value tier with capBytes of payload budget under pol.
func NewValues(capBytes int, pol Policy) *Values {
	maxEntry := capBytes / 4
	if maxEntry < 1 {
		maxEntry = capBytes
	}
	return &Values{
		pol:      pol,
		capBytes: capBytes,
		maxEntry: maxEntry,
		slab:     sim.NewSlab(min(64<<10, 2*capBytes), 2*capBytes),
	}
}

// Get returns the cached value for key. The returned slice aliases the
// tier's slab and is only valid until the next mutation.
func (c *Values) Get(key []byte) ([]byte, bool) {
	s := c.idx.get(sim.KeyOf(key))
	if s < 0 {
		return nil, false
	}
	c.pol.Touch(s)
	return c.ents[s].val, true
}

// Put admits a key/value copy, evicting until it fits. It returns how many
// entries were evicted and whether the value was admitted: oversized values
// are rejected so one cold scan cannot claim the whole budget, and so are
// keys longer than nvme.MaxKeySize. A rejected value still drops the entry
// it would have replaced.
func (c *Values) Put(key, val []byte) (evicted int, admitted bool) {
	if c == nil || c.capBytes <= 0 || len(key) > nvme.MaxKeySize {
		return 0, false
	}
	k := sim.KeyOf(key)
	if s := c.idx.get(k); s >= 0 {
		c.dropSlot(s)
		c.pol.Remove(s)
	}
	need := len(key) + len(val)
	if len(val) > c.maxEntry || need > c.capBytes {
		return 0, false
	}
	for c.used+need > c.capBytes {
		v := c.pol.Evict()
		if v < 0 {
			return evicted, false
		}
		c.dropSlot(v)
		evicted++
	}
	s := c.idx.put(k)
	if s == len(c.ents) {
		c.ents = append(c.ents, ventry{})
	}
	e := &c.ents[s]
	e.live = true
	e.val, e.slab = c.slab.Get(len(val), len(val))
	copy(e.val, val)
	c.pol.Admit(s)
	c.used += need
	return evicted, true
}

// Invalidate drops key if resident, reporting whether it was.
func (c *Values) Invalidate(key []byte) bool {
	if c == nil {
		return false
	}
	s := c.idx.get(sim.KeyOf(key))
	if s < 0 {
		return false
	}
	c.dropSlot(s)
	c.pol.Remove(s)
	return true
}

// Reset empties the tier (device DRAM is volatile: power cuts clear it). It
// walks the slots in index order, so the free-slot order it leaves is
// deterministic, and keeps the slab, so refilling allocates nothing.
func (c *Values) Reset() {
	if c == nil {
		return
	}
	for s := range c.ents {
		if c.ents[s].live {
			c.dropSlot(s)
		}
	}
	c.pol.Reset()
}

// Len reports resident entries.
func (c *Values) Len() int { return c.idx.n }

func (c *Values) dropSlot(s int) {
	e := &c.ents[s]
	c.used -= c.idx.keys[s].N + len(e.val)
	c.idx.drop(s)
	if e.slab {
		c.slab.Put(e.val)
	}
	*e = ventry{}
}

// Pages is the page-granular device tier: which SSTable pages device DRAM
// holds, keyed by page number and bounded by resident page count. It keeps the
// numbers only: a resident page's bytes are the ones on flash, and the device
// serves a hit from a view of those instead of from a second copy on the host.
// Page numbers are recycled by the LSM after commits, so callers must
// invalidate on every write and trim.
type Pages struct {
	pol      Policy
	idx      index // keys are pageKeys
	capPages int
}

// NewPages builds the page tier holding up to capPages pages under pol.
func NewPages(capPages int, pol Policy) *Pages {
	return &Pages{pol: pol, capPages: capPages}
}

// Get reports whether page is resident, touching it if so.
func (c *Pages) Get(page int) bool {
	s := c.idx.get(pageKey(page))
	if s >= 0 {
		c.pol.Touch(s)
	}
	return s >= 0
}

// Put admits page, evicting at capacity. It returns how many pages were
// evicted.
func (c *Pages) Put(page int) (evicted int) {
	if c == nil || c.capPages <= 0 {
		return 0
	}
	if s := c.idx.get(pageKey(page)); s >= 0 {
		c.idx.drop(s)
		c.pol.Remove(s)
	}
	for c.idx.n >= c.capPages {
		v := c.pol.Evict()
		if v < 0 {
			return evicted
		}
		c.idx.drop(v)
		evicted++
	}
	c.pol.Admit(c.idx.put(pageKey(page)))
	return evicted
}

// Invalidate drops page if resident, reporting whether it was. The LSM
// recycles page numbers after commit, so every WritePage/TrimPage must pass
// through here before the store sees it.
func (c *Pages) Invalidate(page int) bool {
	if c == nil {
		return false
	}
	s := c.idx.get(pageKey(page))
	if s < 0 {
		return false
	}
	c.idx.drop(s)
	c.pol.Remove(s)
	return true
}

// Reset empties the tier.
func (c *Pages) Reset() {
	if c == nil {
		return
	}
	c.idx.reset()
	c.pol.Reset()
}
