package device

// Device-DRAM read-cache wiring: the value tier intercepts execRead before
// the LSM walk, and cachingStore interposes the page tier between the tree
// and its PageStore. Both charge the device-DRAM hit latency (cache.HitLatency)
// on the virtual clock instead of NAND + channel occupancy, and both are
// strictly invalidated on every mutation so the simulation stays
// semantically identical to a cache-less device.

import (
	"bandslim/internal/cache"
	"bandslim/internal/lsm"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// cachingStore wraps the tree's PageStore with the page-granular device
// tier. With no page tier it is a pure pass-through — identical timing,
// identical allocations. dev is bound after construction (the store exists
// before the Device does).
type cachingStore struct {
	inner *lsm.FTLStore
	pages *cache.Pages
	dev   *Device
}

func (s *cachingStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	if s.pages == nil {
		return s.inner.ReadPage(t, page)
	}
	d := s.dev
	if s.pages.Get(page) {
		// The tier holds page numbers: the bytes device DRAM would serve are
		// the ones on flash, viewed without the flash operation. The hit
		// serves a whole page, however short the view.
		data, err := s.inner.ViewPage(page)
		if err != nil {
			return nil, t, err
		}
		d.stats.PageCacheHits.Inc()
		end := t.Add(cache.HitLatency)
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvCacheHit, Start: t, End: end, Bytes: int64(s.inner.PageSize())})
		}
		return data, end, nil
	}
	d.stats.PageCacheMisses.Inc()
	data, end, err := s.inner.ReadPage(t, page)
	if err != nil {
		return data, end, err
	}
	d.noteEvictions(end, s.pages.Put(page))
	return data, end, nil
}

// WritePage and TrimPage invalidate before delegating: the LSM recycles page
// numbers after commits, so a stale image under a reused number would be
// served as a different table's page.
func (s *cachingStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if s.pages != nil && s.pages.Invalidate(page) {
		s.dev.stats.CacheInvalidations.Inc()
	}
	return s.inner.WritePage(t, page, data)
}

func (s *cachingStore) TrimPage(page int) error {
	if s.pages != nil && s.pages.Invalidate(page) {
		s.dev.stats.CacheInvalidations.Inc()
	}
	return s.inner.TrimPage(page)
}

func (s *cachingStore) PageSize() int { return s.inner.PageSize() }
func (s *cachingStore) Pages() int    { return s.inner.Pages() }

// invalidateValue drops key from the value tier (overwrite, delete, batch
// record, GC relocation).
func (d *Device) invalidateValue(key []byte) {
	if d.vcache != nil && d.vcache.Invalidate(key) {
		d.stats.CacheInvalidations.Inc()
	}
}

// fillValue admits a freshly-read value after a miss.
func (d *Device) fillValue(t sim.Time, key, value []byte) {
	if d.vcache == nil {
		return
	}
	evicted, _ := d.vcache.Put(key, value)
	d.noteEvictions(t, evicted)
}

// noteEvictions tallies evictions from either tier and emits the trace
// marker blame/forensics tools key off.
func (d *Device) noteEvictions(t sim.Time, n int) {
	if n <= 0 {
		return
	}
	d.stats.CacheEvictions.Add(int64(n))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDevice, Name: trace.EvCacheEvict, Start: t, End: t, Arg: int64(n)})
	}
}

// dropValueCache empties the value tier, counting the drops as
// invalidations. Flush uses it for the strict invalidation protocol: the
// flush moves the battery-backed vLog buffer to NAND, and the cache model
// does not carry entries across that boundary.
func (d *Device) dropValueCache() {
	if d.vcache == nil {
		return
	}
	d.stats.CacheInvalidations.Add(int64(d.vcache.Len()))
	d.vcache.Reset()
}

// dropCaches empties both device tiers without counters: device DRAM is
// volatile, so a power cut simply erases them.
func (d *Device) dropCaches() {
	if d.vcache != nil {
		d.vcache.Reset()
	}
	if d.pstore.pages != nil {
		d.pstore.pages.Reset()
	}
}
