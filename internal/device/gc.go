package device

import (
	"fmt"
	"sort"

	"bandslim/internal/lsm"
	"bandslim/internal/nvme"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// WiscKey-style value-log garbage collection. The vLog is circular: virtual
// offsets grow monotonically and GC advances the tail by relocating the live
// values that still point into the oldest pages, then trimming those pages
// in the FTL. The LSM index (which never stores values) supplies liveness:
// an entry whose address falls in the reclaim window is live; everything
// else in the window is dead (overwritten or deleted) and vanishes for free.
//
// The paper leaves vLog GC out of scope (its evaluation never deletes);
// this is the natural completion a production KV-SSD needs.

// execCompact handles OpKVCompact: reclaim the oldest `pages` vLog pages
// (from the command's valueSize field). It returns the number of relocated
// values.
func (d *Device) execCompact(t sim.Time, cmd nvme.Command) (int, sim.Time, error) {
	pages := int(cmd.ValueSize())
	if pages <= 0 {
		return 0, t, errBadField
	}
	return d.CompactVLog(t, pages)
}

// CompactVLog relocates live values out of the oldest `pages` vLog pages and
// reclaims them. Exposed for maintenance scheduling and tests.
func (d *Device) CompactVLog(t sim.Time, pages int) (int, sim.Time, error) {
	if !d.cfg.NANDEnabled {
		return 0, t, fmt.Errorf("device: compaction requires NAND enabled")
	}
	pageSize := int64(d.ftl.PageSize())
	reclaimEnd := d.vlog.Tail() + int64(pages)*pageSize
	if flushed := d.vlog.Buffer().FlushedBelow(); reclaimEnd > flushed {
		reclaimEnd = flushed / pageSize * pageSize
	}
	if reclaimEnd <= d.vlog.Tail() {
		return 0, t, nil // nothing reclaimable yet
	}
	// Snapshot the live entries pointing into the reclaim window. The
	// iterator must not observe concurrent mutation, so collect first.
	live, end, err := d.liveEntriesBelow(t, vlog.Addr(reclaimEnd))
	if err != nil {
		return 0, t, err
	}
	// Relocate in address order: sequential page reads, append-order
	// writes.
	sort.Slice(live, func(i, j int) bool { return live[i].Addr < live[j].Addr })
	for _, e := range live {
		value, rEnd, err := d.vlog.Read(end, e.Addr, int(e.Size))
		if err != nil {
			return 0, end, fmt.Errorf("device: GC read %x: %w", e.Key, err)
		}
		addr, aEnd, err := d.vlog.AppendPiggybacked(rEnd, value)
		if err != nil {
			return 0, end, fmt.Errorf("device: GC append: %w", err)
		}
		// Relocation rewrites an acknowledged record's address; journal it so
		// a post-GC power cut cannot resurrect the reclaimed location. The
		// cached copy (keyed by user key) still holds the right bytes, but
		// the strict invalidation protocol drops it anyway: cache entries
		// conceptually reference the vLog location being reclaimed.
		d.invalidateValue(e.Key)
		d.jnl.append(e.Key, addr, e.Size, false)
		end, err = d.tree.Put(aEnd, e.Key, addr, e.Size)
		if err != nil {
			return 0, end, fmt.Errorf("device: GC reindex: %w", err)
		}
	}
	if err := d.vlog.AdvanceTail(reclaimEnd); err != nil {
		return 0, end, err
	}
	return len(live), end, nil
}

// liveEntriesBelow scans the index and returns every live entry whose value
// starts below limit. The NAND time of the index scan is charged.
func (d *Device) liveEntriesBelow(t sim.Time, limit vlog.Addr) ([]lsm.Entry, sim.Time, error) {
	it, err := d.tree.Seek(t, nil)
	if err != nil {
		return nil, t, err
	}
	var live []lsm.Entry
	for it.Valid() {
		e := it.Entry()
		if e.Addr < limit {
			// The iterator's key is a view into its reused decode buffer;
			// the snapshot outlives the iteration, so copy it (GC is a cold
			// path).
			e.Key = append([]byte(nil), e.Key...)
			live = append(live, e)
		}
		it.Next(t)
	}
	if it.Err() != nil {
		return nil, t, it.Err()
	}
	return live, it.End(), nil
}
