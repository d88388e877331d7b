package lsm

// The closed form the tree's write volume is checked against (ROADMAP item
// 3(ii)): how many times leveled compaction writes an average entry, derived
// from the configuration alone. oracle_test.go holds the tree to it and the
// bench `compaction` experiment prints it beside every cell it measures.

// levelFanout is how many times more tables each level below L1 may hold
// than the one above it.
const levelFanout = 10

// EntriesPerPage reports how many entries with keyLen-byte keys one page of
// pageSize bytes holds.
func EntriesPerPage(pageSize, keyLen int) int { return pageSize / (entryFixed + keyLen) }

// ExpectedRewrites is the number of times the tree writes an average entry
// while puts unique keys are put into it, tableEntries being the entries of
// one full table (TablePages pages' worth).
//
// Every entry is written once by its flush and once by the L0 merge that
// carries it into L1. Keys arriving in order overlap nothing, so that is all:
// every later push is a trivial move. Keys arriving in hashed order make each
// source span the whole key space of the level it enters — an L0 batch of
// L0CompactionTrigger MemTables covers all of L1; a victim is one table of a
// full level i, so 1/tables(i) of level i+1 — and an entry entering a level is
// written once more plus once for every entry of that level its source
// overlapped. A level grows from empty to its cap and then stays there, which
// fixes its average size over the fill.
func (c Config) ExpectedRewrites(puts, tableEntries int, sequential bool) float64 {
	if sequential {
		return 2
	}
	n := float64(puts)
	rewrites := 1.0
	entering := n                                                 // entries that reach the next level down
	span := float64(c.L0CompactionTrigger * c.MemTableEntries)    // entries of the source level that cover the key space
	levelCap := float64(c.LevelTableBase) * float64(tableEntries) // entries the next level down holds when full
	for lvl := 1; lvl < c.MaxLevels && entering > 0; lvl++ {
		mean := entering / 2
		if lvl < c.MaxLevels-1 && entering > levelCap {
			mean = levelCap * (entering - levelCap/2) / entering
		}
		rewrites += entering / n * (1 + mean/span)
		entering -= levelCap
		span, levelCap = levelCap, levelCap*levelFanout
	}
	return rewrites
}

// RewriteBand is the range around ExpectedRewrites a healthy tree's measured
// rewrites — index pages written times EntriesPerPage over puts — fall in.
// The slack covers what the closed form leaves out: the partly filled last
// page of every table, a victim's partial overlap with the tables at both
// ends of its range, and levels that are not exactly at their cap.
func (c Config) RewriteBand(puts, tableEntries int, sequential bool) (lo, hi float64) {
	want := c.ExpectedRewrites(puts, tableEntries, sequential)
	return 0.7 * want, 1.3 * want
}
