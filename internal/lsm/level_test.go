package lsm

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"bandslim/internal/sim"
)

// splitOverlap and insertSorted are the level edit this package made before
// the in-place splice, kept as its oracle: split a sorted level into the tables
// overlapping [lo, hi] and the rest, then sort the rest and a merge's outputs
// back into one fresh level.

// splitOverlap partitions a sorted level into tables overlapping [lo,hi] and
// the rest.
func splitOverlap(tables []*SSTable, lo, hi sim.Key) (over, rest []*SSTable) {
	for _, t := range tables {
		if t.overlaps(lo, hi) {
			over = append(over, t)
		} else {
			rest = append(rest, t)
		}
	}
	return over, rest
}

// insertSorted merges new tables into a level, keeping it sorted by smallest
// key. Levels ≥1 are non-overlapping by construction.
func insertSorted(level, add []*SSTable) []*SSTable {
	out := append(append([]*SSTable(nil), level...), add...)
	sort.Slice(out, func(i, j int) bool { return out[i].smallest.Less(out[j].smallest) })
	return out
}

// levelEditCase reads a level edit from fuzz input: a sorted, disjoint level;
// the key range an edit takes from it (an L0 compaction's, the union of up to
// four tables' ranges, or a level push's, its victim's); and the tables a
// merge put in place of the overlapped span, sorted and disjoint inside the
// merged key range, or for a push that overlaps nothing, the victim itself.
// Keys are one byte, so ranges meet and touch table bounds often.
func levelEditCase(data []byte) (level []*SSTable, lo, hi sim.Key, add []*SSTable) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	table := func(lo, hi int) *SSTable {
		return &SSTable{smallest: sim.KeyOf([]byte{byte(lo)}), largest: sim.KeyOf([]byte{byte(hi)})}
	}
	for n, at := next()%12, 1; len(level) < n; {
		at += next() % 4
		width := next() % 5
		if at+width > 255 {
			break
		}
		level = append(level, table(at, at+width))
		at += width + 1
	}
	push := next()%2 == 0
	l, h := 255, 1
	for ranges := 1 + next()%4; ranges > 0; ranges-- {
		a := 1 + next()%255
		b := min(255, a+next()%40)
		l, h = min(l, a), max(h, b)
		if push {
			break
		}
	}
	lo, hi = sim.KeyOf([]byte{byte(l)}), sim.KeyOf([]byte{byte(h)})
	over, _ := splitOverlap(level, lo, hi)
	if push && len(over) == 0 {
		return level, lo, hi, []*SSTable{table(l, h)}
	}
	if len(over) > 0 {
		l = min(l, int(over[0].smallest.W0>>56))
		h = max(h, int(over[len(over)-1].largest.W0>>56))
	}
	for n, at := next()%6, l; len(add) < n; {
		at += next() % 3
		if at > h {
			break
		}
		end := min(h, at+next()%6)
		add = append(add, table(at, end))
		at = end + 1
	}
	return level, lo, hi, add
}

// bounds prints a level of levelEditCase's tables as their one-byte key ranges.
func bounds(level []*SSTable) string {
	out := ""
	for _, t := range level {
		out += fmt.Sprintf(" [%d,%d]", t.smallest.W0>>56, t.largest.W0>>56)
	}
	return out
}

// The in-place level edit is the split-and-sort it replaced: overlapSpan finds
// exactly the tables splitOverlap calls overlapping, and replacing that span
// with the outputs gives the level insertSorted gives, pointer for pointer, in
// the level's own storage when that holds the result.
func FuzzLevelEdit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 2, 1, 1, 2, 3, 0, 0, 1, 1, 3, 7, 10, 3, 0, 2, 1, 1, 1, 2})
	f.Add([]byte{11, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 0, 3, 30, 39, 2, 5, 0, 1, 2, 0, 4, 1, 3})
	f.Add([]byte{4, 3, 0, 2, 2, 0, 1, 3, 4, 1, 200, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		level, lo, hi, add := levelEditCase(data)
		over, rest := splitOverlap(level, lo, hi)
		want := insertSorted(rest, add)

		i, j := overlapSpan(level, lo, hi)
		if !slices.Equal(level[i:j], over) {
			t.Fatalf("level%s, range [%d,%d]: span [%d, %d), splitOverlap finds%s", bounds(level), lo.W0>>56, hi.W0>>56, i, j, bounds(over))
		}
		edited := slices.Grow(slices.Clone(level), len(add))
		got := slices.Replace(edited, i, j, add...)
		if !slices.Equal(got, want) {
			t.Fatalf("level%s, range [%d,%d], add%s: spliced%s, want%s", bounds(level), lo.W0>>56, hi.W0>>56, bounds(add), bounds(got), bounds(want))
		}
		if len(got) > 0 && &got[0] != &edited[:1][0] {
			t.Fatalf("splice of %d tables into a level of capacity %d moved the level", len(got), cap(edited))
		}
		for k := 1; k < len(got); k++ {
			if !got[k-1].largest.Less(got[k].smallest) {
				t.Fatalf("spliced level%s: tables %d and %d overlap or are out of order", bounds(got), k-1, k)
			}
		}
	})
}
