package workload

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzTraceParse feeds arbitrary text to the trace parser. Invariants: the
// parser never panics, every accepted trace validates, and the canonical
// FormatTrace rendering round-trips to an identical trace and is a fixed
// point.
func FuzzTraceParse(f *testing.F) {
	f.Add("bandslim-trace v2\nseed 42\nput \"k\" 128\nget \"k\"\n")
	f.Add("bandslim-trace v2\nscan \"y00000001\" 7\nrmw \"y00000001\" 64\n")
	f.Add("bandslim-trace v2\n# comment\ndel \"a#b\"\n")
	f.Add("bandslim-trace v2\nseed 0xdead\nput `raw` 1\n")
	f.Add("bandslim-trace v2\nget \"\\x00\\xff\"\n")
	f.Add("bandslim-trace v1\nput 0us \"k\" 8\n")
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		canon := FormatTrace(tr)
		tr2, err := ParseTrace(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v\ncanonical:\n%s", tr, tr2, canon)
		}
		if got := FormatTrace(tr2); got != canon {
			t.Fatalf("FormatTrace not a fixed point:\n%q\n%q", canon, got)
		}
	})
}
