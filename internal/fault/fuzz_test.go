package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan feeds arbitrary text to the plan parser. Invariants: the
// parser never panics, every accepted plan validates, and the canonical
// formatPlan rendering round-trips to an identical plan.
func FuzzParsePlan(f *testing.F) {
	f.Add("seed 42\nnand.program nth=3 media\n")
	f.Add("dma.in p=0.01 from=0us to=5ms transient\n")
	f.Add("nand.read every=100 media\npower at=12ms\n")
	f.Add("# only a comment\n")
	f.Add("exec at=1s powercut\nnand.erase nth=1 from=10us to=20us media\n")
	f.Add("seed 0xdeadbeef\ndma.out p=1 transient")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		canon := formatPlan(p)
		p2, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v\ncanonical:\n%s", p, p2, canon)
		}
		if got := formatPlan(p2); got != canon {
			t.Fatalf("formatPlan not a fixed point:\n%q\n%q", canon, got)
		}
	})
}
