package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bandslim/internal/sim"
)

func TestParsePlanBasics(t *testing.T) {
	p, err := ParsePlan(`
# a comment
seed 42
nand.program nth=3 media
dma.in p=0.01 from=0us to=5ms transient
nand.read every=100 media
power at=12ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d, want 42", p.Seed)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(p.Rules))
	}
	want := []Rule{
		{Site: SiteNandProgram, Effect: EffectMedia, Nth: 3},
		{Site: SiteDMAIn, Effect: EffectTransient, P: 0.01, To: sim.Time(5 * sim.Millisecond)},
		{Site: SiteNandRead, Effect: EffectMedia, Every: 100},
		{Site: SiteExec, Effect: EffectPowerCut, At: sim.Time(12 * sim.Millisecond)},
	}
	if !reflect.DeepEqual(p.Rules, want) {
		t.Fatalf("rules = %+v, want %+v", p.Rules, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"nand.program media",                       // no trigger
		"nand.program nth=3 every=2 media",         // two triggers
		"nand.program nth=3",                       // no effect
		"nand.program nth=3 media transient",       // two effects
		"bogus.site nth=1 media",                   // unknown site
		"nand.program nth=0 media",                 // zero count
		"nand.program p=1.5 media",                 // p out of range
		"nand.program p=0 media",                   // p zero
		"nand.program at=0us media",                // at=0 reserved
		"nand.program nth=1 from=2ms to=1ms media", // empty window
		"nand.program nth=1 frob=2 media",          // unknown option
		"seed 1\nseed 2",                           // duplicate seed
		"seed nope",                                // bad seed
		"nand.program nth=1 at=nope media",         // bad time
	}
	for _, text := range bad {
		if _, err := ParsePlan(text); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", text)
		}
	}
}

// formatPlan renders a plan in canonical text form, one FormatRule line per
// rule behind its seed line.
func formatPlan(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	for _, r := range p.Rules {
		b.WriteString(FormatRule(r))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestFormatRoundTrip(t *testing.T) {
	src := `seed 7
nand.program nth=3 media
nand.erase every=2 from=1us media
dma.out p=0.25 to=1s transient
exec at=500us powercut
`
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := formatPlan(p); got != src {
		t.Fatalf("FormatPlan:\n%s\nwant:\n%s", got, src)
	}
	p2, err := ParsePlan(formatPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip: %+v != %+v", p, p2)
	}
}

func TestInjectorNthFiresOnce(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Site: SiteNandProgram, Effect: EffectMedia, Nth: 3}}}, 0)
	fires := 0
	for i := 0; i < 10; i++ {
		if eff, ok := in.Check(SiteNandProgram, sim.Time(i)); ok {
			if eff != EffectMedia {
				t.Fatalf("effect = %v", eff)
			}
			if i != 2 {
				t.Fatalf("fired on occurrence %d, want 3rd", i+1)
			}
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("fired %d times, want 1", fires)
	}
}

func TestInjectorEvery(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Site: SiteNandRead, Effect: EffectMedia, Every: 4}}}, 0)
	var fired []int
	for i := 1; i <= 12; i++ {
		if _, ok := in.Check(SiteNandRead, 0); ok {
			fired = append(fired, i)
		}
	}
	if !reflect.DeepEqual(fired, []int{4, 8, 12}) {
		t.Fatalf("fired on %v, want [4 8 12]", fired)
	}
}

func TestInjectorWindow(t *testing.T) {
	r := Rule{Site: SiteDMAIn, Effect: EffectTransient, Every: 1,
		From: sim.Time(100), To: sim.Time(200)}
	in := NewInjector(&Plan{Rules: []Rule{r}}, 0)
	for _, tc := range []struct {
		now  sim.Time
		want bool
	}{{50, false}, {99, false}, {100, true}, {199, true}, {200, false}, {500, false}} {
		if _, ok := in.Check(SiteDMAIn, tc.now); ok != tc.want {
			t.Errorf("Check at t=%d = %v, want %v", tc.now, ok, tc.want)
		}
	}
}

func TestInjectorTimeArmed(t *testing.T) {
	in := NewInjector(&Plan{Rules: []Rule{{Site: SiteExec, Effect: EffectPowerCut, At: sim.Time(1000)}}}, 0)
	if _, ok := in.Check(SiteExec, 999); ok {
		t.Fatal("fired before arming time")
	}
	if eff, ok := in.Check(SiteExec, 1500); !ok || eff != EffectPowerCut {
		t.Fatalf("Check = %v, %v; want powercut", eff, ok)
	}
	if _, ok := in.Check(SiteExec, 2000); ok {
		t.Fatal("time-armed rule fired twice")
	}
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	plan := &Plan{Seed: 99, Rules: []Rule{
		{Site: SiteNandProgram, Effect: EffectMedia, P: 0.3},
		{Site: SiteNandProgram, Effect: EffectTransient, P: 0.1},
	}}
	run := func(salt uint64) []bool {
		in := NewInjector(plan, salt)
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = in.Check(SiteNandProgram, sim.Time(i))
		}
		return out
	}
	a, b := run(0), run(0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed+salt produced different schedules")
	}
	c := run(1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different salts produced identical schedules (streams correlated)")
	}
}

func TestInjectorFirstMatchWinsAllRulesStep(t *testing.T) {
	// Both rules match occurrence 2; the first in plan order supplies the
	// effect, but the second must still have stepped (its Nth state burns).
	plan := &Plan{Rules: []Rule{
		{Site: SiteNandRead, Effect: EffectMedia, Nth: 2},
		{Site: SiteNandRead, Effect: EffectTransient, Nth: 2},
	}}
	in := NewInjector(plan, 0)
	in.Check(SiteNandRead, 0)
	eff, ok := in.Check(SiteNandRead, 0)
	if !ok || eff != EffectMedia {
		t.Fatalf("occurrence 2: %v, %v; want media", eff, ok)
	}
	// If rule 2 had not stepped, it would fire on the next occurrence.
	if _, ok := in.Check(SiteNandRead, 0); ok {
		t.Fatal("shadowed rule re-fired: states diverged")
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if _, ok := in.Check(SiteExec, 0); ok {
		t.Fatal("nil injector fired")
	}
}

func TestResolveMatchesInjector(t *testing.T) {
	plan := &Plan{Seed: 5, Rules: []Rule{
		{Site: SiteNandProgram, Effect: EffectMedia, P: 0.2},
		{Site: SiteNandRead, Effect: EffectMedia, Every: 7},
		{Site: SiteNandErase, Effect: EffectMedia, Nth: 4},
	}}
	const maxOcc = 50
	sched := plan.Resolve(3, maxOcc)
	in := NewInjector(plan, 3)
	for ri, r := range plan.Rules {
		var got []uint64
		for n := uint64(1); n <= maxOcc; n++ {
			if _, ok := in.Check(r.Site, 0); ok {
				got = append(got, n)
			}
		}
		if !reflect.DeepEqual(got, sched[ri]) {
			t.Errorf("rule %d: injector fired %v, Resolve said %v", ri, got, sched[ri])
		}
	}
	// A bound below one resolves no occurrence rather than wrapping around.
	first := &Plan{Rules: []Rule{{Site: SiteNandErase, Effect: EffectMedia, Nth: 1}}}
	for _, bound := range []int{0, -1} {
		if s := first.Resolve(3, bound); len(s[0]) != 0 {
			t.Errorf("Resolve(3, %d) fires on %v", bound, s[0])
		}
	}
}
