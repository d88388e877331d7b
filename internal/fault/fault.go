// Package fault provides deterministic, seed-driven fault injection for the
// simulated KV-SSD stack. A Plan declares rules keyed by fault site (layer ×
// operation), each with exactly one trigger — an exact Nth occurrence, a
// periodic Every, an independent probability P, or a simulated-time arming
// point At — optionally restricted to a simulated-time window. An Injector
// evaluates a Plan against one stack: every probabilistic rule draws from its
// own SplitMix64 stream derived from the plan seed, the rule index, and a
// per-stack salt (the shard id), so a fixed seed + plan reproduces the exact
// same fault schedule byte for byte, run after run, shard by shard.
//
// The layers consult the injector at their natural failure points: the NAND
// array before committing a read/program/erase, the DMA engine before moving
// payload bytes, and the device controller at command dispatch (where a
// power-cut rule truncates all volatile state). Faults fire on the virtual
// clock — wall time never enters the schedule.
package fault

import (
	"errors"
	"fmt"

	"bandslim/internal/sim"
)

// Site identifies one fault injection point: a layer × operation pair the
// stack consults the injector at.
type Site uint8

const (
	// SiteNandProgram is a flash page program about to commit.
	SiteNandProgram Site = iota
	// SiteNandRead is a flash page read about to return data.
	SiteNandRead
	// SiteNandErase is a flash block erase about to commit.
	SiteNandErase
	// SiteDMAIn is a host-to-device DMA transfer (command payload in).
	SiteDMAIn
	// SiteDMAOut is a device-to-host DMA transfer (read data out).
	SiteDMAOut
	// SiteExec is device-side command dispatch; the site power-cut rules
	// normally target.
	SiteExec

	numSites
)

var siteNames = [numSites]string{
	SiteNandProgram: "nand.program",
	SiteNandRead:    "nand.read",
	SiteNandErase:   "nand.erase",
	SiteDMAIn:       "dma.in",
	SiteDMAOut:      "dma.out",
	SiteExec:        "exec",
}

// String returns the plan-text spelling of the site.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ParseSite maps a plan-text site name back to its Site.
func ParseSite(name string) (Site, bool) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), true
		}
	}
	return 0, false
}

// Effect is what a firing rule does to the operation it intercepts.
type Effect uint8

const (
	// EffectMedia is a permanent media error: the NAND layers surface it as
	// an I/O fault and the FTL responds with bad-block retirement plus write
	// redirection. Not retryable from the host.
	EffectMedia Effect = iota
	// EffectTransient is a transient link/transfer error surfaced as a
	// retryable NVMe status; the host driver's bounded retry-with-backoff
	// absorbs it.
	EffectTransient
	// EffectPowerCut truncates device state at this simulated instant: all
	// volatile state (in-flight command, iterator, SQ/CQ rings) is lost and
	// the device answers everything with a power-loss status until mounted.
	EffectPowerCut
)

var effectNames = [...]string{
	EffectMedia:     "media",
	EffectTransient: "transient",
	EffectPowerCut:  "powercut",
}

// String returns the plan-text spelling of the effect.
func (e Effect) String() string {
	if int(e) < len(effectNames) {
		return effectNames[e]
	}
	return fmt.Sprintf("effect(%d)", uint8(e))
}

// ParseEffect maps a plan-text effect name back to its Effect.
func ParseEffect(name string) (Effect, bool) {
	for i, n := range effectNames {
		if n == name {
			return Effect(i), true
		}
	}
	return 0, false
}

// ErrPowerCut is the sentinel a power-cut firing injects into the executing
// operation. It unwinds the device stack via errors.Is without any layer
// mistaking it for a media or transfer error.
var ErrPowerCut = errors.New("fault: power cut")

// ErrTransient is the sentinel behind every injected transient fault. The
// device controller classifies it as a retryable NVMe status; the host
// driver's bounded retry absorbs it.
var ErrTransient = errors.New("fault: transient error")

// Rule is one fault declaration. Exactly one trigger field must be set:
//
//   - Nth > 0: fire on the Nth in-window occurrence at Site, once.
//   - Every > 0: fire on every Every-th in-window occurrence at Site.
//   - P in (0, 1]: fire independently with probability P per in-window
//     occurrence, drawn from the rule's private RNG stream.
//   - At > 0: fire on the first occurrence at Site at or after simulated
//     time At, once. (Time-armed rules ignore From/To.)
//
// From/To bound the window of simulated time the rule is active in,
// half-open [From, To); To == 0 means unbounded.
type Rule struct {
	Site   Site
	Effect Effect

	Nth   int
	Every int
	P     float64
	At    sim.Time

	From sim.Time
	To   sim.Time
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if r.Site >= numSites {
		return fmt.Errorf("fault: unknown site %d", r.Site)
	}
	if int(r.Effect) >= len(effectNames) {
		return fmt.Errorf("fault: unknown effect %d", r.Effect)
	}
	triggers := 0
	if r.Nth > 0 {
		triggers++
	}
	if r.Every > 0 {
		triggers++
	}
	if r.P != 0 {
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("fault: probability %v outside (0, 1]", r.P)
		}
		triggers++
	}
	if r.At != 0 {
		if r.At < 0 {
			return fmt.Errorf("fault: negative arming time %d", r.At)
		}
		triggers++
	}
	if triggers != 1 {
		return fmt.Errorf("fault: rule needs exactly one trigger (nth, every, p, or at), has %d", triggers)
	}
	if r.Nth < 0 || r.Every < 0 {
		return fmt.Errorf("fault: negative trigger count")
	}
	if r.From < 0 || r.To < 0 {
		return fmt.Errorf("fault: negative window bound")
	}
	if r.To != 0 && r.To <= r.From {
		return fmt.Errorf("fault: empty window [%d, %d)", r.From, r.To)
	}
	return nil
}

// Plan is a complete fault schedule: a seed for the probabilistic rules and
// the rule list. Plans are immutable once handed to an Injector.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Validate reports whether every rule in the plan is well-formed.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// mix folds the plan seed, the rule index, and the per-stack salt into one
// decorrelated RNG seed.
func mix(seed uint64, idx int, salt uint64) uint64 {
	return sim.Mix64(seed + 0x9E3779B97F4A7C15*uint64(idx+1) + 0xD1B54A32D192ED03*(salt+1))
}

// ruleState is one rule plus its per-stack evaluation state.
type ruleState struct {
	Rule
	rng   *sim.RNG
	seen  uint64 // in-window occurrences observed at the rule's site
	fired bool   // Nth/At rules fire once
}

// step observes one occurrence at the rule's site and reports whether the
// rule fires on it. All matching rules step on every occurrence (not just
// the first firing one) so the schedule stays deterministic regardless of
// rule order.
func (rs *ruleState) step(now sim.Time) bool {
	if rs.At != 0 {
		if rs.fired || now < rs.At {
			return false
		}
		rs.fired = true
		return true
	}
	if now < rs.From || (rs.To != 0 && now >= rs.To) {
		return false
	}
	rs.seen++
	switch {
	case rs.Nth > 0:
		if rs.fired || rs.seen != uint64(rs.Nth) {
			return false
		}
		rs.fired = true
		return true
	case rs.Every > 0:
		return rs.seen%uint64(rs.Every) == 0
	default:
		return rs.rng.Float64() < rs.P
	}
}

// Injector evaluates one Plan against one stack. It is not safe for
// concurrent use; each shard owns its own Injector (bandslim.DB salts each
// with the shard id, so shards draw decorrelated schedules from one plan).
type Injector struct {
	rules  []ruleState
	bySite [numSites][]int
}

// NewInjector builds the evaluation state for plan, salted per stack.
// The plan must already be validated.
func NewInjector(plan *Plan, salt uint64) *Injector {
	in := &Injector{rules: make([]ruleState, len(plan.Rules))}
	for i, r := range plan.Rules {
		in.rules[i] = ruleState{Rule: r, rng: sim.NewRNG(mix(plan.Seed, i, salt))}
		in.bySite[r.Site] = append(in.bySite[r.Site], i)
	}
	return in
}

// Check observes one occurrence at site at simulated time now and reports
// the effect to apply, if any. Every matching rule updates its state; the
// first firing rule (in plan order) supplies the effect.
func (in *Injector) Check(site Site, now sim.Time) (Effect, bool) {
	if in == nil {
		return 0, false
	}
	hit := false
	var eff Effect
	for _, ri := range in.bySite[site] {
		if in.rules[ri].step(now) && !hit {
			hit = true
			eff = in.rules[ri].Effect
		}
	}
	return eff, hit
}

// ScheduleEntry is one resolved firing in a Plan's occurrence-indexed
// schedule: rule Rule fires on the Occurrence-th in-window occurrence at its
// site.
type ScheduleEntry struct {
	Rule       int
	Occurrence uint64
}

// Resolve steps each rule of an identically salted Injector over its first
// maxOcc occurrences, all at the start of the rule's window, and returns
// which occurrences fire, per rule. Time-armed (At) rules resolve to an empty
// list — their firing point is a simulated instant, not an occurrence index.
// The result is the exact schedule the Injector produces when every
// occurrence lands inside the rule's window. Like NewInjector, it takes a
// validated plan.
func (p *Plan) Resolve(salt uint64, maxOcc int) [][]uint64 {
	in := NewInjector(p, salt)
	out := make([][]uint64, len(p.Rules))
	for i := range in.rules {
		rs := &in.rules[i]
		if rs.At != 0 {
			continue
		}
		for n := uint64(1); n <= uint64(maxOcc); n++ {
			if rs.step(rs.From) {
				out[i] = append(out[i], n)
			}
		}
	}
	return out
}
