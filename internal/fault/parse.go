package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bandslim/internal/sim"
)

// Plan text format — one directive per line, '#' starts a comment:
//
//	seed 42
//	nand.program nth=3 media
//	dma.in p=0.01 from=0us to=5ms transient
//	nand.read every=100 media
//	power at=12ms
//
// A rule line is: <site> <key=value options> <effect>. Options are the
// trigger (exactly one of nth=, every=, p=, at=) and the optional window
// (from=, to=). Durations take an ns/us/ms/s suffix. `power at=<t>` is sugar
// for `exec at=<t> powercut`.

// ParsePlan parses the plan text format.
func ParsePlan(text string) (*Plan, error) {
	p := &Plan{}
	seenSeed := false
	for lineno, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "seed" {
			if seenSeed {
				return nil, fmt.Errorf("fault: line %d: duplicate seed", lineno+1)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("fault: line %d: seed takes one value", lineno+1)
			}
			v, err := strconv.ParseUint(fields[1], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: line %d: bad seed %q", lineno+1, fields[1])
			}
			p.Seed = v
			seenSeed = true
			continue
		}
		r, err := parseRule(fields)
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", lineno+1, err)
		}
		p.Rules = append(p.Rules, r)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRule(fields []string) (Rule, error) {
	var r Rule
	site := fields[0]
	rest := fields[1:]
	power := site == "power"
	if power {
		r.Site = SiteExec
		r.Effect = EffectPowerCut
	} else {
		s, ok := ParseSite(site)
		if !ok {
			return r, fmt.Errorf("unknown site %q", site)
		}
		r.Site = s
	}
	haveEffect := power
	for _, f := range rest {
		if eff, ok := ParseEffect(f); ok {
			if haveEffect {
				return r, fmt.Errorf("duplicate effect %q", f)
			}
			r.Effect = eff
			haveEffect = true
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("bad token %q", f)
		}
		var err error
		switch key {
		case "nth":
			r.Nth, err = parseCount(val)
		case "every":
			r.Every, err = parseCount(val)
		case "p":
			r.P, err = strconv.ParseFloat(val, 64)
			if err == nil && (math.IsNaN(r.P) || r.P <= 0 || r.P > 1) {
				err = fmt.Errorf("probability outside (0, 1]")
			}
		case "at":
			r.At, err = parseTime(val)
			if err == nil && r.At == 0 {
				err = fmt.Errorf("at=0 is reserved (use nth=1 for the first occurrence)")
			}
		case "from":
			r.From, err = parseTime(val)
		case "to":
			r.To, err = parseTime(val)
		default:
			err = fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return r, fmt.Errorf("%s=%s: %w", key, val, err)
		}
	}
	if !haveEffect {
		return r, fmt.Errorf("missing effect (media, transient, or powercut)")
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

func parseCount(s string) (int, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("must be positive")
	}
	return int(v), nil
}

var timeUnits = []struct {
	suffix string
	dur    sim.Duration
}{
	// Longest suffixes first so "ms" is not read as "m"+"s".
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

func parseTime(s string) (sim.Time, error) {
	for _, u := range timeUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue // "5m" + "s" would strip the wrong suffix; keep looking
		}
		if math.IsNaN(v) || v < 0 {
			return 0, fmt.Errorf("negative time")
		}
		ns := v * float64(u.dur)
		if ns >= float64(int64(1)<<62) { // keep int64 conversion well-defined
			return 0, fmt.Errorf("time too large")
		}
		return sim.Time(ns), nil
	}
	return 0, fmt.Errorf("bad time %q (want e.g. 10us, 5ms, 1s)", s)
}

func formatTime(t sim.Time) string {
	switch {
	case t == 0:
		return "0us"
	case t%sim.Time(sim.Second) == 0:
		return fmt.Sprintf("%ds", t/sim.Time(sim.Second))
	case t%sim.Time(sim.Millisecond) == 0:
		return fmt.Sprintf("%dms", t/sim.Time(sim.Millisecond))
	case t%sim.Time(sim.Microsecond) == 0:
		return fmt.Sprintf("%dus", t/sim.Time(sim.Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FormatRule renders one rule in canonical plan-text form; ParsePlan of the
// result reproduces the rule.
func FormatRule(r Rule) string {
	var b strings.Builder
	b.WriteString(r.Site.String())
	switch {
	case r.Nth > 0:
		fmt.Fprintf(&b, " nth=%d", r.Nth)
	case r.Every > 0:
		fmt.Fprintf(&b, " every=%d", r.Every)
	case r.P != 0:
		fmt.Fprintf(&b, " p=%s", strconv.FormatFloat(r.P, 'g', -1, 64))
	case r.At != 0:
		fmt.Fprintf(&b, " at=%s", formatTime(r.At))
	}
	if r.From != 0 {
		fmt.Fprintf(&b, " from=%s", formatTime(r.From))
	}
	if r.To != 0 {
		fmt.Fprintf(&b, " to=%s", formatTime(r.To))
	}
	b.WriteByte(' ')
	b.WriteString(r.Effect.String())
	return b.String()
}
