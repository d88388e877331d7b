package workload

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bandslim/internal/sim"
)

// Deterministic trace format — versioned, line-oriented, hand-writable:
//
//	bandslim-trace v1
//	# anything after '#' is a comment
//	seed 42
//	put 0us "y00000000" 128
//	get 1250ns "y00000007"
//	scan 2us "y00000010" 17
//	rmw 3us "y00000003" 64
//	del 4us "k"
//
// The first directive must be the version line. An optional `seed N` line
// (at most one) carries the value-content seed: value bytes for put/rmw ops
// are regenerated from it in op order, so a replayed trace writes the exact
// bytes of the recorded run. Each op line is `<verb> <at> <quoted-key> [n]`:
// at is an integer simulated instant with an ns/us/ms/s suffix (arrival
// instants never decrease), the key is a Go-quoted string, and n is the
// value size (put/rmw) or entry count (scan). get/del take no n.
//
// Determinism contract: FormatTrace is canonical — parsing its output
// reproduces the Trace exactly, and re-formatting is byte-identical. Any
// generator run recorded through Trace.Append replays bit-identically:
// same ops, same arrival stamps, same value bytes.

// TraceVersion is the format version this package reads and writes.
const TraceVersion = 1

// traceHeader is the required first directive of a trace file.
const traceHeader = "bandslim-trace v1"

// Limits keeping hostile hand-written traces from ballooning a replay.
const (
	// maxTraceKeyLen bounds one key's byte length.
	maxTraceKeyLen = 4096
	// maxTraceValue bounds a put/rmw value size.
	maxTraceValue = 16 << 20
	// maxTraceScan bounds one scan's entry count.
	maxTraceScan = 1 << 20
)

// Trace is a parsed (or recorded) deterministic op stream.
type Trace struct {
	// Seed regenerates value contents on replay.
	Seed uint64
	// Ops is the stream in issue order.
	Ops []ScenarioOp
}

// Append records one scenario op, copying its key.
func (tr *Trace) Append(op ScenarioOp) {
	op.Key = append([]byte(nil), op.Key...)
	tr.Ops = append(tr.Ops, op)
}

// Validate checks the trace's structural invariants: known op kinds,
// non-empty bounded keys, sane sizes, and non-decreasing arrival stamps.
func (tr *Trace) Validate() error {
	prev := sim.Time(0)
	for i, op := range tr.Ops {
		if int(op.Kind) >= int(opKinds) {
			return fmt.Errorf("workload: trace op %d: unknown kind %d", i, op.Kind)
		}
		if len(op.Key) == 0 || len(op.Key) > maxTraceKeyLen {
			return fmt.Errorf("workload: trace op %d: key length %d outside [1, %d]",
				i, len(op.Key), maxTraceKeyLen)
		}
		if op.At < prev {
			return fmt.Errorf("workload: trace op %d: arrival %v before previous %v",
				i, op.At, prev)
		}
		prev = op.At
		switch op.Kind {
		case OpPut, OpRMW:
			if op.N < 1 || op.N > maxTraceValue {
				return fmt.Errorf("workload: trace op %d: value size %d outside [1, %d]",
					i, op.N, maxTraceValue)
			}
		case OpScan:
			if op.N < 1 || op.N > maxTraceScan {
				return fmt.Errorf("workload: trace op %d: scan count %d outside [1, %d]",
					i, op.N, maxTraceScan)
			}
		default:
			if op.N != 0 {
				return fmt.Errorf("workload: trace op %d: %v takes no count, got %d",
					i, op.Kind, op.N)
			}
		}
	}
	return nil
}

// atUnits render arrival instants in the coarsest exact unit; longest
// suffixes first so "ms" is never read as a malformed "s".
var atUnits = []struct {
	suffix string
	dur    sim.Duration
}{
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

// parseAt parses an integer simulated instant like "10us" or "1500ns".
// Unlike the fault-plan parser this one is integer-only, so formatting and
// re-parsing is exact for every representable instant.
func parseAt(s string) (sim.Time, error) {
	for _, u := range atUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		v, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue // "5m"+"s" would strip the wrong suffix; keep looking
		}
		if v < 0 {
			return 0, fmt.Errorf("negative time %q", s)
		}
		if v > int64(1)<<62/int64(u.dur) {
			return 0, fmt.Errorf("time %q too large", s)
		}
		return sim.Time(v * int64(u.dur)), nil
	}
	return 0, fmt.Errorf("bad time %q (want an integer with ns/us/ms/s suffix)", s)
}

// formatAt renders t in the coarsest unit that divides it exactly.
func formatAt(t sim.Time) string {
	if t == 0 {
		return "0us"
	}
	for i := len(atUnits) - 1; i >= 0; i-- {
		u := atUnits[i]
		if t%sim.Time(u.dur) == 0 {
			return fmt.Sprintf("%d%s", int64(t)/int64(u.dur), u.suffix)
		}
	}
	return fmt.Sprintf("%dns", int64(t))
}

// splitTraceFields tokenizes one op line: whitespace-separated fields, with
// Go-quoted strings kept intact (quotes included) as single fields. A '#'
// outside quotes starts a comment; inside a quoted key it is data, so keys
// containing '#' survive the canonical round trip.
func splitTraceFields(line string) ([]string, error) {
	var fields []string
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			return fields, nil
		case c == '"' || c == '`':
			q, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return nil, fmt.Errorf("bad quoted string")
			}
			fields = append(fields, q)
			i += len(q)
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' &&
				line[j] != '\r' && line[j] != '#' {
				j++
			}
			fields = append(fields, line[i:j])
			i = j
		}
	}
	return fields, nil
}

// ParseTrace reads the trace text format. Accepted traces always Validate.
func ParseTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	sawHeader, sawSeed := false, false
	for lineno, line := range strings.Split(string(raw), "\n") {
		fields, err := splitTraceFields(line)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %v", lineno+1, err)
		}
		if len(fields) == 0 {
			continue
		}
		if !sawHeader {
			if len(fields) != 2 || fields[0]+" "+fields[1] != traceHeader {
				return nil, fmt.Errorf("workload: trace line %d: missing header %q",
					lineno+1, traceHeader)
			}
			sawHeader = true
			continue
		}
		if fields[0] == "seed" {
			if sawSeed {
				return nil, fmt.Errorf("workload: trace line %d: duplicate seed", lineno+1)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("workload: trace line %d: seed takes one value", lineno+1)
			}
			v, err := strconv.ParseUint(fields[1], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad seed %q", lineno+1, fields[1])
			}
			tr.Seed = v
			sawSeed = true
			continue
		}
		op, err := parseTraceOp(fields)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineno+1, err)
		}
		tr.Ops = append(tr.Ops, op)
	}
	if !sawHeader {
		return nil, fmt.Errorf("workload: trace missing header %q", traceHeader)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// parseTraceOp decodes one `<verb> <at> <quoted-key> [n]` line.
func parseTraceOp(fields []string) (ScenarioOp, error) {
	var op ScenarioOp
	kind, ok := ParseOpKind(fields[0])
	if !ok {
		return op, fmt.Errorf("unknown op %q", fields[0])
	}
	op.Kind = kind
	wantN := kind == OpPut || kind == OpRMW || kind == OpScan
	if want := 3 + b2i(wantN); len(fields) != want {
		return op, fmt.Errorf("%s takes %d fields, got %d", fields[0], want, len(fields))
	}
	at, err := parseAt(fields[1])
	if err != nil {
		return op, err
	}
	op.At = at
	key, err := strconv.Unquote(fields[2])
	if err != nil {
		return op, fmt.Errorf("key must be a quoted string, got %s", fields[2])
	}
	op.Key = []byte(key)
	if wantN {
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			return op, fmt.Errorf("bad count %q", fields[3])
		}
		op.N = n
	}
	return op, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FormatTrace renders a trace in canonical text form: ParseTrace of the
// result reproduces the trace exactly, and formatting is a fixed point.
func FormatTrace(tr *Trace) string {
	var b strings.Builder
	b.WriteString(traceHeader)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "seed %d\n", tr.Seed)
	for _, op := range tr.Ops {
		b.WriteString(op.Kind.String())
		b.WriteByte(' ')
		b.WriteString(formatAt(op.At))
		b.WriteByte(' ')
		b.WriteString(strconv.Quote(string(op.Key)))
		if op.Kind == OpPut || op.Kind == OpRMW || op.Kind == OpScan {
			fmt.Fprintf(&b, " %d", op.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTrace writes the canonical form to w.
func WriteTrace(w io.Writer, tr *Trace) error {
	_, err := io.WriteString(w, FormatTrace(tr))
	return err
}

// Replay adapts a parsed trace to the Scenario interface, so a recorded (or
// hand-written) stream drives a stack through exactly the machinery a live
// generator does.
type Replay struct {
	tr *Trace
	i  int
}

// NewReplay returns a Scenario that re-issues tr's ops in order.
func NewReplay(tr *Trace) *Replay { return &Replay{tr: tr} }

// Name implements Scenario.
func (r *Replay) Name() string { return "replay" }

// Next implements Scenario.
func (r *Replay) Next() (ScenarioOp, bool) {
	if r.i >= len(r.tr.Ops) {
		return ScenarioOp{}, false
	}
	op := r.tr.Ops[r.i]
	r.i++
	return op, true
}
