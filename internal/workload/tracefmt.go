package workload

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Deterministic trace format — versioned, line-oriented, hand-writable:
//
//	bandslim-trace v2
//	# anything after '#' is a comment
//	seed 42
//	put "y00000000" 128
//	get "y00000007"
//	scan "y00000010" 17
//	rmw "y00000003" 64
//	del "k"
//
// The first directive must be the version line. An optional `seed N` line
// (at most one) carries the value-content seed: value bytes for put/rmw ops
// are regenerated from it in op order, so a replayed trace writes the exact
// bytes of the recorded run. Each op line is `<verb> <quoted-key> [n]`: the
// key is a Go-quoted string, and n is the value size (put/rmw) or entry count
// (scan). get/del take no n. Ops replay in file order, each issued when the
// previous one completes.
//
// Determinism contract: FormatTrace is canonical — parsing its output
// reproduces the Trace exactly, and re-formatting is byte-identical. Any
// scenario run recorded through Trace.Append replays bit-identically: same
// ops, same value bytes.

// TraceVersion is the format version this package reads and writes.
const TraceVersion = 2

// traceHeader is the required first directive of a trace file.
const traceHeader = "bandslim-trace v2"

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
// non-empty bounded keys, and sane sizes.
func (tr *Trace) Validate() error {
	for i, op := range tr.Ops {
		if int(op.Kind) >= int(opKinds) {
			return fmt.Errorf("workload: trace op %d: unknown kind %d", i, op.Kind)
		}
		if len(op.Key) == 0 || len(op.Key) > maxTraceKeyLen {
			return fmt.Errorf("workload: trace op %d: key length %d outside [1, %d]",
				i, len(op.Key), maxTraceKeyLen)
		}
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

// parseTraceOp decodes one `<verb> <quoted-key> [n]` line.
func parseTraceOp(fields []string) (ScenarioOp, error) {
	var op ScenarioOp
	kind, ok := ParseOpKind(fields[0])
	if !ok {
		return op, fmt.Errorf("unknown op %q", fields[0])
	}
	op.Kind = kind
	wantN := kind == OpPut || kind == OpRMW || kind == OpScan
	if want := 2 + b2i(wantN); len(fields) != want {
		return op, fmt.Errorf("%s takes %d fields, got %d", fields[0], want, len(fields))
	}
	key, err := strconv.Unquote(fields[1])
	if err != nil {
		return op, fmt.Errorf("key must be a quoted string, got %s", fields[1])
	}
	op.Key = []byte(key)
	if wantN {
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return op, fmt.Errorf("bad count %q", fields[2])
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
