package workload

import (
	"reflect"
	"strings"
	"testing"
)

const sampleTrace = `bandslim-trace v2
# comment line
seed 99

put "k1" 128   # trailing comment
get "k1"
scan "k#weird" 7
rmw "\x00bin" 64
del "k1"
`

func TestParseTraceSample(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seed != 99 || len(tr.Ops) != 5 {
		t.Fatalf("got seed %d, %d ops", tr.Seed, len(tr.Ops))
	}
	want := []ScenarioOp{
		{Kind: OpPut, Key: []byte("k1"), N: 128},
		{Kind: OpGet, Key: []byte("k1")},
		{Kind: OpScan, Key: []byte("k#weird"), N: 7},
		{Kind: OpRMW, Key: []byte("\x00bin"), N: 64},
		{Kind: OpDelete, Key: []byte("k1")},
	}
	if !reflect.DeepEqual(tr.Ops, want) {
		t.Fatalf("ops mismatch:\n got %+v\nwant %+v", tr.Ops, want)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"missing header":    "seed 1\nput \"k\" 8\n",
		"ops before header": "put \"k\" 8\nbandslim-trace v2\n",
		"wrong version":     "bandslim-trace v3\n",
		"duplicate seed":    "bandslim-trace v2\nseed 1\nseed 2\n",
		"bad seed":          "bandslim-trace v2\nseed banana\n",
		"seed arity":        "bandslim-trace v2\nseed 1 2\n",
		"unknown verb":      "bandslim-trace v2\nfrob \"k\"\n",
		"unquoted key":      "bandslim-trace v2\nget k\n",
		"bad quote":         "bandslim-trace v2\nget \"k\n",
		"missing count":     "bandslim-trace v2\nput \"k\"\n",
		"extra count":       "bandslim-trace v2\nget \"k\" 5\n",
		"bad count":         "bandslim-trace v2\nput \"k\" x\n",
		"zero value":        "bandslim-trace v2\nput \"k\" 0\n",
		"huge value":        "bandslim-trace v2\nput \"k\" 999999999\n",
		"huge scan":         "bandslim-trace v2\nscan \"k\" 99999999\n",
		"empty key":         "bandslim-trace v2\nget \"\"\n",
		"v1 time field":     "bandslim-trace v2\nget 5us \"k\"\n",
		"negative scan":     "bandslim-trace v2\nscan \"k\" -3\n",
		"long key": "bandslim-trace v2\nget \"" +
			strings.Repeat("a", maxTraceKeyLen+1) + "\"\n",
	}
	for name, src := range cases {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, src)
		}
	}
}

// A v1 trace carries arrival stamps this format no longer has; it is refused
// by its header, and the error names the header the parser wants.
func TestParseTraceRejectsV1(t *testing.T) {
	_, err := ParseTrace(strings.NewReader("bandslim-trace v1\nget 0us \"k\"\n"))
	if err == nil || !strings.Contains(err.Error(), `"bandslim-trace v2"`) {
		t.Fatalf("v1 trace: err = %v, want one naming the v2 header", err)
	}
}

func TestFormatTraceCanonical(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTrace(tr)
	back, err := ParseTrace(strings.NewReader(text))
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("canonical round trip altered the trace:\n%s", text)
	}
	if again := FormatTrace(back); again != text {
		t.Fatalf("FormatTrace is not a fixed point:\n%q\nvs\n%q", text, again)
	}
}

func TestTraceRecordedRoundTrip(t *testing.T) {
	// A recorded generator stream must survive the text format exactly.
	s, err := NewScenario("mixed", ScenarioConfig{Records: 50, Ops: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Seed: 17}
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		tr.Append(op)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	back, err := ParseTrace(strings.NewReader(FormatTrace(tr)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("recorded trace altered by text round trip")
	}
}

func TestReplayScenario(t *testing.T) {
	tr := &Trace{Seed: 3}
	tr.Append(ScenarioOp{Kind: OpPut, Key: []byte("a"), N: 8})
	tr.Append(ScenarioOp{Kind: OpGet, Key: []byte("a")})
	r := NewReplay(tr)
	if r.Name() != "replay" {
		t.Fatalf("fresh replay: name %q", r.Name())
	}
	op, ok := r.Next()
	if !ok || op.Kind != OpPut || string(op.Key) != "a" {
		t.Fatalf("first op = %+v, %v", op, ok)
	}
	if op, ok = r.Next(); !ok || op.Kind != OpGet {
		t.Fatalf("second op = %+v, %v", op, ok)
	}
	if _, ok = r.Next(); ok {
		t.Fatal("replay did not exhaust")
	}
}

func TestTraceValidateKinds(t *testing.T) {
	tr := &Trace{}
	tr.Append(ScenarioOp{Kind: OpKind(250), Key: []byte("k")})
	if err := tr.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	tr = &Trace{}
	tr.Append(ScenarioOp{Kind: OpGet, Key: []byte("k"), N: 1})
	if err := tr.Validate(); err == nil {
		t.Error("get with a count accepted")
	}
}
