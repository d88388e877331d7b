package workload

import (
	"reflect"
	"strings"
	"testing"

	"bandslim/internal/sim"
)

func TestParseAtFormatAtRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"0us", 0},
		{"0ns", 0},
		{"1ns", sim.Time(sim.Nanosecond)},
		{"20us", sim.Time(20 * sim.Microsecond)},
		{"1500ns", sim.Time(1500 * sim.Nanosecond)},
		{"3ms", sim.Time(3 * sim.Millisecond)},
		{"2s", sim.Time(2 * sim.Second)},
	}
	for _, tc := range cases {
		got, err := parseAt(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseAt(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			continue
		}
		// formatAt is canonical: re-parsing its output is exact.
		back, err := parseAt(formatAt(got))
		if err != nil || back != got {
			t.Errorf("formatAt(%v) = %q does not re-parse exactly", got, formatAt(got))
		}
	}
	for _, bad := range []string{"", "5", "ns", "-1us", "1.5us", "5m", "1e3us",
		"99999999999999999999ns", "9223372036854775807s"} {
		if _, err := parseAt(bad); err == nil {
			t.Errorf("parseAt(%q) accepted", bad)
		}
	}
}

func TestFormatAtCoarsestUnit(t *testing.T) {
	cases := []struct {
		t    sim.Time
		want string
	}{
		{0, "0us"},
		{sim.Time(sim.Nanosecond), "1ns"},
		{sim.Time(sim.Microsecond), "1us"},
		{sim.Time(sim.Millisecond), "1ms"},
		{sim.Time(sim.Second), "1s"},
		{sim.Time(1500 * sim.Microsecond), "1500us"},
	}
	for _, tc := range cases {
		if got := formatAt(tc.t); got != tc.want {
			t.Errorf("formatAt(%v) = %q, want %q", tc.t, got, tc.want)
		}
	}
}

const sampleTrace = `bandslim-trace v1
# comment line
seed 99

put 0us "k1" 128   # trailing comment
get 20us "k1"
scan 40us "k#weird" 7
rmw 60us "\x00bin" 64
del 80us "k1"
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
		{Kind: OpPut, At: 0, Key: []byte("k1"), N: 128},
		{Kind: OpGet, At: sim.Time(20 * sim.Microsecond), Key: []byte("k1")},
		{Kind: OpScan, At: sim.Time(40 * sim.Microsecond), Key: []byte("k#weird"), N: 7},
		{Kind: OpRMW, At: sim.Time(60 * sim.Microsecond), Key: []byte("\x00bin"), N: 64},
		{Kind: OpDelete, At: sim.Time(80 * sim.Microsecond), Key: []byte("k1")},
	}
	if !reflect.DeepEqual(tr.Ops, want) {
		t.Fatalf("ops mismatch:\n got %+v\nwant %+v", tr.Ops, want)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"missing header":    "seed 1\nput 0us \"k\" 8\n",
		"ops before header": "put 0us \"k\" 8\nbandslim-trace v1\n",
		"wrong version":     "bandslim-trace v2\n",
		"duplicate seed":    "bandslim-trace v1\nseed 1\nseed 2\n",
		"bad seed":          "bandslim-trace v1\nseed banana\n",
		"seed arity":        "bandslim-trace v1\nseed 1 2\n",
		"unknown verb":      "bandslim-trace v1\nfrob 0us \"k\"\n",
		"unquoted key":      "bandslim-trace v1\nget 0us k\n",
		"bad quote":         "bandslim-trace v1\nget 0us \"k\n",
		"missing count":     "bandslim-trace v1\nput 0us \"k\"\n",
		"extra count":       "bandslim-trace v1\nget 0us \"k\" 5\n",
		"bad count":         "bandslim-trace v1\nput 0us \"k\" x\n",
		"zero value":        "bandslim-trace v1\nput 0us \"k\" 0\n",
		"huge value":        "bandslim-trace v1\nput 0us \"k\" 999999999\n",
		"huge scan":         "bandslim-trace v1\nscan 0us \"k\" 99999999\n",
		"empty key":         "bandslim-trace v1\nget 0us \"\"\n",
		"bad time":          "bandslim-trace v1\nget zebra \"k\"\n",
		"time regression":   "bandslim-trace v1\nget 5us \"k\"\nget 1us \"k\"\n",
		"negative scan":     "bandslim-trace v1\nscan 0us \"k\" -3\n",
		"long key": "bandslim-trace v1\nget 0us \"" +
			strings.Repeat("a", maxTraceKeyLen+1) + "\"\n",
	}
	for name, src := range cases {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, src)
		}
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
	s, err := NewScenario("mixed", ScenarioConfig{
		Records: 50, Ops: 300, Seed: 17,
		Arrival: ArrivalConfig{Rate: 50000, Jitter: true},
	})
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
	tr.Append(ScenarioOp{Kind: OpGet, At: sim.Time(sim.Microsecond), Key: []byte("a")})
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
