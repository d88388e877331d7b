package driver

// The command-stream golden: a fixed script driven through every Method under
// three submission policies, plus runs under transient DMA faults (windowed,
// synchronous and burst) and a burst run on a small device ring. Each run's
// op results, driver Stats, link byte ledger and driver trace (JSONL) are
// byte-compared with testdata/command_stream.golden, so a refactor of the
// put/get/retry paths that moves one command, byte or simulated nanosecond
// fails here. To regenerate after an intentional change, delete the file and
// run the test once.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"bandslim/internal/device"
	"bandslim/internal/fault"
	"bandslim/internal/metrics"
	"bandslim/internal/trace"
)

const goldenPath = "testdata/command_stream.golden"

// goldenSizes straddle every boundary choose and the inline/transfer split
// use: the write command's 35 inline bytes, one transfer command more (91),
// Threshold1 (128), the memory page, Threshold2's hybrid tail (4096+64), and
// the staging region (MaxValueSize).
var goldenSizes = []int{35, 36, 91, 92, 128, 129, 4096, 4160, 4161, MaxValueSize + 1}

// goldenCase is one section of the golden: a method under a named submission
// policy, optionally with a fault plan, a device ring of ring slots, or a
// window that reads every key (windowAll).
type goldenCase struct {
	m         Method
	name      string
	sub       SubmissionConfig
	plan      string
	ring      int
	windowAll bool
}

func (c goldenCase) header() string {
	h := fmt.Sprintf("== method=%v submission=%s", c.m, c.name)
	if c.plan != "" {
		h += fmt.Sprintf(" faults=%q", c.plan)
	}
	if c.ring != 0 {
		h += fmt.Sprintf(" ring=%d", c.ring)
	}
	if c.windowAll {
		h += " window=all"
	}
	return h + "\n"
}

func TestCommandStreamGolden(t *testing.T) {
	var out bytes.Buffer
	sync, pipelined, qd4 := SubmissionConfig{}, PipelinedSubmission(), SubmissionConfig{QueueDepth: 4}
	var cases []goldenCase
	for _, s := range []goldenCase{{name: "sync", sub: sync}, {name: "pipelined", sub: pipelined}, {name: "qd4", sub: qd4}} {
		for _, m := range []Method{MethodBaseline, MethodPiggyback, MethodHybrid, MethodAdaptive, MethodSGL} {
			s.m = m
			cases = append(cases, s)
		}
	}
	// The transient plan under every policy pins per-attempt retries on the
	// window, the synchronous path and around bursts; Piggyback bursts on an
	// 8-slot ring pin how one value's commands split into SQ-sized chunks; the
	// last section reads the value above MaxValueSize through the window too.
	const plan = "seed 7\ndma.in every=3 transient\ndma.out every=4 transient\n"
	cases = append(cases,
		goldenCase{m: MethodAdaptive, name: "qd4", sub: qd4, plan: plan},
		goldenCase{m: MethodAdaptive, name: "sync", sub: sync, plan: plan},
		goldenCase{m: MethodAdaptive, name: "pipelined", sub: pipelined, plan: plan},
		goldenCase{m: MethodPiggyback, name: "pipelined", sub: pipelined, ring: 8},
		goldenCase{m: MethodAdaptive, name: "qd4", sub: qd4, windowAll: true},
	)
	for _, c := range cases {
		out.WriteString(c.header())
		goldenScript(t, &out, c)
	}

	want, err := os.ReadFile(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d bytes); re-run to compare", goldenPath, out.Len())
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("command stream drifted from %s at line %d:\n got %s\nwant %s", goldenPath, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("command stream has %d lines, %s %d", len(got), goldenPath, len(exp))
}

// goldenScript runs the fixed op script on a fresh stack and writes its
// results, Stats, link ledger and trace to w.
func goldenScript(t *testing.T, w io.Writer, c goldenCase) {
	t.Helper()
	dc := Config{Method: c.m, Thresholds: DefaultThresholds(), Submission: c.sub}
	d, dev, link := newStackWith(t, dc, true, func(cfg *device.Config) {
		if c.ring != 0 {
			cfg.QueueDepth = c.ring
		}
	})
	rec := trace.NewRecorder(1 << 16)
	d.SetTracer(rec)
	if c.plan != "" {
		p, err := fault.ParsePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetInjector(fault.NewInjector(p, 0))
	}
	// The value above MaxValueSize tests the fresh staging fallback of the
	// DMA paths; inline it is only 1 170 more transfer commands.
	sizes := goldenSizes
	if c.m == MethodPiggyback {
		sizes = sizes[:len(sizes)-1]
	}
	keys := make([][]byte, len(sizes))
	values := make([][]byte, len(sizes))
	for i, size := range sizes {
		keys[i] = []byte(fmt.Sprintf("g%05d", size))
		values[i] = make([]byte, size)
		for j := range values[i] {
			values[i][j] = byte(j*7 + i)
		}
		fmt.Fprintf(w, "put %s: %s\n", keys[i], goldenErr(d.Put(keys[i], values[i])))
	}
	read := func(label string, key, want []byte, v []byte, err error) {
		switch {
		case err != nil:
			fmt.Fprintf(w, "%s %s: %s\n", label, key, goldenErr(err))
		case !bytes.Equal(v, want):
			fmt.Fprintf(w, "%s %s: MISMATCH (%d bytes)\n", label, key, len(v))
		default:
			fmt.Fprintf(w, "%s %s: ok %d bytes\n", label, key, len(v))
		}
	}
	for i := range keys {
		v, err := d.Get(keys[i])
		read("get", keys[i], values[i], v, err)
	}
	// Repeated misses: every one is a device round trip.
	for i := 0; i < 3; i++ {
		v, err := d.Get([]byte("absent"))
		read("get", []byte("absent"), nil, v, err)
	}
	if d.sub.depth() >= 2 {
		// Only a windowAll section reads the value above MaxValueSize through
		// the window (it fails like the synchronous Get); the other sections
		// leave it out, so adding that read moved none of their lines.
		var batch, want [][]byte
		for i := range keys {
			if c.windowAll || len(values[i]) <= MaxValueSize {
				batch, want = append(batch, keys[i]), append(want, values[i])
			}
		}
		batch, want = append(batch, []byte("absent"), []byte("nokey")), append(want, nil, nil)
		var handles, idx []int
		head := 0
		wait := func() {
			h, i := handles[head], idx[head]
			head++
			v, err := d.waitGetInto(h, nil)
			read("wget", batch[i], want[i], v, err)
		}
		for i, key := range batch {
			if len(handles)-head >= d.sub.depth() {
				wait()
			}
			h, err := d.startGet(key)
			if err != nil {
				fmt.Fprintf(w, "wget %s: start: %s\n", key, goldenErr(err))
				continue
			}
			handles, idx = append(handles, h), append(idx, i)
		}
		for head < len(handles) {
			wait()
		}
	}
	fmt.Fprintf(w, "delete %s: %s\n", keys[0], goldenErr(d.Delete(keys[0])))
	v, err := d.Get(keys[0])
	read("get", keys[0], nil, v, err)
	err = d.Seek([]byte("g"))
	scans := int64(0)
	if err == nil {
		scans = 1
	}
	fmt.Fprintf(w, "seek g: %s\n", goldenErr(err))
	for {
		k, v, err := d.Next()
		if err != nil {
			fmt.Fprintf(w, "next: %s\n", goldenErr(err))
			break
		}
		fmt.Fprintf(w, "next %s: %d bytes\n", k, len(v))
	}
	fmt.Fprintf(w, "flush: %s\n", goldenErr(d.Flush()))
	id, err := d.Identify()
	fmt.Fprintf(w, "identify: %+v %s\n", id, goldenErr(err))
	n, err := d.CompactVLog(1)
	fmt.Fprintf(w, "compact 1: relocated %d %s\n", n, goldenErr(err))

	s := d.Stats()
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"puts", s.Puts.Value()}, {"gets", s.Gets.Value()}, {"deletes", s.Deletes.Value()}, {"scans", scans},
		{"inline", s.InlineChosen.Value()}, {"prp", s.PRPChosen.Value()}, {"hybrid", s.HybridChosen.Value()},
		{"commands", s.CommandsIssued.Value()}, {"retries", s.Retries.Value()}, {"retries_exhausted", s.RetriesExhausted.Value()},
		{"recoveries", s.Recoveries.Value()},
	} {
		fmt.Fprintf(w, "stat %s %d\n", c.name, c.v)
	}
	goldenHist(w, "write_response", s.WriteResponse)
	goldenHist(w, "read_response", s.ReadResponse)
	for _, set := range []struct {
		name string
		set  *metrics.HistogramSet
	}{{"per_op", s.PerOp}, {"per_method", s.PerMethod}} {
		for _, name := range set.set.Names() {
			goldenHist(w, set.name+"/"+name, set.set.Get(name))
		}
	}
	tr := &link.Traf
	fmt.Fprintf(w, "link cmd=%d dma=%d sgl_desc=%d mmio=%d cpl=%d commands=%d doorbells=%d h2d=%d\n",
		tr.CommandBytes.Value(), tr.DMABytes.Value(), tr.SGLDescBytes.Value(), tr.MMIOBytes.Value(),
		tr.CompletionBytes.Value(), commands(link), doorbells(link), link.HostToDeviceBytes())
	fmt.Fprintf(w, "now %d\n", int64(d.clock.Now()))
	if rec.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", rec.Dropped())
	}
	if err := trace.WriteJSONL(w, rec.Events()); err != nil {
		t.Fatal(err)
	}
}

func goldenHist(w io.Writer, name string, h *metrics.Histogram) {
	fmt.Fprintf(w, "hist %s count=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f\n", name, h.Count(), h.Mean(), h.P50(), h.P99(), h.Max())
}

func goldenErr(err error) string {
	if err == nil {
		return "ok"
	}
	return "error: " + err.Error()
}
