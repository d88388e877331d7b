package driver

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim/internal/device"
	"bandslim/internal/pcie"
)

// newPipelined builds a piggyback driver under PipelinedSubmission.
func newPipelined(t *testing.T, nandOn bool) (*Driver, *device.Device, *pcie.Link) {
	t.Helper()
	return newStackWith(t, Config{Method: MethodPiggyback, Thresholds: DefaultThresholds(), Submission: PipelinedSubmission()}, nandOn)
}

func TestPipelinedToggle(t *testing.T) {
	d, _, _ := newStack(t, MethodPiggyback, false)
	if d.sub.burst() {
		t.Fatal("pipelining on by default; the paper's testbed serializes")
	}
	if d, _, _ = newPipelined(t, false); !d.sub.burst() {
		t.Fatal("PipelinedSubmission lost")
	}
}

func TestPipelinedPutFasterThanSerial(t *testing.T) {
	serial, _, _ := newStack(t, MethodPiggyback, false)
	serial.Put([]byte("k"), make([]byte, 2048))
	sResp := serial.Stats().WriteResponse.Mean()

	pipe, _, _ := newPipelined(t, false)
	pipe.Put([]byte("k"), make([]byte, 2048))
	pResp := pipe.Stats().WriteResponse.Mean()

	if pResp >= sResp/3 {
		t.Fatalf("pipelined %.0f ns not ≪ serial %.0f ns", pResp, sResp)
	}
}

func TestPipelinedFewerDoorbells(t *testing.T) {
	d, _, link := newPipelined(t, false)
	d.Put([]byte("k"), make([]byte, 1024)) // 19 commands, one burst
	if got := doorbells(link); got != 2 {
		t.Fatalf("doorbells = %d, want 2 (one SQ + one CQ)", got)
	}
	if got := commands(link); got != 19 {
		t.Fatalf("commands = %d, want 19", got)
	}
}

func TestPipelinedBurstSplitsAtQueueDepth(t *testing.T) {
	// A 4 KiB value needs 74 commands; the default 64-deep SQ forces two
	// bursts, and everything still lands correctly.
	d, _, link := newPipelined(t, true)
	v := make([]byte, 4096)
	for i := range v {
		v[i] = byte(i * 11)
	}
	if err := d.Put([]byte("big"), v); err != nil {
		t.Fatal(err)
	}
	if got := doorbells(link); got != 4 {
		t.Fatalf("doorbells = %d, want 4 (two bursts)", got)
	}
	got, err := d.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, v) {
		t.Fatal("split-burst value corrupted")
	}
}

func TestPipelinedRoundTripsAllSizes(t *testing.T) {
	d, _, _ := newPipelined(t, true)
	for _, size := range []int{1, 35, 36, 100, 500, 3000} {
		key := []byte(fmt.Sprintf("p%d", size))
		v := bytes.Repeat([]byte{byte(size)}, size)
		if err := d.Put(key, v); err != nil {
			t.Fatalf("Put(%d): %v", size, err)
		}
		got, err := d.Get(key)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%d) mismatch", size)
		}
	}
}

func TestPowerFailureSemantics(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	// Durable path: per-PUT writes land in the device's battery-backed
	// buffer before completion.
	if err := d.Put([]byte("safe"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Volatile path: batched records buffered on the host.
	b, _ := d.NewBatcher(100)
	b.Put([]byte("flushed"), []byte("x"))
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Put([]byte("doomed1"), []byte("y"))
	b.Put([]byte("doomed2"), []byte("z"))
	if peak := b.Stats().PeakAtRiskOps; peak != 2 {
		t.Fatalf("PeakAtRiskOps = %d, want 2", peak)
	}
	// Power fails: host DRAM, and the batch in it, is gone; the device
	// remounts from its battery-backed journal.
	b.discard()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	// Durable and flushed records survive; unflushed batched ones do not.
	if _, err := d.Get([]byte("safe")); err != nil {
		t.Fatal("per-PUT record lost")
	}
	if _, err := d.Get([]byte("flushed")); err != nil {
		t.Fatal("flushed batch record lost")
	}
	if _, err := d.Get([]byte("doomed1")); err == nil {
		t.Fatal("volatile batch record survived the power failure")
	}
}

func TestCompactVLogViaDriver(t *testing.T) {
	d, dev, _ := newStack(t, MethodAdaptive, true)
	if _, err := d.CompactVLog(0); err == nil {
		t.Fatal("pages=0 accepted")
	}
	for i := 0; i < 60; i++ {
		if err := d.Put([]byte("hot"), bytes.Repeat([]byte{byte(i)}, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	relocated, err := d.CompactVLog(4)
	if err != nil {
		t.Fatal(err)
	}
	if relocated > 1 {
		t.Fatalf("relocated %d; only the live version should move", relocated)
	}
	if dev.VLog().Tail() == 0 {
		t.Fatal("nothing reclaimed")
	}
	got, err := d.Get([]byte("hot"))
	if err != nil || got[0] != 59 {
		t.Fatal("live value lost by compaction")
	}
}
