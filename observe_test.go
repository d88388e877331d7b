package bandslim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bandslim/internal/trace"
)

// traceWorkload drives a DB through every transfer decision the adaptive
// driver makes: inline, PRP, hybrid, and multi-page values, plus readbacks
// and a final flush so NAND programs land in the trace.
func traceWorkload(t *testing.T, db *DB) {
	t.Helper()
	sizes := []int{16, 512, 4096 + 32, 8192}
	for i := 0; i < 64; i++ {
		key := []byte{byte(i >> 8), byte(i)}
		if err := db.Put(key, make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := db.Get([]byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceOverThresholdPutChain(t *testing.T) {
	rec := NewRecorder(1 << 16)
	db := openSmall(t, func(c *Config) { c.Tracer = rec })
	defer db.Close()
	// Both over-threshold shapes: hybrid (page + inline tail, which memcpys
	// the tail device-side) and pure multi-page PRP.
	if err := db.Put([]byte("big1"), make([]byte, 4096+32)); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("big2"), make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[trace.Name]bool{
		trace.EvPut: false, trace.EvDoorbell: false, trace.EvCmdFetch: false,
		trace.EvSQFetch: false, trace.EvDMAIn: false, trace.EvMemcpy: false,
		trace.EvProgram: false, trace.EvExec: false,
	}
	for _, ev := range rec.TraceEvents() {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
		if ev.End < ev.Start {
			t.Fatalf("event %v/%v ends before it starts: %v < %v", ev.Cat, ev.Name, ev.End, ev.Start)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("over-threshold PUT chain missing %v event", name)
		}
	}
}

// DeterminismTraceJSONL renders traceWorkload's events as JSONL: a row of
// TestDeterminism.
func DeterminismTraceJSONL(t *testing.T) map[string][]byte {
	rec := NewRecorder(1 << 16)
	db := openSmall(t, func(c *Config) { c.Tracer = rec })
	defer db.Close()
	traceWorkload(t, db)
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, rec.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"trace.jsonl": buf.Bytes()}
}

func TestShardedTraceMergeOrdering(t *testing.T) {
	sdb, err := OpenSharded(ShardedConfig{
		Shards:        4,
		PerShard:      smallConfig(),
		TraceCapacity: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	for i := 0; i < 128; i++ {
		key := []byte{byte(i >> 8), byte(i)}
		if err := sdb.Put(key, make([]byte, 64+i)); err != nil {
			t.Fatal(err)
		}
	}
	events := sdb.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events from sharded run")
	}
	shards := map[int32]bool{}
	for i, ev := range events {
		shards[ev.Shard] = true
		if i == 0 {
			continue
		}
		prev := events[i-1]
		ordered := prev.Start < ev.Start ||
			(prev.Start == ev.Start && (prev.Shard < ev.Shard ||
				(prev.Shard == ev.Shard && prev.Seq <= ev.Seq)))
		if !ordered {
			t.Fatalf("merge out of order at %d: (%v,%d,%d) before (%v,%d,%d)",
				i, prev.Start, prev.Shard, prev.Seq, ev.Start, ev.Shard, ev.Seq)
		}
	}
	if len(shards) < 2 {
		t.Fatalf("expected events from multiple shards, got %d", len(shards))
	}
}

func TestShardedTraceDisabledByDefault(t *testing.T) {
	sdb, err := OpenSharded(ShardedConfig{Shards: 2, PerShard: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if err := sdb.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := sdb.TraceEvents(); got != nil {
		t.Fatalf("TraceEvents without TraceCapacity = %d events, want nil", len(got))
	}
}

func TestErrorSentinelsMatchable(t *testing.T) {
	if !errors.Is(fmt.Errorf("op failed: %w", ErrClosed), ErrClosed) {
		t.Fatal("wrapped ErrClosed not matchable with errors.Is")
	}
	if !errors.Is(fmt.Errorf("scan: %w", ErrIteratorInvalidated), ErrIteratorInvalidated) {
		t.Fatal("wrapped ErrIteratorInvalidated not matchable with errors.Is")
	}
	db := openSmall(t, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}
