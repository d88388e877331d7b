package driver

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim/internal/device"
)

func TestBatcherValidation(t *testing.T) {
	d, _, _ := newStack(t, MethodBaseline, true)
	if _, err := d.NewBatcher(0); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	b, err := d.NewBatcher(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := b.Put(make([]byte, 17), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := b.Put([]byte("k"), make([]byte, 1<<20)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// Batchable is Put's acceptance test, without buffering anything.
	for _, rec := range []struct {
		key, value []byte
		ok         bool
	}{
		{nil, []byte("v"), false},
		{make([]byte, 17), []byte("v"), false},
		{[]byte("k"), make([]byte, 1<<20), false},
		{make([]byte, 16), make([]byte, batchCapacity-device.BatchRecordOverhead-16), true},
		{make([]byte, 16), make([]byte, batchCapacity-device.BatchRecordOverhead-15), false},
	} {
		if got := Batchable(rec.key, rec.value); got != rec.ok {
			t.Errorf("Batchable(%d-byte key, %d-byte value) = %v, want %v", len(rec.key), len(rec.value), got, rec.ok)
		}
		if err := b.Put(rec.key, rec.value); (err == nil) != rec.ok {
			t.Errorf("Put(%d-byte key, %d-byte value) = %v, Batchable says %v", len(rec.key), len(rec.value), err, rec.ok)
		}
	}
}

// A record PutBatch refuses must not leave the records buffered before it
// to ride out with the next batch: the caller was told the batch failed.
func TestPutBatchRefusalDiscardsBuffered(t *testing.T) {
	d, _, _ := newStack(t, MethodBaseline, true)
	keys := [][]byte{[]byte("early"), make([]byte, 17)}
	if err := d.PutBatch(keys, [][]byte{[]byte("v"), []byte("v")}, nil); err == nil {
		t.Fatal("PutBatch accepted a 17-byte key")
	}
	if err := d.PutBatch([][]byte{[]byte("later")}, [][]byte{[]byte("w")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("later")); err != nil {
		t.Fatalf("later: %v", err)
	}
	if _, err := d.Get([]byte("early")); err == nil {
		t.Fatal("a record of the refused batch became durable with the next one")
	}
}

func TestBatcherFlushOnFullAndReadBack(t *testing.T) {
	d, _, link := newStack(t, MethodBaseline, true)
	b, err := d.NewBatcher(4)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]byte{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("bk%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 50+i*30)
		values[key] = v
		if err := b.Put([]byte(key), v); err != nil {
			t.Fatal(err)
		}
	}
	// 10 puts at batch size 4: two automatic flushes, one bulk command
	// each, 2 records pending.
	if got := commands(link); got != 2 {
		t.Fatalf("%d commands, want 2 bulk writes", got)
	}
	if len(b.keys) != 2 {
		t.Fatalf("%d records buffered, want 2", len(b.keys))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(b.keys) != 0 || len(b.payload) != 0 {
		t.Fatal("flush left volatile records")
	}
	for key, v := range values {
		got, err := d.Get([]byte(key))
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("batched value %s corrupted", key)
		}
	}
}

func TestBatcherPeakRiskTracking(t *testing.T) {
	d, _, _ := newStack(t, MethodBaseline, true)
	b, _ := d.NewBatcher(100)
	for i := 0; i < 7; i++ {
		if err := b.Put([]byte{byte(i + 1)}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().PeakAtRiskOps != 7 {
		t.Fatalf("PeakAtRiskOps = %d", b.Stats().PeakAtRiskOps)
	}
	if b.Stats().PeakAtRiskBytes < 700 {
		t.Fatalf("PeakAtRiskBytes = %d", b.Stats().PeakAtRiskBytes)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// Peak persists after flush (it is a high-water mark).
	if b.Stats().PeakAtRiskOps != 7 {
		t.Fatal("peak reset by flush")
	}
}

// Batching amortizes command round trips: 64 tiny records in one bulk PUT
// generate far fewer commands than 64 individual baseline PUTs, but every
// byte of the batch crosses in page units.
func TestBatcherAmortizesCommands(t *testing.T) {
	single, _, slink := newStack(t, MethodBaseline, false)
	for i := 0; i < 64; i++ {
		if err := single.Put([]byte{byte(i + 1)}, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	batched, _, blink := newStack(t, MethodBaseline, false)
	bt, _ := batched.NewBatcher(64)
	for i := 0; i < 64; i++ {
		if err := bt.Put([]byte{byte(i + 1)}, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if got := commands(blink); got != 1 {
		t.Fatalf("batched commands = %d, want 1", got)
	}
	if commands(slink) != 64 {
		t.Fatalf("single commands = %d", commands(slink))
	}
	// 64 × (1+1+4+16) = 1408 B of payload → one 4 KiB page vs 64 pages.
	if blink.Traf.DMABytes.Value() != 4096 {
		t.Fatalf("batched DMA bytes = %d", blink.Traf.DMABytes.Value())
	}
}

func TestBatchedFlushEmptyIsNoOp(t *testing.T) {
	d, _, link := newStack(t, MethodBaseline, true)
	b, _ := d.NewBatcher(8)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if commands(link) != 0 {
		t.Fatal("empty flush sent a command")
	}
}

func TestSGLPutGetRoundTrip(t *testing.T) {
	d, _, link := newStack(t, MethodSGL, true)
	v := bytes.Repeat([]byte{0xAD}, 40000) // ~10 pages
	if err := d.Put([]byte("sgl"), v); err != nil {
		t.Fatal(err)
	}
	// SGL moved exact payload bytes plus 16 B per segment descriptor.
	if link.Traf.DMABytes.Value() != 40000 {
		t.Fatalf("SGL DMA bytes = %d, want exact 40000", link.Traf.DMABytes.Value())
	}
	if link.Traf.SGLDescBytes.Value() != 16*10 {
		t.Fatalf("SGL descriptor bytes = %d", link.Traf.SGLDescBytes.Value())
	}
	got, err := d.Get([]byte("sgl"))
	if err != nil || !bytes.Equal(got, v) {
		t.Fatal("SGL round trip failed")
	}
}

// §2.5: SGL loses to PRP below ~32 KB and wins above.
func TestSGLCrossoverAt32K(t *testing.T) {
	resp := func(m Method, size int) float64 {
		d, _, _ := newStack(t, m, false)
		if err := d.Put([]byte("k"), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		return d.Stats().WriteResponse.Mean()
	}
	if sgl, prp := resp(MethodSGL, 8192), resp(MethodBaseline, 8192); sgl <= prp {
		t.Fatalf("8K: SGL %.1f should lose to PRP %.1f", sgl, prp)
	}
	if sgl, prp := resp(MethodSGL, 48*1024), resp(MethodBaseline, 48*1024); sgl >= prp {
		t.Fatalf("48K: SGL %.1f should beat PRP %.1f", sgl, prp)
	}
}
