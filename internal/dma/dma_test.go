package dma

import (
	"bytes"
	"testing"

	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

func newEngine() (*Engine, *pcie.Link, *nvme.HostMemory) {
	link := pcie.NewLink(pcie.DefaultCostModel())
	return NewEngine(link, DefaultMemcpyModel()), link, nvme.NewHostMemory()
}

func TestPageAligned(t *testing.T) {
	if !PageAligned(0) || !PageAligned(4096) || !PageAligned(8192) {
		t.Fatal("aligned values rejected")
	}
	if PageAligned(1) || PageAligned(4097) {
		t.Fatal("unaligned values accepted")
	}
}

func TestMemcpyModelCost(t *testing.T) {
	m := DefaultMemcpyModel()
	if m.Cost(0) != 0 || m.Cost(-5) != 0 {
		t.Fatal("zero-length copy has nonzero cost")
	}
	// 100 MB/s → 1000 bytes = 10µs plus fixed overhead.
	got := m.Cost(1000)
	want := m.Fixed + 10000*sim.Nanosecond
	if got != want {
		t.Fatalf("Cost(1000) = %v, want %v", got, want)
	}
}

// A 32-byte value still moves one full 4 KiB page (§2.3 Problem #1).
func TestTransferInPageUnitBloat(t *testing.T) {
	e, link, m := newEngine()
	v := bytes.Repeat([]byte{7}, 32)
	prp, err := nvme.BuildPRP(m, v)
	if err != nil {
		t.Fatal(err)
	}
	got, end, err := e.TransferInTo(0, m, prp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("payload mismatch")
	}
	if link.Traf.DMABytes.Value() != 4096 {
		t.Fatalf("DMA traffic %d, want 4096", link.Traf.DMABytes.Value())
	}
	// 8.2µs per-page processing + 4096/3.2GB/s = 1.28µs on the wire.
	if want := sim.Time(8200 + 1280); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

// The (4K+32)B case moves 8 KiB.
func TestTransferInTwoPages(t *testing.T) {
	e, link, m := newEngine()
	v := make([]byte, 4096+32)
	for i := range v {
		v[i] = byte(i * 7)
	}
	prp, _ := nvme.BuildPRP(m, v)
	got, end, err := e.TransferInTo(0, m, prp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("payload mismatch")
	}
	if link.Traf.DMABytes.Value() != 8192 {
		t.Fatalf("traffic %d", link.Traf.DMABytes.Value())
	}
	// Twice the one-page cost: the Fig. 3a cascade.
	if want := sim.Time(2 * (8200 + 1280)); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestTransferInEmpty(t *testing.T) {
	e, link, m := newEngine()
	got, end, err := e.TransferInTo(5, m, nvme.PRPList{}, nil)
	if err != nil || got != nil || end != 5 {
		t.Fatalf("empty transfer: %v %v %v", got, end, err)
	}
	if link.Traf.DMABytes.Value() != 0 {
		t.Fatal("empty transfer produced traffic")
	}
}

func TestTransferOutRoundTrip(t *testing.T) {
	e, link, m := newEngine()
	// Allocate a 2-page destination buffer in host memory.
	prp, err := nvme.BuildPRP(m, make([]byte, 6000))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if _, err := e.TransferOut(0, m, prp, data); err != nil {
		t.Fatal(err)
	}
	got, err := prp.GatherInto(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read DMA mismatch")
	}
	if link.Traf.DMABytes.Value() != 2*8192 {
		// BuildPRP transfer (none recorded: BuildPRP doesn't transfer) —
		// only the out transfer counts: 8192.
		if link.Traf.DMABytes.Value() != 8192 {
			t.Fatalf("traffic %d", link.Traf.DMABytes.Value())
		}
	}
}

func TestTransferOutEmpty(t *testing.T) {
	e, _, m := newEngine()
	end, err := e.TransferOut(9, m, nvme.PRPList{}, nil)
	if err != nil || end != 9 {
		t.Fatalf("empty out transfer: %v %v", end, err)
	}
}

func TestTransferOutOverflow(t *testing.T) {
	e, _, m := newEngine()
	prp, _ := nvme.BuildPRP(m, make([]byte, 100)) // 1-page capacity
	if _, err := e.TransferOut(0, m, prp, make([]byte, 9000)); err == nil {
		t.Fatal("overflowing TransferOut accepted")
	}
}

func TestMemcpyAccounting(t *testing.T) {
	e, _, _ := newEngine()
	end := e.Memcpy(0, 1000)
	if end != sim.Time(DefaultMemcpyModel().Cost(1000)) {
		t.Fatalf("memcpy end = %v", end)
	}
	if e.Stats().Memcpys.Value() != 1 {
		t.Fatal("memcpy stats wrong")
	}
	if e.Stats().MemcpyTime.Value() != int64(DefaultMemcpyModel().Cost(1000)) {
		t.Fatal("memcpy time not recorded")
	}
	if e.Memcpy(7, 0) != 7 {
		t.Fatal("zero memcpy advanced time")
	}
}

func TestDMASerializesOnWire(t *testing.T) {
	e, _, m := newEngine()
	v := make([]byte, 4096)
	prp1, _ := nvme.BuildPRP(m, v)
	prp2, _ := nvme.BuildPRP(m, v)
	_, end1, err := e.TransferInTo(0, m, prp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, end2, err := e.TransferInTo(0, m, prp2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= end1 {
		t.Fatalf("second transfer did not queue: %v <= %v", end2, end1)
	}
}
