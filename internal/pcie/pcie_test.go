package pcie

import (
	"testing"
	"testing/quick"

	"bandslim/internal/sim"
)

func TestPagesFor(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 1}, {32, 1}, {4096, 1}, {4097, 2}, {4128, 2},
		{8192, 2}, {16384, 4}, {-5, 0},
	}
	for _, c := range cases {
		if got := PagesFor(c.in); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPageAlignedSize(t *testing.T) {
	if got := PageAlignedSize(32); got != 4096 {
		t.Fatalf("PageAlignedSize(32) = %d", got)
	}
	if got := PageAlignedSize(4096 + 32); got != 8192 {
		t.Fatalf("PageAlignedSize(4128) = %d", got)
	}
}

// The paper's Fig. 3(b): TAF for a 32-byte value must be exactly 130.0 —
// one command fetch (64 B) plus one 4 KiB page-unit DMA, divided by 32.
func TestTrafficAmplificationFactorMatchesPaper(t *testing.T) {
	want := map[int]float64{32: 130.0, 64: 65.0, 128: 32.5, 256: 16.25, 512: 8.125, 1024: 4.0625}
	for size, taf := range want {
		l := NewLink(DefaultCostModel())
		l.RecordCommandFetch()
		l.RecordDMA(int64(PageAlignedSize(size)))
		got := float64(l.HostToDeviceBytes()) / float64(size)
		if got != taf {
			t.Errorf("TAF(%d B) = %v, want %v", size, got, taf)
		}
	}
}

func TestLedgerSplit(t *testing.T) {
	l := NewLink(DefaultCostModel())
	l.RecordCommandFetch()
	l.RecordDoorbell()
	l.RecordDoorbell()
	l.RecordCompletion()
	l.RecordDMA(4096)
	if got := l.HostToDeviceBytes(); got != 64+4096 {
		t.Fatalf("HostToDeviceBytes = %d", got)
	}
	if got := l.MMIOTrafficBytes(); got != 8 {
		t.Fatalf("MMIOTrafficBytes = %d", got)
	}
	if got := l.TotalBytes(); got != 64+4096+8+16 {
		t.Fatalf("TotalBytes = %d", got)
	}
	if l.Traf.CommandBytes.Value() != CommandSize || l.Traf.MMIOBytes.Value() != 2*DoorbellSize {
		t.Fatal("command/doorbell bytes wrong")
	}
}

func TestTransferTime(t *testing.T) {
	m := DefaultCostModel()
	// 3.2 GB/s → 4096 B takes 1280 ns.
	if got := m.TransferTime(4096); got != 1280 {
		t.Fatalf("TransferTime(4096) = %v ns, want 1280", got)
	}
	if got := m.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	if got := m.TransferTime(-10); got != 0 {
		t.Fatalf("TransferTime(-10) = %v", got)
	}
}

func TestOccupySerializesWire(t *testing.T) {
	l := NewLink(DefaultCostModel())
	end1 := l.Occupy(0, 4096) // 1280 ns
	if end1 != 1280 {
		t.Fatalf("first transfer ends at %v", end1)
	}
	end2 := l.Occupy(0, 4096) // queues behind first
	if end2 != 2560 {
		t.Fatalf("second transfer ends at %v, want 2560", end2)
	}
	if u := l.WireUtilization(2560); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

// Property: page-aligned size is always >= n, a multiple of 4 KiB, and less
// than n + 4 KiB.
func TestPageAlignedSizeProperty(t *testing.T) {
	f := func(n uint16) bool {
		s := PageAlignedSize(int(n))
		return s >= int(n) && s%MemoryPageSize == 0 && s < int(n)+MemoryPageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelDefaults(t *testing.T) {
	m := DefaultCostModel()
	if m.CommandRoundTrip != 9*sim.Microsecond {
		t.Fatalf("CommandRoundTrip = %v", m.CommandRoundTrip)
	}
	if m.DMAPerPage != 8200*sim.Nanosecond {
		t.Fatalf("DMAPerPage = %v", m.DMAPerPage)
	}
}

// §2.5: the default constants put the one-descriptor SGL/PRP crossover at
// the Linux sgl_threshold (32 KB). Both paths move the same wire bytes for a
// page multiple, so SGL wins once its fixed cost drops below the PRP path's
// per-page cost.
func TestSGLCrossoverMatchesLinuxThreshold(t *testing.T) {
	m := DefaultCostModel()
	sgl := m.SGLSetup + m.SGLPerSegment
	prp := func(n int) sim.Duration { return sim.Duration(n/MemoryPageSize) * m.DMAPerPage }
	if sgl >= prp(32*1024) || sgl < prp(32*1024-MemoryPageSize) {
		t.Fatalf("SGL fixed cost %v: PRP costs %v at 28 KiB and %v at 32 KiB; want the crossover at 32 KiB",
			sgl, prp(32*1024-MemoryPageSize), prp(32*1024))
	}
}

func TestSGLDescriptorLedger(t *testing.T) {
	l := NewLink(DefaultCostModel())
	l.RecordSGLDescriptors(3)
	if got := l.Traf.SGLDescBytes.Value(); got != 48 {
		t.Fatalf("SGLDescBytes = %d", got)
	}
	if got := l.HostToDeviceBytes(); got != 48 {
		t.Fatalf("HostToDeviceBytes = %d", got)
	}
}
