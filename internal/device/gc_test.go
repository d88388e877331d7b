package device

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim/internal/nand"
	"bandslim/internal/nvme"
)

func putInline(t *testing.T, dev *Device, key string, value []byte) {
	t.Helper()
	cmd := writeCmd(t, key, value, nvme.ModeInline)
	n := cmd.SetWritePiggyback(value)
	if comp, _ := submit(t, dev, cmd); comp.Status != nvme.StatusSuccess {
		t.Fatalf("write %s: %v", key, comp.Status)
	}
	rest := value[n:]
	for len(rest) > 0 {
		var tr nvme.Command
		tr.SetOpcode(nvme.OpKVTransfer)
		k := tr.SetTransferPiggyback(rest)
		if comp, _ := submit(t, dev, tr); comp.Status != nvme.StatusSuccess {
			t.Fatalf("fragment: %v", comp.Status)
		}
		rest = rest[k:]
	}
}

func readBack(t *testing.T, dev *Device, mem *nvme.HostMemory, key string) ([]byte, nvme.Status) {
	t.Helper()
	rbuf, err := nvme.BuildPRP(mem, make([]byte, 16*1024))
	if err != nil {
		t.Fatal(err)
	}
	defer rbuf.Free(mem)
	var rd nvme.Command
	rd.SetOpcode(nvme.OpKVRead)
	rd.SetKey([]byte(key))
	rd.SetPRP1(rbuf.Pages[0])
	rd.SetValueSize(uint32(rbuf.TransferSize()))
	comp, _ := submit(t, dev, rd)
	if comp.Status != nvme.StatusSuccess {
		return nil, comp.Status
	}
	data, _ := rbuf.GatherInto(mem, nil)
	return data[:comp.Result], comp.Status
}

func TestCompactRelocatesLiveValues(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer.MaxEntries = 4
	dev, _, _, mem := newDev(t, cfg)
	// Write values filling several pages, then overwrite half (dead data).
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("g%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 2000)
		putInline(t, dev, key, v)
		want[key] = v
	}
	for i := 0; i < 40; i += 2 {
		key := fmt.Sprintf("g%02d", i)
		v := bytes.Repeat([]byte{0xEE}, 1500)
		putInline(t, dev, key, v)
		want[key] = v
	}
	// Flush so pages are reclaimable, then compact the oldest pages.
	var fl nvme.Command
	fl.SetOpcode(nvme.OpKVFlush)
	submit(t, dev, fl)

	tailBefore := dev.VLog().Tail()
	var cp nvme.Command
	cp.SetOpcode(nvme.OpKVCompact)
	cp.SetValueSize(3)
	comp, _ := submit(t, dev, cp)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("compact status %v", comp.Status)
	}
	if dev.VLog().Tail() <= tailBefore {
		t.Fatal("tail did not advance")
	}
	if got := dev.VLog().Tail() - tailBefore; got != 3*int64(dev.cfg.Buffer.PageSize) {
		t.Fatalf("tail advanced %d bytes, want 3 pages", got)
	}
	// Every key still reads its latest value.
	for key, v := range want {
		got, st := readBack(t, dev, mem, key)
		if st != nvme.StatusSuccess || !bytes.Equal(got, v) {
			t.Fatalf("key %s corrupted after GC (status %v)", key, st)
		}
	}
}

func TestCompactDropsDeadSpaceForFree(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer.MaxEntries = 4
	dev, _, _, _ := newDev(t, cfg)
	// One key overwritten many times: the old versions are all dead, so
	// compaction should relocate at most one live value per key.
	for i := 0; i < 60; i++ {
		putInline(t, dev, "hot", bytes.Repeat([]byte{byte(i)}, 2000))
	}
	var fl nvme.Command
	fl.SetOpcode(nvme.OpKVFlush)
	submit(t, dev, fl)
	var cp nvme.Command
	cp.SetOpcode(nvme.OpKVCompact)
	cp.SetValueSize(5)
	comp, _ := submit(t, dev, cp)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("compact status %v", comp.Status)
	}
	if comp.Result > 1 {
		t.Fatalf("relocated %d values; at most the single live one expected", comp.Result)
	}
}

func TestCompactValidation(t *testing.T) {
	dev, _, _, _ := newDev(t, smallConfig())
	var cp nvme.Command
	cp.SetOpcode(nvme.OpKVCompact)
	cp.SetValueSize(0)
	comp, _ := submit(t, dev, cp)
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("pages=0 status %v", comp.Status)
	}
	// Nothing flushed yet: compaction is a clean no-op.
	cp.SetValueSize(2)
	comp, _ = submit(t, dev, cp)
	if comp.Status != nvme.StatusSuccess || comp.Result != 0 {
		t.Fatalf("empty compact: %v result %d", comp.Status, comp.Result)
	}
}

// The circular log: with GC, a workload can write far beyond the vLog's raw
// capacity as long as the live set fits.
func TestCircularLogOutlivesCapacity(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry = nand.Geometry{Channels: 1, WaysPerChannel: 2, BlocksPerWay: 16, PagesPerBlock: 16, PageSize: 16 * 1024}
	cfg.Buffer.MaxEntries = 4
	cfg.LSM.MemTableEntries = 32
	dev, _, _, mem := newDev(t, cfg)
	capacity := dev.VLog().CapacityBytes()
	written := int64(0)
	i := 0
	// Keep 8 live keys, overwriting them until we have written 3x the
	// vLog capacity, compacting whenever free space runs low.
	value := make([]byte, 4000)
	for written < 3*capacity {
		value[0] = byte(i)
		putInline(t, dev, fmt.Sprintf("c%d", i%8), value)
		written += int64(len(value))
		i++
		if dev.VLog().FreeBytes() < 4*int64(cfg.Buffer.PageSize) {
			var fl nvme.Command
			fl.SetOpcode(nvme.OpKVFlush)
			submit(t, dev, fl)
			var cp nvme.Command
			cp.SetOpcode(nvme.OpKVCompact)
			cp.SetValueSize(8)
			comp, _ := submit(t, dev, cp)
			if comp.Status != nvme.StatusSuccess {
				t.Fatalf("compact failed at %d bytes written: %v", written, comp.Status)
			}
		}
	}
	// All 8 live keys intact.
	for k := 0; k < 8; k++ {
		got, st := readBack(t, dev, mem, fmt.Sprintf("c%d", k))
		if st != nvme.StatusSuccess || len(got) != 4000 {
			t.Fatalf("live key c%d lost after wrap (status %v)", k, st)
		}
	}
	if dev.VLog().Tail() == 0 {
		t.Fatal("no pages reclaimed despite wrap pressure")
	}
}
