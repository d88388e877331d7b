package device

import (
	"testing"

	"bandslim/internal/nvme"
	"bandslim/internal/pagebuf"
)

func TestIdentifyRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer.Policy = pagebuf.PolicyBackfill
	dev, _, _, mem := newDev(t, cfg)
	rbuf, err := nvme.BuildPRP(mem, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpAdminIdentify)
	cmd.SetPRP1(rbuf.Pages[0])
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("identify status %v", comp.Status)
	}
	if comp.Result != 4096 {
		t.Fatalf("identify size %d", comp.Result)
	}
	data, _ := rbuf.GatherInto(mem, nil)
	id := ParseIdentify(data)
	if id.Model != "BandSlim KV-SSD (simulated Cosmos+)" {
		t.Fatalf("Model = %q", id.Model)
	}
	if id.Serial != "BSLIM-SIM-0001" {
		t.Fatalf("Serial = %q", id.Serial)
	}
	geo := dev.Flash().Geometry()
	if id.CapacityBytes != geo.CapacityBytes() {
		t.Fatalf("CapacityBytes = %d", id.CapacityBytes)
	}
	if id.Channels != geo.Channels || id.WaysPerChannel != geo.WaysPerChannel {
		t.Fatalf("geometry %d x %d", id.Channels, id.WaysPerChannel)
	}
	if id.NANDPageSize != 16*1024 {
		t.Fatalf("NANDPageSize = %d", id.NANDPageSize)
	}
	if !id.KVCommandSet {
		t.Fatal("KV command set flag missing")
	}
	if id.InlineWriteBytes != 35 || id.InlineXferBytes != 56 {
		t.Fatalf("inline capacities %d/%d", id.InlineWriteBytes, id.InlineXferBytes)
	}
	if id.PackingPolicy != "Backfill" {
		t.Fatalf("PackingPolicy = %q", id.PackingPolicy)
	}
	if id.VLogBytes != dev.VLog().CapacityBytes() {
		t.Fatalf("VLogBytes = %d", id.VLogBytes)
	}
}

func TestParseIdentifyShortBuffer(t *testing.T) {
	id := ParseIdentify([]byte{'X'})
	if id.Model != "X" {
		t.Fatalf("short parse model %q", id.Model)
	}
	if id.KVCommandSet {
		t.Fatal("zero buffer claimed KV support")
	}
}
