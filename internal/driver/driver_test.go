package driver

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"bandslim/internal/device"
	"bandslim/internal/nand"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

// commands and doorbells count what the link's byte ledger recorded.
func commands(l *pcie.Link) int64  { return l.Traf.CommandBytes.Value() / pcie.CommandSize }
func doorbells(l *pcie.Link) int64 { return l.Traf.MMIOBytes.Value() / pcie.DoorbellSize }

// newStack builds a driver of the given method, with the default thresholds,
// over a small device; tweaks adjust the device config before it is built.
func newStack(t *testing.T, method Method, nandOn bool, tweaks ...func(*device.Config)) (*Driver, *device.Device, *pcie.Link) {
	t.Helper()
	return newStackWith(t, Config{Method: method, Thresholds: DefaultThresholds()}, nandOn, tweaks...)
}

// newStackWith builds a driver of config dc over a small device; tweaks
// adjust the device config before it is built.
func newStackWith(t *testing.T, dc Config, nandOn bool, tweaks ...func(*device.Config)) (*Driver, *device.Device, *pcie.Link) {
	t.Helper()
	cfg := device.DefaultConfig()
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 64, PagesPerBlock: 32, PageSize: 16 * 1024}
	cfg.NANDEnabled = nandOn
	cfg.LSM.MemTableEntries = 256
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	clock := sim.NewClock()
	link := pcie.NewLink(pcie.DefaultCostModel())
	mem := nvme.NewHostMemory()
	dev, err := device.New(cfg, clock, link, mem)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(clock, link, mem, dev, dc)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev, link
}

func TestMethodStringsAndParse(t *testing.T) {
	for _, m := range []Method{MethodBaseline, MethodPiggyback, MethodHybrid, MethodAdaptive} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("bogus method parsed")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatal("unknown method String")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	v := bytes.Repeat([]byte{0x5C}, 777)
	if err := d.Put([]byte("key1"), v); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get([]byte("key1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("round trip mismatch")
	}
}

func TestGetMissingKey(t *testing.T) {
	d, _, _ := newStack(t, MethodBaseline, true)
	if _, err := d.Get([]byte("missing")); err == nil {
		t.Fatal("missing key returned no error")
	}
}

func TestDeleteAndScan(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	for i := 0; i < 20; i++ {
		if err := d.Put([]byte(fmt.Sprintf("sc%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete([]byte("sc05")); err != nil {
		t.Fatal(err)
	}
	if err := d.Seek([]byte("sc03")); err != nil {
		t.Fatal(err)
	}
	want := []string{"sc03", "sc04", "sc06", "sc07"}
	for _, w := range want {
		k, v, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(k) != w {
			t.Fatalf("scan gave %q, want %q", k, w)
		}
		if len(v) != 1 {
			t.Fatalf("scan value %v", v)
		}
	}
	// Drain to the end.
	for {
		_, _, err := d.Next()
		if err == ErrIterEnd {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A pair that does not fit NEXT's staging run fails before any byte moves:
// the device scatters into the run the command declares, never into the host
// page after it, and its iterator stays on the entry.
func TestNextAboveMaxValueSizeStaysInStaging(t *testing.T) {
	d, _, link := newStack(t, MethodBaseline, true)
	if err := d.Put([]byte("a"), make([]byte, MaxValueSize+1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("b"), []byte("small")); err != nil {
		t.Fatal(err)
	}
	stage := d.staging()
	guard := d.mem.AllocPage()
	if guard != stage.Pages[len(stage.Pages)-1]+pcie.MemoryPageSize {
		t.Fatalf("guard page %#x does not follow the staging run", guard)
	}
	page, _ := d.mem.Page(guard)
	for i := range page {
		page[i] = 0xEE
	}
	if err := d.Seek([]byte("a")); err != nil {
		t.Fatal(err)
	}
	dma := link.Traf.DMABytes.Value()
	for i := 0; i < 2; i++ {
		_, _, err := d.Next()
		if st, ok := nvme.StatusOf(err); !ok || st != nvme.StatusInternal {
			t.Fatalf("NEXT %d of the oversized pair = %v, want an InternalError completion", i, err)
		}
	}
	if !bytes.Equal(page, bytes.Repeat([]byte{0xEE}, len(page))) {
		t.Fatal("NEXT wrote past its staging run")
	}
	if got := link.Traf.DMABytes.Value(); got != dma {
		t.Fatalf("failed NEXTs moved %d DMA bytes", got-dma)
	}
}

// Traffic: a 32 B baseline PUT moves 64 B command + 4 KiB DMA (TAF 130);
// the same PUT via piggybacking moves one 64 B command — a 97.9%+ saving
// excluding doorbells, matching Fig. 8.
func TestTrafficBaselineVsPiggyback32B(t *testing.T) {
	base, _, blink := newStack(t, MethodBaseline, false)
	if err := base.Put([]byte("k"), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := blink.HostToDeviceBytes(); got != 64+4096 {
		t.Fatalf("baseline traffic %d, want 4160", got)
	}
	pig, _, plink := newStack(t, MethodPiggyback, false)
	if err := pig.Put([]byte("k"), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := plink.HostToDeviceBytes(); got != 64 {
		t.Fatalf("piggyback traffic %d, want 64", got)
	}
	reduction := 1 - 64.0/4160.0
	if reduction < 0.979 {
		t.Fatalf("reduction %.4f < 0.979", reduction)
	}
}

// Response: piggyback(32 B) ≈ half of baseline(32 B) with NAND off (Fig. 8).
func TestResponsePiggybackHalfOfBaseline(t *testing.T) {
	base, _, _ := newStack(t, MethodBaseline, false)
	base.Put([]byte("k"), make([]byte, 32))
	bResp := base.Stats().WriteResponse.Mean()

	pig, _, _ := newStack(t, MethodPiggyback, false)
	pig.Put([]byte("k"), make([]byte, 32))
	pResp := pig.Stats().WriteResponse.Mean()

	ratio := pResp / bResp
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("piggyback/baseline response ratio %.3f, want ~0.5", ratio)
	}
}

// Piggyback of 64 B (2 commands) ≈ baseline; 128 B (3 commands) worse.
func TestResponseCrossoverAt128B(t *testing.T) {
	resp := func(m Method, size int) float64 {
		d, _, _ := newStack(t, m, false)
		d.Put([]byte("k"), make([]byte, size))
		return d.Stats().WriteResponse.Mean()
	}
	b64, p64 := resp(MethodBaseline, 64), resp(MethodPiggyback, 64)
	if r := p64 / b64; r < 0.85 || r > 1.15 {
		t.Fatalf("64 B ratio %.3f, want ~1.0", r)
	}
	b128, p128 := resp(MethodBaseline, 128), resp(MethodPiggyback, 128)
	if p128 <= b128 {
		t.Fatalf("piggyback(128B)=%v must exceed baseline=%v", p128, b128)
	}
}

// Hybrid at (4K+32)B halves traffic vs baseline and stays within a few
// percent on response (Fig. 9).
func TestHybridTrafficAndResponse(t *testing.T) {
	size := 4096 + 32
	base, _, blink := newStack(t, MethodBaseline, false)
	base.Put([]byte("k"), make([]byte, size))
	hyb, _, hlink := newStack(t, MethodHybrid, false)
	hyb.Put([]byte("k"), make([]byte, size))

	bt, ht := blink.HostToDeviceBytes(), hlink.HostToDeviceBytes()
	if float64(ht) > 0.55*float64(bt) {
		t.Fatalf("hybrid traffic %d not ~half of baseline %d", ht, bt)
	}
	bResp := base.Stats().WriteResponse.Mean()
	hResp := hyb.Stats().WriteResponse.Mean()
	if r := hResp / bResp; r < 0.85 || r > 1.1 {
		t.Fatalf("hybrid/baseline response ratio %.3f, want ≈1", r)
	}
}

// Adaptive method picks the mode the thresholds say it should.
func TestAdaptiveChoosesPerThresholds(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	d.Put([]byte("a"), make([]byte, 100))      // ≤128: inline
	d.Put([]byte("b"), make([]byte, 2048))     // >128, ≤4K: PRP
	d.Put([]byte("c"), make([]byte, 4096+32))  // tail 32 ≤ 64: hybrid
	d.Put([]byte("d"), make([]byte, 4096+500)) // tail 500 > 64: PRP
	s := d.Stats()
	if s.InlineChosen.Value() != 1 || s.PRPChosen.Value() != 2 || s.HybridChosen.Value() != 1 {
		t.Fatalf("choices inline/prp/hybrid = %d/%d/%d",
			s.InlineChosen.Value(), s.PRPChosen.Value(), s.HybridChosen.Value())
	}
}

// Alpha and beta scale the thresholds toward traffic savings.
func TestAdaptiveCoefficients(t *testing.T) {
	thr := DefaultThresholds()
	thr.Alpha = 4 // prefer piggybacking up to 512 B
	d, _, _ := newStackWith(t, Config{Method: MethodAdaptive, Thresholds: thr}, false)
	d.Put([]byte("a"), make([]byte, 500))
	if d.Stats().InlineChosen.Value() != 1 {
		t.Fatal("alpha scaling ignored")
	}
}

// MMIO ledger: every command costs two doorbells (SQ + CQ).
func TestMMIODoorbellAccounting(t *testing.T) {
	d, _, link := newStack(t, MethodPiggyback, false)
	d.Put([]byte("k"), make([]byte, 128)) // 3 commands
	wantDoorbells := int64(3 * 2)
	if got := doorbells(link); got != wantDoorbells {
		t.Fatalf("doorbells = %d, want %d", got, wantDoorbells)
	}
	if got := link.MMIOTrafficBytes(); got != wantDoorbells*pcie.DoorbellSize {
		t.Fatalf("MMIO bytes = %d", got)
	}
}

// Property: values of every size and method round-trip.
func TestPutGetPropertyAcrossMethods(t *testing.T) {
	methods := []Method{MethodBaseline, MethodPiggyback, MethodHybrid, MethodAdaptive}
	f := func(sizes []uint16) bool {
		for _, m := range methods {
			d, _, _ := newStack(t, m, true)
			n := len(sizes)
			if n > 6 {
				n = 6
			}
			for i := 0; i < n; i++ {
				size := int(sizes[i])%6000 + 1
				v := make([]byte, size)
				for j := range v {
					v[j] = byte(j*7 + i)
				}
				key := []byte(fmt.Sprintf("pk%d", i))
				if err := d.Put(key, v); err != nil {
					return false
				}
				got, err := d.Get(key)
				if err != nil || !bytes.Equal(got, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushViaDriver(t *testing.T) {
	d, dev, _ := newStack(t, MethodAdaptive, true)
	d.Put([]byte("k"), []byte("v"))
	before := dev.Flash().Stats().PageWrites.Value()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if dev.Flash().Stats().PageWrites.Value() <= before {
		t.Fatal("flush reached no NAND")
	}
	got, err := d.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatal("value lost after flush")
	}
}

func TestClockAdvancesPerOp(t *testing.T) {
	d, _, _ := newStack(t, MethodBaseline, false)
	t0 := d.clock.Now()
	d.Put([]byte("k"), make([]byte, 32))
	if d.clock.Now() <= t0 {
		t.Fatal("clock did not advance")
	}
}
