package device

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim/internal/nand"
	"bandslim/internal/nvme"
	"bandslim/internal/pagebuf"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
)

// smallConfig returns a fast device for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerWay: 32, PagesPerBlock: 32, PageSize: 16 * 1024}
	cfg.Buffer.MaxEntries = 16
	cfg.LSM.MemTableEntries = 64
	return cfg
}

func newDev(t *testing.T, cfg Config) (*Device, *sim.Clock, *pcie.Link, *nvme.HostMemory) {
	t.Helper()
	clock := sim.NewClock()
	link := pcie.NewLink(pcie.DefaultCostModel())
	mem := nvme.NewHostMemory()
	dev, err := New(cfg, clock, link, mem)
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock, link, mem
}

// submit pushes one command through the device at time 0 and returns the
// completion and its Ready time.
func submit(t *testing.T, dev *Device, cmd nvme.Command) (nvme.Completion, sim.Time) {
	t.Helper()
	if err := dev.Queues().SQ.Push(cmd); err != nil {
		t.Fatal(err)
	}
	dev.Queues().SQ.RingDoorbell()
	if err := dev.Process(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	comp, err := dev.Queues().CQ.Reap()
	if err != nil {
		t.Fatal(err)
	}
	return comp, comp.Ready
}

// TestProcessSweep drives one Process call per row and checks the posted
// completions, in posting order: command i starts at t + i·stagger, Ready is
// never before the start, rounds up to the coalescing grid, and completions
// post in Ready order with ties kept in fetch order.
func TestProcessSweep(t *testing.T) {
	const at = sim.Time(1000)
	m := pcie.DefaultCostModel()
	pi := m.PipelineInterval
	inline := func(id uint16) nvme.Command {
		cmd := writeCmd(t, fmt.Sprintf("k%d", id), []byte("v"), nvme.ModeInline)
		cmd.SetCommandID(id)
		cmd.SetWritePiggyback([]byte("v"))
		return cmd
	}
	type posted struct {
		cid   uint16
		ready sim.Time
	}
	rows := []struct {
		name              string
		nand              bool
		setup, cmds       func(mem *nvme.HostMemory) []nvme.Command
		at                sim.Time
		stagger, coalesce sim.Duration
		want              []posted
	}{
		{name: "no stagger: every command starts at t",
			cmds: func(*nvme.HostMemory) []nvme.Command { return []nvme.Command{inline(1), inline(2), inline(3)} },
			at:   at,
			want: []posted{{1, at}, {2, at}, {3, at}},
		},
		{name: "pipeline stagger: command i starts at t + i·interval",
			cmds:    func(*nvme.HostMemory) []nvme.Command { return []nvme.Command{inline(1), inline(2), inline(3)} },
			at:      at,
			stagger: pi,
			want:    []posted{{1, at}, {2, at.Add(pi)}, {3, at.Add(2 * pi)}},
		},
		{name: "coalescing rounds Ready up, ties keep fetch order",
			cmds:     func(*nvme.HostMemory) []nvme.Command { return []nvme.Command{inline(1), inline(2), inline(3)} },
			at:       at,
			stagger:  pi,
			coalesce: 2000,
			want:     []posted{{1, 2000}, {2, 4000}, {3, 4000}},
		},
		{name: "posting follows Ready, not fetch order",
			cmds: func(mem *nvme.HostMemory) []nvme.Command {
				v := make([]byte, 4096)
				prp, err := nvme.BuildPRP(mem, v)
				if err != nil {
					t.Fatal(err)
				}
				dma := writeCmd(t, "big", v, nvme.ModePRP)
				dma.SetPRP1(prp.Pages[0])
				return []nvme.Command{dma, inline(2)}
			},
			at:   at,
			want: []posted{{2, at}, {1, at.Add(m.DMAPerPage + m.TransferTime(4096))}},
		},
		{name: "Ready is clamped to the start",
			// A NEXT reads from the iterator's own time, long before a command
			// started at 1 ms; its completion still cannot precede that start.
			nand: true,
			setup: func(*nvme.HostMemory) []nvme.Command {
				var seek nvme.Command
				seek.SetOpcode(nvme.OpKVSeek)
				seek.SetCommandID(2)
				return []nvme.Command{inline(1), seek}
			},
			cmds: func(mem *nvme.HostMemory) []nvme.Command {
				buf, err := nvme.BuildPRP(mem, make([]byte, 4096))
				if err != nil {
					t.Fatal(err)
				}
				var next nvme.Command
				next.SetOpcode(nvme.OpKVNext)
				next.SetCommandID(3)
				next.SetValueSize(uint32(buf.TransferSize()))
				next.SetPRP1(buf.Pages[0])
				return []nvme.Command{next}
			},
			at:   sim.Time(sim.Millisecond),
			want: []posted{{3, sim.Time(sim.Millisecond)}},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.NANDEnabled = row.nand
			dev, _, _, mem := newDev(t, cfg)
			sweep := func(cmds []nvme.Command, at sim.Time, stagger, coalesce sim.Duration) []posted {
				for _, cmd := range cmds {
					if err := dev.Queues().SQ.Push(cmd); err != nil {
						t.Fatal(err)
					}
				}
				dev.Queues().SQ.RingDoorbell()
				if err := dev.Process(at, stagger, coalesce); err != nil {
					t.Fatal(err)
				}
				var got []posted
				for range cmds {
					comp, err := dev.Queues().CQ.Reap()
					if err != nil {
						t.Fatal(err)
					}
					if comp.Status != nvme.StatusSuccess {
						t.Fatalf("command %d: %v", comp.CommandID, comp.Status)
					}
					got = append(got, posted{comp.CommandID, comp.Ready})
				}
				return got
			}
			if row.setup != nil {
				sweep(row.setup(mem), 0, 0, 0)
			}
			got := sweep(row.cmds(mem), row.at, row.stagger, row.coalesce)
			if fmt.Sprint(got) != fmt.Sprint(row.want) {
				t.Fatalf("posted (cid, Ready) %v, want %v", got, row.want)
			}
		})
	}
}

func writeCmd(t *testing.T, key string, value []byte, mode nvme.TransferMode) nvme.Command {
	t.Helper()
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVWrite)
	cmd.SetTransferMode(mode)
	cmd.SetCommandID(1)
	if err := cmd.SetKey([]byte(key)); err != nil {
		t.Fatal(err)
	}
	cmd.SetValueSize(uint32(len(value)))
	return cmd
}

func TestNewValidation(t *testing.T) {
	clock := sim.NewClock()
	link := pcie.NewLink(pcie.DefaultCostModel())
	mem := nvme.NewHostMemory()
	cfg := smallConfig()
	cfg.VLogFraction = 0
	if _, err := New(cfg, clock, link, mem); err == nil {
		t.Fatal("VLogFraction=0 accepted")
	}
	cfg = smallConfig()
	cfg.QueueDepth = 1
	if _, err := New(cfg, clock, link, mem); err == nil {
		t.Fatal("QueueDepth=1 accepted")
	}
}

func TestInlineWriteSmallValue(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	v := []byte("hello world")
	cmd := writeCmd(t, "k1", v, nvme.ModeInline)
	cmd.SetWritePiggyback(v)
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("status %v", comp.Status)
	}
	if got, st := readBack(t, dev, mem, "k1"); st != nvme.StatusSuccess || !bytes.Equal(got, v) {
		t.Fatalf("read back %q, %v", got, st)
	}
}

func TestInlineWriteWithTrailingFragments(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	v := make([]byte, 200)
	for i := range v {
		v[i] = byte(i)
	}
	cmd := writeCmd(t, "k2", v, nvme.ModeInline)
	n := cmd.SetWritePiggyback(v)
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("write command status %v", comp.Status)
	}
	// Write must not complete until every fragment arrives.
	if _, st := readBack(t, dev, mem, "k2"); st != nvme.StatusKeyNotFound {
		t.Fatalf("write completed before fragments arrived: read %v", st)
	}
	rest := v[n:]
	for len(rest) > 0 {
		var tr nvme.Command
		tr.SetOpcode(nvme.OpKVTransfer)
		tr.SetCommandID(2)
		k := tr.SetTransferPiggyback(rest)
		comp, _ := submit(t, dev, tr)
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("transfer status %v", comp.Status)
		}
		rest = rest[k:]
	}
	if got, st := readBack(t, dev, mem, "k2"); st != nvme.StatusSuccess || !bytes.Equal(got, v) {
		t.Fatalf("write never completed: read %v", st)
	}
}

func TestPRPWriteAndRead(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	v := make([]byte, 5000)
	for i := range v {
		v[i] = byte(i * 3)
	}
	prp, err := nvme.BuildPRP(mem, v)
	if err != nil {
		t.Fatal(err)
	}
	cmd := writeCmd(t, "k3", v, nvme.ModePRP)
	cmd.SetPRP1(prp.Pages[0])
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("write status %v", comp.Status)
	}
	prp.Free(mem)

	// Read it back.
	rbuf, err := nvme.BuildPRP(mem, make([]byte, 8192))
	if err != nil {
		t.Fatal(err)
	}
	var rd nvme.Command
	rd.SetOpcode(nvme.OpKVRead)
	rd.SetCommandID(9)
	rd.SetKey([]byte("k3"))
	rd.SetPRP1(rbuf.Pages[0])
	rd.SetValueSize(uint32(rbuf.TransferSize()))
	comp, _ = submit(t, dev, rd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("read status %v", comp.Status)
	}
	if int(comp.Result) != len(v) {
		t.Fatalf("read size %d", comp.Result)
	}
	got, _ := rbuf.GatherInto(mem, nil)
	if !bytes.Equal(got[:len(v)], v) {
		t.Fatal("read-back mismatch")
	}
}

func TestHybridWrite(t *testing.T) {
	dev, _, link, mem := newDev(t, smallConfig())
	v := make([]byte, 4096+32)
	for i := range v {
		v[i] = byte(i * 7)
	}
	prp, _ := nvme.BuildPRP(mem, v[:4096])
	cmd := writeCmd(t, "k4", v, nvme.ModeHybrid)
	cmd.SetPRP1(prp.Pages[0])
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("hybrid write status %v", comp.Status)
	}
	// Only 4 KiB of DMA traffic, not 8 KiB.
	if link.Traf.DMABytes.Value() != 4096 {
		t.Fatalf("DMA traffic %d, want 4096", link.Traf.DMABytes.Value())
	}
	// Tail arrives in one transfer command.
	var tr nvme.Command
	tr.SetOpcode(nvme.OpKVTransfer)
	tr.SetCommandID(5)
	tr.SetTransferPiggyback(v[4096:])
	comp, _ = submit(t, dev, tr)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("tail status %v", comp.Status)
	}
	// Verify content.
	rbuf, _ := nvme.BuildPRP(mem, make([]byte, 8192))
	var rd nvme.Command
	rd.SetOpcode(nvme.OpKVRead)
	rd.SetKey([]byte("k4"))
	rd.SetPRP1(rbuf.Pages[0])
	rd.SetValueSize(uint32(rbuf.TransferSize()))
	comp, _ = submit(t, dev, rd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatal("read failed")
	}
	got, _ := rbuf.GatherInto(mem, nil)
	if !bytes.Equal(got[:len(v)], v) {
		t.Fatal("hybrid value corrupted")
	}
}

func TestReadMissingKey(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	rbuf, _ := nvme.BuildPRP(mem, make([]byte, 4096))
	var rd nvme.Command
	rd.SetOpcode(nvme.OpKVRead)
	rd.SetKey([]byte("missing"))
	rd.SetPRP1(rbuf.Pages[0])
	rd.SetValueSize(uint32(rbuf.TransferSize()))
	comp, _ := submit(t, dev, rd)
	if comp.Status != nvme.StatusKeyNotFound {
		t.Fatalf("status %v, want KeyNotFound", comp.Status)
	}
}

func TestDeleteThenReadNotFound(t *testing.T) {
	dev, _, _, _ := newDev(t, smallConfig())
	v := []byte("x")
	cmd := writeCmd(t, "kd", v, nvme.ModeInline)
	cmd.SetWritePiggyback(v)
	submit(t, dev, cmd)

	var del nvme.Command
	del.SetOpcode(nvme.OpKVDelete)
	del.SetKey([]byte("kd"))
	comp, _ := submit(t, dev, del)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("delete status %v", comp.Status)
	}
	var rd nvme.Command
	rd.SetOpcode(nvme.OpKVRead)
	rd.SetKey([]byte("kd"))
	comp, _ = submit(t, dev, rd)
	if comp.Status != nvme.StatusKeyNotFound {
		t.Fatalf("read-after-delete status %v", comp.Status)
	}
}

func TestSeekNextIteration(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("it%02d", i)
		v := []byte{byte(i), byte(i), byte(i)}
		cmd := writeCmd(t, key, v, nvme.ModeInline)
		cmd.SetWritePiggyback(v)
		submit(t, dev, cmd)
	}
	var seek nvme.Command
	seek.SetOpcode(nvme.OpKVSeek)
	seek.SetKey([]byte("it03"))
	if comp, _ := submit(t, dev, seek); comp.Status != nvme.StatusSuccess {
		t.Fatalf("seek status %v", comp.Status)
	}
	for i := 3; i < 10; i++ {
		rbuf, _ := nvme.BuildPRP(mem, make([]byte, 4096))
		var next nvme.Command
		next.SetOpcode(nvme.OpKVNext)
		next.SetValueSize(uint32(rbuf.TransferSize()))
		next.SetPRP1(rbuf.Pages[0])
		comp, _ := submit(t, dev, next)
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("next %d status %v", i, comp.Status)
		}
		data, _ := rbuf.GatherInto(mem, nil)
		kl := int(data[0])
		key := string(data[1 : 1+kl])
		if key != fmt.Sprintf("it%02d", i) {
			t.Fatalf("next gave key %q at step %d", key, i)
		}
		rbuf.Free(mem)
	}
	var next nvme.Command
	next.SetOpcode(nvme.OpKVNext)
	comp, _ := submit(t, dev, next)
	if comp.Status != nvme.StatusIterEnd {
		t.Fatalf("exhausted iterator status %v", comp.Status)
	}
}

func TestFlushCommand(t *testing.T) {
	dev, _, _, _ := newDev(t, smallConfig())
	v := []byte("abc")
	cmd := writeCmd(t, "kf", v, nvme.ModeInline)
	cmd.SetWritePiggyback(v)
	submit(t, dev, cmd)
	before := dev.Flash().Stats().PageWrites.Value()
	var fl nvme.Command
	fl.SetOpcode(nvme.OpKVFlush)
	comp, end := submit(t, dev, fl)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("flush status %v", comp.Status)
	}
	if dev.Flash().Stats().PageWrites.Value() <= before {
		t.Fatal("flush wrote nothing to NAND")
	}
	if end == 0 {
		t.Fatal("flush charged no NAND time")
	}
}

func TestNANDDisabledSkipsPersistence(t *testing.T) {
	cfg := smallConfig()
	cfg.NANDEnabled = false
	dev, _, _, _ := newDev(t, cfg)
	v := []byte("abc")
	cmd := writeCmd(t, "kx", v, nvme.ModeInline)
	cmd.SetWritePiggyback(v)
	comp, _ := submit(t, dev, cmd)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("status %v", comp.Status)
	}
	if dev.Flash().Stats().PageWrites.Value() != 0 {
		t.Fatal("NAND written despite NANDEnabled=false")
	}
}

func TestBadCommands(t *testing.T) {
	dev, _, _, _ := newDev(t, smallConfig())
	// Unknown opcode.
	var bad nvme.Command
	bad.SetOpcode(nvme.Opcode(0x55))
	comp, _ := submit(t, dev, bad)
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("unknown opcode status %v", comp.Status)
	}
	// Transfer with no open write.
	var tr nvme.Command
	tr.SetOpcode(nvme.OpKVTransfer)
	comp, _ = submit(t, dev, tr)
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("orphan transfer status %v", comp.Status)
	}
	// Write with empty key.
	var w nvme.Command
	w.SetOpcode(nvme.OpKVWrite)
	comp, _ = submit(t, dev, w)
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("empty-key write status %v", comp.Status)
	}
}

// Writes under each packing policy keep values readable.
func TestWritesAcrossPoliciesReadBack(t *testing.T) {
	for _, p := range []pagebuf.Policy{pagebuf.PolicyBlock, pagebuf.PolicyAll, pagebuf.PolicySelective, pagebuf.PolicyBackfill} {
		cfg := smallConfig()
		cfg.Buffer.Policy = p
		dev, _, _, mem := newDev(t, cfg)
		var values [][]byte
		for i := 0; i < 30; i++ {
			size := 8 + (i%5)*700 // mixes tiny and KB-scale
			v := make([]byte, size)
			for j := range v {
				v[j] = byte(j + i)
			}
			values = append(values, v)
			if i%3 == 0 {
				prp, _ := nvme.BuildPRP(mem, v)
				cmd := writeCmd(t, fmt.Sprintf("p%02d", i), v, nvme.ModePRP)
				cmd.SetPRP1(prp.Pages[0])
				if comp, _ := submit(t, dev, cmd); comp.Status != nvme.StatusSuccess {
					t.Fatalf("policy %v PRP write %d: %v", p, i, comp.Status)
				}
				prp.Free(mem)
				continue
			}
			cmd := writeCmd(t, fmt.Sprintf("p%02d", i), v, nvme.ModeInline)
			n := cmd.SetWritePiggyback(v)
			if comp, _ := submit(t, dev, cmd); comp.Status != nvme.StatusSuccess {
				t.Fatalf("policy %v inline write %d: %v", p, i, comp.Status)
			}
			rest := v[n:]
			for len(rest) > 0 {
				var tr nvme.Command
				tr.SetOpcode(nvme.OpKVTransfer)
				k := tr.SetTransferPiggyback(rest)
				if comp, _ := submit(t, dev, tr); comp.Status != nvme.StatusSuccess {
					t.Fatalf("policy %v fragment: %v", p, comp.Status)
				}
				rest = rest[k:]
			}
		}
		for i, v := range values {
			rbuf, _ := nvme.BuildPRP(mem, make([]byte, 8192))
			var rd nvme.Command
			rd.SetOpcode(nvme.OpKVRead)
			rd.SetKey([]byte(fmt.Sprintf("p%02d", i)))
			rd.SetPRP1(rbuf.Pages[0])
			rd.SetValueSize(uint32(rbuf.TransferSize()))
			comp, _ := submit(t, dev, rd)
			if comp.Status != nvme.StatusSuccess {
				t.Fatalf("policy %v read %d: %v", p, i, comp.Status)
			}
			got, _ := rbuf.GatherInto(mem, nil)
			if !bytes.Equal(got[:len(v)], v) {
				t.Fatalf("policy %v value %d corrupted", p, i)
			}
			rbuf.Free(mem)
		}
	}
}
