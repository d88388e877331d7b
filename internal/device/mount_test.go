package device

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bandslim/internal/cache"
	"bandslim/internal/fault"
	"bandslim/internal/nvme"
	"bandslim/internal/pagebuf"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// A hot set that fits in the MemTable never flushes the tree, however often
// it is overwritten. Mount reads back one entry per key, not one per write:
// its count and its simulated time are the hot set's, and every key reads the
// value it was last acknowledged with.
func TestMountReplaysOneEntryPerKey(t *testing.T) {
	const keys, writes = 64, 20000
	for _, c := range []struct {
		name  string
		cache cache.Config
	}{{"cache-off", cache.Config{}}, {"serving-cache", cache.ServingProfile()}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.LSM.MemTableEntries = 2 * keys
			cfg.Buffer.Policy = pagebuf.PolicyBackfill // packed: 20 000 values fit in the vLog
			cfg.Cache = c.cache
			dev, _, _, mem := newDev(t, cfg)
			value := func(k, i int) []byte { return []byte(fmt.Sprintf("h%02d value of write %06d", k, i)) }
			for i := 0; i < writes; i++ {
				putInline(t, dev, fmt.Sprintf("h%02d", i%keys), value(i%keys, i))
				if i == writes/2 {
					for k := 0; k < keys; k++ { // fill the value tier with values later writes replace
						readBack(t, dev, mem, fmt.Sprintf("h%02d", k))
					}
				}
			}
			if pages := dev.tree.Stats().PagesWritten.Value(); pages != 0 {
				t.Fatalf("the hot set flushed the tree (%d index pages written)", pages)
			}

			replayed := dev.stats.ReplayedRecords.Value()
			at := sim.Time(1_000_000)
			dev.powerCut(at)
			end, err := dev.Mount(at)
			if err != nil {
				t.Fatal(err)
			}
			if got := dev.stats.ReplayedRecords.Value() - replayed; got != keys {
				t.Fatalf("mount replayed %d entries after %d writes to %d keys, want %d", got, writes, keys, keys)
			}
			if got, want := end.Sub(at), keys*cfg.Memcpy.Cost(len("h00")+1+8+4+1); got != want {
				t.Fatalf("mount took %v, want %d entry reads of %v", got, keys, want/keys)
			}
			for k := 0; k < keys; k++ {
				last := (writes-1-k)/keys*keys + k
				if got, st := readBack(t, dev, mem, fmt.Sprintf("h%02d", k)); st != nvme.StatusSuccess || !bytes.Equal(got, value(k, last)) {
					t.Fatalf("key h%02d after mount: status %v, %q, want %q", k, st, got, value(k, last))
				}
			}
		})
	}
}

// Mount refuses a MemTable entry whose value lies outside the vLog's live
// range, and reads past a tombstone, which has no value to check.
func TestMountRefusesEntryOutsideVLog(t *testing.T) {
	dev, _, _, _ := newDev(t, smallConfig())
	putInline(t, dev, "a", []byte("value a"))
	if _, err := dev.tree.Delete(0, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	dev.powerCut(0)
	if _, err := dev.Mount(0); err != nil {
		t.Fatalf("mount over a value and a tombstone: %v", err)
	}
	if _, err := dev.tree.Put(0, []byte("b"), vlog.Addr(1<<40), 8); err != nil {
		t.Fatal(err)
	}
	dev.powerCut(0)
	if _, err := dev.Mount(0); !errors.Is(err, errIndexOutsideVLog) {
		t.Fatalf("mount over an entry past the vLog frontier returned %v, want %v", err, errIndexOutsideVLog)
	}
}

// batchCmd stages records as one bulk-write payload in host memory: each
// pair is a key and its value, and tail follows the records verbatim.
func batchCmd(t *testing.T, mem *nvme.HostMemory, pairs []string, tail []byte) nvme.Command {
	t.Helper()
	var payload []byte
	for i := 0; i < len(pairs); i += 2 {
		payload = EncodeBatchRecord(payload, []byte(pairs[i]), []byte(pairs[i+1]))
	}
	payload = append(payload, tail...)
	prp, err := nvme.BuildPRP(mem, payload)
	if err != nil {
		t.Fatal(err)
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVBatchWrite)
	cmd.SetPRP1(prp.Pages[0])
	cmd.SetValueSize(uint32(len(payload)))
	return cmd
}

// A bulk write unpacks and indexes every record up to the terminating zero
// key length, and reports how many it took.
func TestBatchWriteIndexesEveryRecord(t *testing.T) {
	dev, _, _, mem := newDev(t, smallConfig())
	pairs := []string{"b0", "zero", "b1", "one", "b2", "two", "b3", "three"}
	comp, _ := submit(t, dev, batchCmd(t, mem, pairs, []byte{0, 'x', 'y'}))
	if comp.Status != nvme.StatusSuccess || comp.Result != uint32(len(pairs)/2) {
		t.Fatalf("bulk write of %d records: status %v, %d taken", len(pairs)/2, comp.Status, comp.Result)
	}
	for i := 0; i < len(pairs); i += 2 {
		if got, st := readBack(t, dev, mem, pairs[i]); st != nvme.StatusSuccess || string(got) != pairs[i+1] {
			t.Fatalf("key %s: status %v, %q, want %q", pairs[i], st, got, pairs[i+1])
		}
	}
	var empty nvme.Command
	empty.SetOpcode(nvme.OpKVBatchWrite)
	if comp, _ := submit(t, dev, empty); comp.Status != nvme.StatusInvalidField {
		t.Fatalf("empty bulk write: status %v, want %v", comp.Status, nvme.StatusInvalidField)
	}
}

// The write that fills the MemTable flushes it. Cut power on that flush's
// first page program: the write, delete or bulk write reports the power loss,
// yet its entry is in the battery-backed MemTable, so Mount reads back the
// full table, flushes it, and the cut operation's effect is there.
func TestFlushCutKeepsTheFillingWrite(t *testing.T) {
	for _, op := range []string{"write", "delete", "batch"} {
		t.Run(op, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Buffer.Policy = pagebuf.PolicyBackfill // packed: the values fit one open vLog page
			dev, _, _, mem := newDev(t, cfg)
			plan, err := fault.ParsePlan("nand.program nth=1 powercut")
			if err != nil {
				t.Fatal(err)
			}
			dev.SetInjector(fault.NewInjector(plan, 0))
			full := cfg.LSM.MemTableEntries
			for i := 0; i < full-1; i++ {
				putInline(t, dev, fmt.Sprintf("f%02d", i), []byte("value"))
			}
			last := fmt.Sprintf("f%02d", full-1)
			var cmd nvme.Command
			switch op {
			case "write":
				cmd = writeCmd(t, last, []byte("last"), nvme.ModeInline)
				cmd.SetWritePiggyback([]byte("last"))
			case "delete":
				cmd.SetOpcode(nvme.OpKVDelete)
				cmd.SetKey([]byte(last))
			case "batch":
				cmd = batchCmd(t, mem, []string{last, "last"}, nil)
			}
			if comp, _ := submit(t, dev, cmd); comp.Status != nvme.StatusPowerLoss {
				t.Fatalf("the %s that filled the MemTable: status %v, want %v", op, comp.Status, nvme.StatusPowerLoss)
			}
			replayed := dev.stats.ReplayedRecords.Value()
			if _, err := dev.Mount(0); err != nil {
				t.Fatal(err)
			}
			if got := dev.stats.ReplayedRecords.Value() - replayed; got != int64(full) {
				t.Fatalf("mount replayed %d entries, want %d", got, full)
			}
			if pages := dev.tree.Stats().PagesWritten.Value(); pages == 0 {
				t.Fatal("mount left the full MemTable unflushed")
			}
			got, st := readBack(t, dev, mem, last)
			if want := (op == "delete"); want != (st == nvme.StatusKeyNotFound) || !want && string(got) != "last" {
				t.Fatalf("key %s after mount: status %v, %q", last, st, got)
			}
		})
	}
}
