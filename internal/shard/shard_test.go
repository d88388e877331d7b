package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/nand"
)

// testOptions returns a compact, fast stack configuration.
func testOptions() Options {
	dcfg := device.DefaultConfig()
	dcfg.Geometry = nand.Geometry{
		Channels: 2, WaysPerChannel: 2, BlocksPerWay: 64, PagesPerBlock: 32, PageSize: 16 * 1024,
	}
	dcfg.LSM.MemTableEntries = 256
	return Options{
		Device:     dcfg,
		Method:     driver.MethodAdaptive,
		Thresholds: driver.DefaultThresholds(),
	}
}

func newTestStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStackConstruction(t *testing.T) {
	st := newTestStack(t)
	if st.Clock == nil || st.Link == nil || st.Dev == nil || st.Drv == nil {
		t.Fatal("NewStack left a component nil")
	}
	if st.Clock.Now() != 0 {
		t.Fatal("fresh stack clock not at zero")
	}
}

// The stack's driver serves the point ops on the stack's clock and link.
func TestShardPutGetDelete(t *testing.T) {
	s := newTestStack(t)
	d := s.Drv
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get([]byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := d.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("k")); err == nil {
		t.Fatal("deleted key still readable")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Clock.Now() <= 0 || s.Link.HostToDeviceBytes() == 0 {
		t.Fatal("the driver's ops left the stack's clock or link untouched")
	}
}

// The stack wires Submission and Device.Cache.NegativeEntries into the
// driver's batch pair: lanes select key subsets, a nil miss is strict, a
// non-nil miss absorbs absent keys (including a negative-cache hit), and the
// serial and windowed paths land identical results.
func TestStackBatchLanes(t *testing.T) {
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			o := testOptions()
			o.Device.Cache.NegativeEntries = 16
			if depth > 1 {
				o.Submission = driver.SubmissionConfig{QueueDepth: depth}
			}
			s, err := NewStack(o)
			if err != nil {
				t.Fatal(err)
			}
			d := s.Drv
			keys := make([][]byte, 12)
			vals := make([][]byte, len(keys))
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("b%02d", i))
				vals[i] = bytes.Repeat([]byte{byte(i)}, 40+i)
			}
			even := []int{0, 2, 4, 6, 8, 10}
			if err := d.PutBatch(keys, vals, even); err != nil {
				t.Fatal(err)
			}
			// Strict over the written lane: every lane fills, odd lanes stay
			// untouched.
			got := make([][]byte, len(keys))
			if err := d.GetBatch(keys, got, nil, even); err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if i%2 == 0 && !bytes.Equal(got[i], vals[i]) {
					t.Fatalf("lane %d = %x", i, got[i])
				}
				if i%2 == 1 && got[i] != nil {
					t.Fatalf("lane %d outside the batch was written", i)
				}
			}
			// Strict over everything: the first absent key fails the batch.
			if err := d.GetBatch(keys, got, nil, nil); err == nil {
				t.Fatal("strict GetBatch over absent keys succeeded")
			}
			// Sparse over everything, three times: the repeats resolve the odd
			// keys from the negative cache. At depth 8 these batches keep the
			// whole window in flight, so a read the failed batch left there
			// would fail them.
			miss := make([]bool, len(keys))
			for r := 0; r < 3; r++ {
				if err := d.GetBatch(keys, got, miss, nil); err != nil {
					t.Fatal(err)
				}
				for i := range keys {
					if miss[i] != (i%2 == 1) {
						t.Fatalf("round %d: miss[%d] = %v", r, i, miss[i])
					}
					if miss[i] && len(got[i]) != 0 || !miss[i] && !bytes.Equal(got[i], vals[i]) {
						t.Fatalf("round %d: lane %d = %x", r, i, got[i])
					}
				}
			}
			if d.Stats().NegativeHits.Value() == 0 {
				t.Fatal("repeated misses never hit the negative cache")
			}
		})
	}
}

func TestPartitionerDeterministicAndCovering(t *testing.T) {
	p, err := NewPartitioner(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPartitioner(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	key := make([]byte, 4)
	for i := 0; i < 4096; i++ {
		binary.BigEndian.PutUint32(key, uint32(i))
		a, b := p.Shard(key), q.Shard(key)
		if a != b {
			t.Fatalf("same seed disagrees on key %d: %d vs %d", i, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("shard %d out of range", a)
		}
		counts[a]++
	}
	// Sequential keys must spread: no shard may be starved or hog the space.
	for i, c := range counts {
		if c < 4096/4/2 || c > 4096/4*2 {
			t.Fatalf("unbalanced partition: shard %d got %d of 4096", i, c)
		}
	}
}

func TestPartitionerSingleShard(t *testing.T) {
	p, err := NewPartitioner(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{{0}, []byte("abc"), bytes.Repeat([]byte{0xFF}, 16)} {
		if p.Shard(k) != 0 {
			t.Fatal("single-shard partitioner must map everything to 0")
		}
	}
	if _, err := NewPartitioner(0, 1); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// cursor is st's Cursor the way bandslim.DB builds one: the driver's NEXT,
// copied out of its read buffer.
func cursor(st *Stack) Cursor {
	return func(key, value []byte) ([]byte, []byte, error) {
		k, v, err := st.Drv.Next()
		if err == nil {
			k, v = append(key[:0], k...), append(value[:0], v...)
		}
		return k, v, err
	}
}

// seekAll positions every stack's device iterator at start and returns the
// stacks' cursors, the way a front-end builds a MergeIterator.
func seekAll(t *testing.T, stacks []*Stack, start []byte) []Cursor {
	t.Helper()
	cursors := make([]Cursor, len(stacks))
	for i, st := range stacks {
		if err := st.Drv.Seek(start); err != nil {
			t.Fatal(err)
		}
		cursors[i] = cursor(st)
	}
	return cursors
}

func TestMergeIteratorGlobalOrder(t *testing.T) {
	shards := []*Stack{newTestStack(t), newTestStack(t), newTestStack(t)}
	p, err := NewPartitioner(len(shards), 7)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 90; i++ {
		key := []byte(fmt.Sprintf("mk%03d", i))
		if err := shards[p.Shard(key)].Drv.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(key))
	}
	sort.Strings(want)
	mi, err := NewMergeIterator(seekAll(t, shards, []byte{0}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for mi.Valid() {
		got = append(got, string(mi.Key()))
		if len(got) <= 90 && mi.Value() == nil {
			t.Fatal("valid position with nil value")
		}
		mi.Next()
	}
	if mi.Err() != nil {
		t.Fatal(mi.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMergeIteratorSeekMidRange(t *testing.T) {
	shards := []*Stack{newTestStack(t), newTestStack(t)}
	p, err := NewPartitioner(len(shards), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("sk%02d", i))
		if err := shards[p.Shard(key)].Drv.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mi, err := NewMergeIterator(seekAll(t, shards, []byte("sk25")))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := ""
	for mi.Valid() {
		k := string(mi.Key())
		if k < "sk25" {
			t.Fatalf("key %q before seek point", k)
		}
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		count++
		mi.Next()
	}
	if count != 15 {
		t.Fatalf("scanned %d pairs from sk25, want 15", count)
	}
}

func TestMergeIteratorEmpty(t *testing.T) {
	mi, err := NewMergeIterator(seekAll(t, []*Stack{newTestStack(t)}, []byte{0}))
	if err != nil {
		t.Fatal(err)
	}
	if mi.Valid() {
		t.Fatal("empty shard set produced a pair")
	}
	if mi.Key() != nil || mi.Value() != nil || mi.Err() != nil {
		t.Fatal("invalid iterator must report nil key/value and no error")
	}
	mi.Next() // must be a no-op, not a panic
}

// A cursor that fails mid-stream (a closed DB, a power cut) stops the merged
// view with that error instead of surfacing a stale pair.
func TestMergeIteratorCursorError(t *testing.T) {
	st := newTestStack(t)
	for i := 0; i < 4; i++ {
		if err := st.Drv.Put([]byte(fmt.Sprintf("ek%d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drv.Seek([]byte{0}); err != nil {
		t.Fatal(err)
	}
	next := cursor(st)
	boom, calls := errors.New("cursor gone"), 0
	failing := func(key, value []byte) ([]byte, []byte, error) {
		if calls++; calls > 2 {
			return nil, nil, boom
		}
		return next(key, value)
	}
	mi, err := NewMergeIterator([]Cursor{failing})
	if err != nil {
		t.Fatal(err)
	}
	if !mi.Valid() || string(mi.Key()) != "ek0" {
		t.Fatalf("first pair = %q", mi.Key())
	}
	mi.Next()
	if !mi.Valid() || string(mi.Key()) != "ek1" {
		t.Fatalf("second pair = %q", mi.Key())
	}
	mi.Next()
	if mi.Valid() || mi.Err() != boom || mi.Key() != nil || mi.Value() != nil {
		t.Fatalf("after cursor error: valid=%v err=%v key=%q", mi.Valid(), mi.Err(), mi.Key())
	}
	mi.Next() // stays stopped
	if mi.Err() != boom {
		t.Fatalf("Err changed to %v", mi.Err())
	}
	if _, err := NewMergeIterator([]Cursor{failing}); err != boom {
		t.Fatalf("NewMergeIterator over a failing cursor = %v", err)
	}
}
