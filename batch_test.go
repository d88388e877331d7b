package bandslim_test

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim"
)

func batchKV(n int) (keys, values [][]byte) {
	keys = make([][]byte, n)
	values = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bk%04d", i))
		// Mixed sizes exercise inline, PRP, and adaptive transfer classes.
		size := 16 + (i%4)*700
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i + j)
		}
		values[i] = v
	}
	return keys, values
}

// getAll reads keys in one GetBatchSparse into vals and fails the test on an
// error or a miss.
func getAll(t *testing.T, db *bandslim.DB, keys, vals [][]byte) [][]byte {
	t.Helper()
	miss := make([]bool, len(keys))
	got, err := db.GetBatchSparse(keys, vals, miss)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range miss {
		if m {
			t.Fatalf("key %s: written but reported missing", keys[i])
		}
	}
	return got
}

func TestPutBatchGetBatchRoundTrip(t *testing.T) {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	keys, values := batchKV(200)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got := getAll(t, db, keys, nil)
	for i := range keys {
		if !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s: got %d bytes, want %d", keys[i], len(got[i]), len(values[i]))
		}
	}

	// Lanes are reused in place: a second call with the returned slice must
	// not allocate fresh lanes, and overwrites must be visible through it.
	for i := range values {
		values[i][0] ^= 0xFF
	}
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got2 := getAll(t, db, keys, got)
	for i := range keys {
		if !bytes.Equal(got2[i], values[i]) {
			t.Fatalf("key %s: overwrite not visible through reused lanes", keys[i])
		}
	}

	// Per-op Get must agree with the batch write path.
	for i := 0; i < len(keys); i += 37 {
		v, err := db.Get(keys[i])
		if err != nil || !bytes.Equal(v, values[i]) {
			t.Fatalf("Get(%s) after PutBatch: %v", keys[i], err)
		}
	}
}

func TestShardedBatchRoundTrip(t *testing.T) {
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:   4,
		PerShard: bandslim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys, values := batchKV(256)
	if err := s.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got := getAll(t, s, keys, nil)
	for i := range keys {
		if !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s: cross-shard batch read mismatch (%d vs %d bytes)",
				keys[i], len(got[i]), len(values[i]))
		}
	}

	// The batch fan-out must agree with the per-key routed path.
	for i := 0; i < len(keys); i += 29 {
		v, err := s.Get(keys[i])
		if err != nil || !bytes.Equal(v, values[i]) {
			t.Fatalf("Get(%s) after sharded PutBatch: %v", keys[i], err)
		}
	}

	// Batch updates interleaved with per-op writes stay consistent.
	for i := range values {
		values[i] = append(values[i], 0xAB)
	}
	if err := s.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got = getAll(t, s, keys, got)
	for i := range keys {
		if !bytes.Equal(got[i], values[i]) {
			t.Fatalf("key %s: sharded batch overwrite mismatch", keys[i])
		}
	}
}

func TestBatchArgumentErrors(t *testing.T) {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := [][]byte{[]byte("a"), []byte("b")}
	one := [][]byte{[]byte("x")}
	if err := db.PutBatch(keys, one); err == nil {
		t.Error("DB.PutBatch accepted mismatched key/value counts")
	}
	if _, err := db.GetBatchSparse(keys, one, make([]bool, 2)); err == nil {
		t.Error("DB.GetBatchSparse accepted mismatched key/lane counts")
	}
	if err := s.PutBatch(keys, one); err == nil {
		t.Error("sharded DB.PutBatch accepted mismatched key/value counts")
	}
	if _, err := s.GetBatchSparse(keys, one, make([]bool, 2)); err == nil {
		t.Error("sharded DB.GetBatchSparse accepted mismatched key/lane counts")
	}
}

// TestGetBatchSparse checks the miss-tolerant batch lookup on both
// front-ends: present keys copy into their lanes, absent keys set miss[i]
// with an empty lane, and no error is raised for the misses.
func TestGetBatchSparse(t *testing.T) {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 4, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys, values := batchKV(64)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}

	// Interleave present and absent keys.
	probe := make([][]byte, 0, len(keys)*2)
	wantMiss := make([]bool, 0, len(keys)*2)
	for i := range keys {
		probe = append(probe, keys[i])
		wantMiss = append(wantMiss, false)
		if i%3 == 0 {
			probe = append(probe, []byte(fmt.Sprintf("absent%04d", i)))
			wantMiss = append(wantMiss, true)
		}
	}
	check := func(name string, get func(keys, vals [][]byte, miss []bool) ([][]byte, error)) {
		t.Helper()
		miss := make([]bool, len(probe))
		got, err := get(probe, nil, miss)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vi := 0
		for i := range probe {
			if miss[i] != wantMiss[i] {
				t.Fatalf("%s: key %q miss=%v, want %v", name, probe[i], miss[i], wantMiss[i])
			}
			if wantMiss[i] {
				if len(got[i]) != 0 {
					t.Fatalf("%s: absent key %q got %d bytes", name, probe[i], len(got[i]))
				}
				continue
			}
			if !bytes.Equal(got[i], values[vi]) {
				t.Fatalf("%s: key %q value mismatch", name, probe[i])
			}
			vi++
		}
		// Mismatched miss length is an argument error.
		if _, err := get(probe, nil, make([]bool, 1)); err == nil {
			t.Fatalf("%s: accepted short miss slice", name)
		}
	}
	check("DB", db.GetBatchSparse)
	check("sharded DB", s.GetBatchSparse)
}
