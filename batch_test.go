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
	got, err := db.GetBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	got2, err := db.GetBatch(keys, got)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := s.GetBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err = s.GetBatch(keys, got)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := db.GetBatch(keys, one); err == nil {
		t.Error("DB.GetBatch accepted mismatched key/lane counts")
	}
	if err := s.PutBatch(keys, one); err == nil {
		t.Error("sharded DB.PutBatch accepted mismatched key/value counts")
	}
	if _, err := s.GetBatch(keys, one); err == nil {
		t.Error("sharded DB.GetBatch accepted mismatched key/lane counts")
	}

	if _, err := db.GetBatch([][]byte{[]byte("missing")}, nil); err == nil {
		t.Error("DB.GetBatch of an absent key succeeded")
	}
	if _, err := s.GetBatch([][]byte{[]byte("missing")}, nil); err == nil {
		t.Error("sharded DB.GetBatch of an absent key succeeded")
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

// TestBatchPathDeterminism replays the same batched workload twice and
// requires byte-identical exported metrics: the batch fast path must not
// introduce any run-to-run nondeterminism into simulated time.
func TestBatchPathDeterminism(t *testing.T) {
	run := func() (string, string) {
		s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
			Shards:   4,
			PerShard: bandslim.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys, values := batchKV(300)
		for round := 0; round < 3; round++ {
			if err := s.PutBatch(keys, values); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetBatch(keys, nil); err != nil {
				t.Fatal(err)
			}
		}
		var prom bytes.Buffer
		if err := s.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := bandslim.WriteSeriesCSV(&csv, s.Series()); err != nil {
			t.Fatal(err)
		}
		return prom.String(), csv.String()
	}
	prom1, csv1 := run()
	prom2, csv2 := run()
	if prom1 != prom2 {
		t.Error("batched workload: WritePrometheus output differs between identical runs")
	}
	if csv1 != csv2 {
		t.Error("batched workload: WriteSeriesCSV output differs between identical runs")
	}
}
