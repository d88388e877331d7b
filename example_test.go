package bandslim_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bandslim"
)

// The basic lifecycle: open the paper's headline configuration, write, read.
func ExampleOpen() {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("greeting"), []byte("hello, kv-ssd")); err != nil {
		log.Fatal(err)
	}
	v, err := db.Get([]byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v))
	// Output: hello, kv-ssd
}

// Range scans ride the device-side SEEK/NEXT iterator.
func ExampleDB_NewIterator() {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for _, k := range []string{"b", "a", "c"} {
		if err := db.Put([]byte(k), []byte("v-"+k)); err != nil {
			log.Fatal(err)
		}
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		log.Fatal(err)
	}
	for it.Valid() {
		fmt.Printf("%s=%s\n", it.Key(), it.Value())
		it.Next()
	}
	// Output:
	// a=v-a
	// b=v-b
	// c=v-c
}

// Every byte crossing the simulated PCIe link is accounted: a 32-byte value
// piggybacked in one NVMe command costs 64 bytes, against 4160 for the
// page-unit baseline — the paper's headline reduction.
func ExampleDB_Stats() {
	cfg := bandslim.DefaultConfig()
	cfg.Method = bandslim.Piggyback
	cfg.DisableNAND = true
	db, err := bandslim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("tiny"), make([]byte, 32)); err != nil {
		log.Fatal(err)
	}
	s := db.Stats()
	fmt.Printf("PCIe bytes: %d (baseline would be 4160)\n", s.PCIe.Bytes)
	fmt.Printf("reduction: %.1f%%\n", 100*(1-float64(s.PCIe.Bytes)/4160))
	// Output:
	// PCIe bytes: 64 (baseline would be 4160)
	// reduction: 98.5%
}

// PutBatch ships bulk ingest as batched OpKVBatchWrite commands and flushes
// before it returns, so one call amortizes command round trips without the
// volatile host window of Dotori/KV-CSD-style batching.
func ExampleDB_PutBatch() {
	db, err := bandslim.Open(bandslim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	keys := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	values := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	if err := db.PutBatch(keys, values); err != nil {
		log.Fatal(err)
	}
	fmt.Println("commands:", db.Stats().Host.Commands)

	v, _ := db.Get([]byte("y"))
	fmt.Println("y =", string(v))
	// Output:
	// commands: 1
	// y = 2
}

// A fault plan injects transient link errors and cuts power mid-run. The
// driver retries the transients; after the cut, Recover remounts the device
// and replays its battery-backed journal, so every acknowledged write
// survives.
func ExampleDB_Recover() {
	plan, err := bandslim.ParseFaultPlan(`
seed 42
dma.in every=50 transient   # retryable link error every 50th transfer
exec nth=500 powercut       # crash on the 500th command
`)
	if err != nil {
		log.Fatal(err)
	}
	cfg := bandslim.DefaultConfig()
	cfg.Faults = plan
	db, err := bandslim.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	value := make([]byte, 512)
	for i := 0; i < 1000; i++ {
		err := db.Put(key(i), value)
		if bandslim.IsPowerLoss(err) {
			if err := db.Recover(); err != nil {
				log.Fatal(err)
			}
			err = db.Put(key(i), value) // the cut write was never acknowledged
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Get(key(i)); err != nil {
			log.Fatal(err)
		}
	}
	f := db.Stats().Faults
	fmt.Printf("power cuts: %d, mounts: %d, retries: %d\n", f.PowerCuts, f.Mounts, f.Retries)
	fmt.Println("all 1000 writes read back")
	// Output:
	// power cuts: 1, mounts: 1, retries: 20
	// all 1000 writes read back
}

// TestExamplesImportOnlyPublicAPI keeps the programs under examples/ on
// package bandslim's public API: an example that imports bandslim/internal/...
// shows users code they cannot write.
func TestExamplesImportOnlyPublicAPI(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "bandslim/internal/") {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
