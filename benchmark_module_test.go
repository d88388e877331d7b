package bandslim_test

import (
	"os/exec"
	"testing"
)

// The benchmark/ harness is its own module, so `go test ./...` here never
// builds it, yet it compiles against this module's packages. Vetting it
// type-checks its code and its tests against the tree, so an API change that
// breaks the harness fails the root module's own tests.
func TestBenchmarkModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
