package ungapped

import (
	"testing"

	"seedblast/internal/matrix"
)

// TestScalarFallbackWithoutSSSE3 runs the path non-amd64 builds and
// pre-SSSE3 CPUs take: with hasSSSE3 false every kernel resolves to
// the scalar reference, which returns the blocked kernel's hits.
func TestScalarFallbackWithoutSSSE3(t *testing.T) {
	ix0, ix1 := randomIndexes(t, 7, 24, 260, 8)
	cfg := Config{Matrix: matrix.BLOSUM62, Threshold: 16, Workers: 1, Kernel: KernelBlocked}
	ref, err := Run(ix0, ix1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Hits) == 0 {
		t.Fatal("no hits; test is vacuous")
	}

	defer func(old bool) { hasSSSE3 = old }(hasSSSE3)
	hasSSSE3 = false
	for _, k := range []Kernel{KernelAuto, KernelBlocked} {
		cfg.Kernel = k
		got, err := Run(ix0, ix1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kernel != KernelScalar {
			t.Fatalf("%v without SSSE3 resolved to %v, want scalar", k, got.Kernel)
		}
		requireIdentical(t, ref, got, k.String()+" without SSSE3")
	}
}
