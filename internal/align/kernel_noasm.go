//go:build !amd64

package align

// HasAVX2: no vector kernels on this GOARCH; step 2 and every banded
// pass run their scalar loops.
const HasAVX2 = false

// bandedBatchAVX2 is never called when HasAVX2 is false; the stub
// keeps the portable build compiling.
func bandedBatchAVX2(args *batchArgs) {
	panic("align: asm kernel called on unsupported GOARCH")
}
