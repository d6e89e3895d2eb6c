//go:build !amd64

package align

// HasSSSE3: no x86 vector extensions on this GOARCH.
const HasSSSE3 = false

// HasAVX2: no step-3 kernel on this GOARCH; every banded pass runs the
// scalar loop.
const HasAVX2 = false

// bandedBatchAVX2 is never called when HasAVX2 is false; the stub
// keeps the portable build compiling.
func bandedBatchAVX2(args *batchArgs) {
	panic("align: asm kernel called on unsupported GOARCH")
}
