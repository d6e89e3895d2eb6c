//go:build !amd64

package align

// HasSSSE3: no x86 vector extensions on this GOARCH.
const HasSSSE3 = false

// hasBandedKernel: no step-3 kernel on this GOARCH; every banded pass
// runs the scalar loop.
const hasBandedKernel = false

// bandedRowsSSE41 is never called when hasBandedKernel is false; the
// stub keeps the portable build compiling.
func bandedRowsSSE41(args *bandedArgs) {
	panic("align: asm kernel called on unsupported GOARCH")
}
