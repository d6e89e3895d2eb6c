//go:build !amd64

package ungapped

// hasAVX2: no x86 vector extensions on this GOARCH, so Kernel.resolve
// always picks the scalar reference.
const hasAVX2 = false

// scanGroup32AVX2 is never called when hasAVX2 is false; the stub keeps
// the portable build compiling.
func scanGroup32AVX2(tab *[tabRows * tabRows]int8, w0, win *byte, subLen, cut int, best *[avx2Lanes]int16) uint32 {
	panic("ungapped: asm kernel called on unsupported GOARCH")
}
