//go:build !amd64

package ungapped

// hasSSSE3: no x86 vector extensions on this GOARCH, so Kernel.resolve
// always picks the scalar reference.
const hasSSSE3 = false

// scanGroup16SSSE3 is never called when hasSSSE3 is false; the stub
// keeps the portable build compiling.
func scanGroup16SSSE3(btab *uint8, w0 *byte, win *byte, subLen int, best *[ssse3Lanes]int16) {
	panic("ungapped: asm kernel called on unsupported GOARCH")
}
