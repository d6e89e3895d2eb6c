package ungapped

import "seedblast/internal/align"

// hasSSSE3 gates the blocked kernel: its 16-lane scanner needs SSSE3
// (PSHUFB), and Kernel.resolve picks the scalar reference without it.
// Read from internal/align, which holds the tree's one CPUID probe; a
// var so tests can take the scalar fallback on any amd64 host.
var hasSSSE3 = align.HasSSSE3

// scanGroup16SSSE3 scores 16 consecutive subject windows of subLen
// bytes starting at win against the query window w0, writing each
// window's exact maximum zero-clamped running sum (align.WindowScore)
// to best. btab is the scratch's biased score table. The caller
// guarantees all 16 windows are in bounds, that the workload passed
// blockedFits, and that hasSSSE3 is true.
//
//go:noescape
func scanGroup16SSSE3(btab *uint8, w0 *byte, win *byte, subLen int, best *[ssse3Lanes]int16)
