package ungapped

import "seedblast/internal/align"

// hasAVX2 gates the blocked kernel: its 32-lane scanner needs AVX2, and
// Kernel.resolve picks the scalar reference without it. Read from
// internal/align, which holds the tree's one CPUID probe; a var so tests
// can take the scalar fallback on any amd64 host.
var hasAVX2 = align.HasAVX2

// scanGroup32AVX2 scores avx2Lanes consecutive subject windows of
// subLen bytes starting at win against the query window w0, writes each
// window's exact maximum zero-clamped running sum (align.WindowScore)
// to best and returns the mask of windows whose score exceeds cut. The
// caller guarantees that all avx2Lanes windows are readable (lanes it
// ignores may lie past the bucket), that subLen ≥ 1, that the workload
// passed blockedFits, and that hasAVX2 is true.
//
//go:noescape
func scanGroup32AVX2(tab *[tabRows * tabRows]int8, w0, win *byte, subLen, cut int, best *[avx2Lanes]int16) uint32
