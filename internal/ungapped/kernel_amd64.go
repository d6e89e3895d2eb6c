package ungapped

import "seedblast/internal/align"

// hasAsmKernel gates the architecture-specific group scanners: on
// amd64 the blocked kernel scores whole groups of windows per pass
// with the exact SIMD routines in kernel_amd64.s instead of the
// portable 4-lane SWAR pass.
const hasAsmKernel = true

// hasSSSE3 selects between the two asm scanners: the 16-lane
// PSHUFB-based scanner needs SSSE3, the 8-lane PINSRW-based one only
// baseline SSE2. Read from internal/align, which holds the tree's one
// CPUID probe.
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

// scanGroup8SSE is the SSE2-only variant: 8 windows per group, scores
// gathered with PINSRW chains. Same contract as scanGroup16SSSE3 for
// its 8 windows, no CPU-feature requirement beyond the amd64 baseline.
//
//go:noescape
func scanGroup8SSE(btab *uint8, w0 *byte, win *byte, subLen int, best *[asmLanes]int16)
