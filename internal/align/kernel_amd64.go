package align

// cpuFeatures is CPUID leaf 1's ECX feature word, read once at
// startup: the tree's one CPU probe.
var cpuFeatures = cpuidLeaf1ECX()

// HasSSSE3 reports SSSE3 (PSHUFB); internal/ungapped selects its
// 16-lane step-2 scanner with it.
var HasSSSE3 = cpuFeatures&(1<<9) != 0

// hasBandedKernel gates the step-3 kernel: bandedRowsSSE41 needs
// SSE4.1 (PMOVSXBW, PHMINPOSUW) on top of SSSE3 (PSHUFB, PALIGNR).
var hasBandedKernel = HasSSSE3 && cpuFeatures&(1<<19) != 0

// cpuidLeaf1ECX is implemented in kernel_amd64.s.
func cpuidLeaf1ECX() uint32

// bandedRowsSSE41 runs args.rows rows of the banded DP and leaves
// every row's H, E and F lanes in args.h, args.e and args.f. The caller (bandedEndKernel)
// guarantees that hasBandedKernel is true and that scores and gap
// costs fit the int16 lanes.
//
//go:noescape
func bandedRowsSSE41(args *bandedArgs)
