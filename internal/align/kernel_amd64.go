package align

// HasAVX2 gates the step-3 kernel and, through internal/ungapped, the
// step-2 one: AVX2 (CPUID.(7,0):EBX bit 5), and an OS that saves YMM
// state (CPUID.1:ECX.OSXSAVE, then XCR0 bits 1 and 2), without which a
// VEX instruction faults. This file holds the tree's one CPU probe. A
// var so that tests can take the scalar fallback on any amd64 host.
var HasAVX2 = func() bool {
	_, _, leaf1ECX, _ := cpuid(1, 0)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 || leaf1ECX&(1<<27) == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// cpuid and xgetbv0 are implemented in kernel_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// bandedBatchAVX2 runs args.nrows rows of the banded DP for sixteen
// lanes and keeps every row's H, E and F cells in args.rows. The
// caller (bandedEndsKernel) guarantees that HasAVX2 is true, that
// args.nrows ≥ 1, that every query residue is a protein code and that
// the lanes it reads back fit the int16 lanes.
//
//go:noescape
func bandedBatchAVX2(args *batchArgs)
