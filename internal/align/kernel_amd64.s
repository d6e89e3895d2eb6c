// Lane-parallel banded score pass (the step-3 kernel). One int16 lane
// per diagonal of the band, eight lanes per XMM register, rows of the
// DP matrix processed top to bottom; see kernel.go for the layout,
// the exactness argument and the caller's side of the contract.

#include "textflag.h"

// Lane numbers 1..8: multiplied by the gap-extension cost they give
// what a horizontal gap entering a vector from the left has paid by
// the time it reaches each lane.
DATA laneRamp<>+0(SB)/8, $0x0004000300020001
DATA laneRamp<>+8(SB)/8, $0x0008000700060005
GLOBL laneRamp<>(SB), RODATA|NOPTR, $16

// func cpuidLeaf1ECX() uint32
//
// CPUID leaf 1, ECX: the feature word holding SSSE3 (bit 9) and
// SSE4.1 (bit 19). SSE2 needs no check (amd64 baseline).
TEXT ·cpuidLeaf1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// Field offsets of bandedArgs (kernel.go).
#define ARG_A       0
#define ARG_B       8
#define ARG_TAB     16
#define ARG_H       24
#define ARG_E       32
#define ARG_F       40
#define ARG_MASK    48
#define ARG_ROWS    56
#define ARG_NVEC    64
#define ARG_STRIDE  72
#define ARG_OE      80
#define ARG_EXT     88
#define ARG_BEST    96
#define ARG_BESTREM 104
#define ARG_BAD     112

// func bandedRowsSSE41(args *bandedArgs)
//
// Register plan: AX = args, SI = query residue of the row, BX =
// subject byte of the row's lane 0 (both advance by one per row: the
// band slides right as it goes down), R9/R10 = previous/current H row,
// R11/R12 = previous/current E row, R13 = current F row, R8 = bytes
// between rows, R14 = lane mask, CX = 8 × the vector index (byte
// offset into the subject, word index into the lane arrays), DI = its
// bound, DX = temp. The best score so far and the rows left when it
// was first reached live in args.
//
// XMM plan: X15 = PSHUFB control broadcasting lane 7, X14 =
// open+extend, X13/X12/X11 = 1/2/4 × extend, X10 = (1..8) × extend,
// X9 = 0x70 bytes, X8 = 0x10 bytes, X4/X5 = the row's 32 score bytes,
// X7 = running maximum of the row, X6 = the previous vector's inclusive
// gap scan (its last lane is the carry), X0-X3 = temps.
//
// Gap costs are subtracted with unsigned saturation, so E and F bottom
// out at 0 — as good as the scalar loop's negInf, see kernel.go — and
// max(H+score, E) needs no separate clamp at 0.
TEXT ·bandedRowsSSE41(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ ARG_A(AX), SI
	MOVQ ARG_B(AX), BX
	MOVQ ARG_STRIDE(AX), R8
	MOVQ ARG_H(AX), R9
	LEAQ (R9)(R8*1), R10
	MOVQ ARG_E(AX), R11
	LEAQ (R11)(R8*1), R12
	MOVQ ARG_F(AX), R13
	ADDQ R8, R13
	MOVQ ARG_MASK(AX), R14
	MOVQ ARG_NVEC(AX), DI
	SHLQ $3, DI

	MOVQ $0x0F0E0F0E0F0E0F0E, DX
	MOVQ DX, X15
	PUNPCKLQDQ X15, X15
	MOVQ ARG_OE(AX), DX
	MOVQ DX, X14
	PSHUFLW $0, X14, X14
	PSHUFD  $0, X14, X14
	MOVQ ARG_EXT(AX), DX
	MOVQ DX, X13
	PSHUFLW $0, X13, X13
	PSHUFD  $0, X13, X13
	MOVOU X13, X12
	PADDW X13, X12
	MOVOU X12, X11
	PADDW X12, X11
	MOVOU laneRamp<>(SB), X10
	PMULLW X13, X10
	MOVQ $0x7070707070707070, DX
	MOVQ DX, X9
	PUNPCKLQDQ X9, X9
	MOVQ $0x1010101010101010, DX
	MOVQ DX, X8
	PUNPCKLQDQ X8, X8

rowLoop:
	// The row's query residue selects a 32-byte score row: 24 real
	// scores, then -128 for the padding codes.
	MOVBLZX (SI), DX
	CMPL DX, $24
	JAE  badResidue
	SHLL $5, DX
	ADDQ ARG_TAB(AX), DX
	MOVOU (DX), X4
	MOVOU 16(DX), X5
	PXOR X7, X7
	PXOR X6, X6
	XORL CX, CX

vecLoop:
	// Scores of the eight subject residues under these lanes: two
	// PSHUFB lookups, the index bias choosing which half of the row
	// answers (a control byte with bit 7 set yields 0), then widened
	// to int16.
	MOVQ  (BX)(CX*1), X0
	MOVOU X0, X1
	PADDB X9, X0
	PSUBB X8, X1
	MOVOU X4, X2
	PSHUFB X0, X2
	MOVOU X5, X3
	PSHUFB X1, X3
	POR   X3, X2
	PMOVSXBW X2, X2

	// E: the vertical predecessor of lane k is lane k+1 of the row
	// above, in H and in E.
	MOVOU 2(R9)(CX*2), X0
	PSUBUSW X14, X0
	MOVOU 2(R11)(CX*2), X1
	PSUBUSW X13, X1
	PMAXSW X1, X0
	MOVOU X0, (R12)(CX*2)

	// H before horizontal gaps: the diagonal predecessor is the same
	// lane of the row above.
	MOVOU (R9)(CX*2), X1
	PADDSW X1, X2
	PMAXSW X0, X2

	// F: inclusive max-plus scan of H-open-extend along the row,
	// decaying by extend per lane, in three doubling steps...
	MOVOU X2, X0
	PSUBUSW X14, X0
	MOVOU X0, X1
	PSLLO $2, X1
	PSUBUSW X13, X1
	PMAXSW X1, X0
	MOVOU X0, X1
	PSLLO $4, X1
	PSUBUSW X12, X1
	PMAXSW X1, X0
	MOVOU X0, X1
	PSLLO $8, X1
	PSUBUSW X11, X1
	PMAXSW X1, X0
	// ...joined with the previous vector's last lane...
	MOVOU X6, X1
	PSHUFB X15, X1
	PSUBUSW X10, X1
	PMAXSW X1, X0
	// ...and shifted one lane right, because a gap opened at lane k
	// is first usable at lane k+1.
	MOVOU X0, X1
	PALIGNR $14, X6, X1
	MOVOU X0, X6
	MOVOU X1, (R13)(CX*2)
	PMAXSW X1, X2

	// Lanes right of the band hold 0, so that lane W feeds nothing
	// into lane W-1's E and the padding never reaches the maximum.
	MOVOU (R14)(CX*2), X1
	PAND  X1, X2
	MOVOU X2, (R10)(CX*2)
	PMAXSW X2, X7

	ADDQ $8, CX
	CMPQ CX, DI
	JLT  vecLoop

	// The lane after the last, in H and E: read by the next row's
	// shifted loads.
	MOVW $0, (R10)(CX*2)
	MOVW $0, (R12)(CX*2)

	// Row maximum: H is in [0, 32767], so the unsigned minimum of its
	// complement is the complement of its maximum.
	PCMPEQW X0, X0
	PXOR    X7, X0
	PHMINPOSUW X0, X0
	MOVQ X0, DX
	NOTL DX
	MOVWLZX DX, DX
	CMPQ DX, ARG_BEST(AX)
	JLE  nextRow
	MOVQ DX, ARG_BEST(AX)
	MOVQ ARG_ROWS(AX), DX
	MOVQ DX, ARG_BESTREM(AX)

nextRow:
	INCQ SI
	INCQ BX
	MOVQ R10, R9
	ADDQ R8, R10
	MOVQ R12, R11
	ADDQ R8, R12
	ADDQ R8, R13
	DECQ ARG_ROWS(AX)
	JNZ  rowLoop
	RET

badResidue:
	MOVQ $1, ARG_BAD(AX)
	RET
