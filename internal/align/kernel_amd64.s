// Inter-sequence banded score pass (the step-3 kernel). One int16 lane
// per extension, sixteen lanes per YMM register, one register per band
// cell, rows of the DP matrix processed top to bottom; see kernel.go
// for the layout, the exactness argument and the caller's side of the
// contract.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// XCR0's low word: which register states the OS saves. Only valid when
// CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// Field offsets of batchArgs (kernel.go).
#define ARG_A     0
#define ARG_SUBJ  8
#define ARG_TAB   16
#define ARG_ROWS  24
#define ARG_NROWS 32
#define ARG_WIDTH 40
#define ARG_OE    48
#define ARG_EXT   56
#define ARG_BEST  64
#define ARG_ROW   96

// A kept cell is three vectors: H, E, F.
#define CELL 96

// func bandedBatchAVX2(args *batchArgs)
//
// Register plan: AX = args, SI = query residue of the row, BX =
// transposed subject row under cell 0 of the row (advances 16 bytes per
// row: the band slides one column right per row), DI = cell 0 of the
// current kept row, R8 = bytes between kept rows, R9 = score table,
// R10 = rows left, R11 = current cell, R12 = current subject row,
// R13 = the same cell one row up, CX = cells left in the row, DX = temp.
//
// YMM plan: Y15 = open+extend, Y14 = extend, X13 = 0x70 bytes, X12 =
// 0x10 bytes, X10/X11 = the row's 32 score bytes, Y9 = per-lane
// maximum, Y8 = per-lane row that first reached it, Y7 = this row's
// number, Y6 = -1 words, Y5 = this row's per-lane maximum, Y4 = F,
// Y3 = zero, Y0-Y2 = temps.
//
// Gap costs are subtracted with unsigned saturation, so E and F bottom
// out at 0 — as good as the scalar loop's negInf, see kernel.go — and
// max(H + score, E, F) needs no separate clamp at 0.
TEXT ·bandedBatchAVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ ARG_A(AX), SI
	MOVQ ARG_SUBJ(AX), BX
	MOVQ ARG_TAB(AX), R9
	MOVQ ARG_ROWS(AX), DI
	MOVQ ARG_WIDTH(AX), R8
	INCQ R8
	IMULQ $CELL, R8
	ADDQ R8, DI
	MOVQ ARG_NROWS(AX), R10

	VPBROADCASTW ARG_OE(AX), Y15
	VPBROADCASTW ARG_EXT(AX), Y14
	MOVL $0x70, DX
	VMOVQ DX, X13
	VPBROADCASTB X13, X13
	MOVL $0x10, DX
	VMOVQ DX, X12
	VPBROADCASTB X12, X12
	VPXOR Y3, Y3, Y3
	VPXOR Y9, Y9, Y9
	VPXOR Y8, Y8, Y8
	VPCMPEQW Y6, Y6, Y6
	VPSUBW Y6, Y3, Y7

rowLoop:
	// The row's query residue selects a 32-byte score row: 24 real
	// scores, then -128 for the padding codes.
	MOVBLZX (SI), DX
	SHLQ $5, DX
	VMOVDQU (R9)(DX*1), X10
	VMOVDQU 16(R9)(DX*1), X11
	VPXOR Y5, Y5, Y5
	VPXOR Y4, Y4, Y4
	MOVQ DI, R11
	MOVQ DI, R13
	SUBQ R8, R13
	MOVQ BX, R12
	MOVQ ARG_WIDTH(AX), CX

cellLoop:
	// Scores of the sixteen lanes' subject residues: two PSHUFB
	// lookups, the index bias choosing which half of the row answers
	// (a control byte with bit 7 set yields 0), widened to int16.
	VMOVDQU (R12), X0
	VPADDB X13, X0, X1
	VPSUBB X12, X0, X0
	VPSHUFB X1, X10, X1
	VPSHUFB X0, X11, X0
	VPOR X1, X0, X0
	VPMOVSXBW X0, Y0

	// E: the vertical predecessor is the next cell of the row above.
	VMOVDQU CELL(R13), Y1
	VPSUBUSW Y15, Y1, Y1
	VMOVDQU CELL+32(R13), Y2
	VPSUBUSW Y14, Y2, Y2
	VPMAXSW Y2, Y1, Y1

	// H: the diagonal predecessor is the same cell of the row above,
	// the horizontal one (F) the previous cell of this row.
	VPADDSW (R13), Y0, Y0
	VPMAXSW Y1, Y0, Y0
	VPMAXSW Y4, Y0, Y0
	VMOVDQU Y0, (R11)
	VMOVDQU Y1, 32(R11)
	VMOVDQU Y4, 64(R11)
	VPMAXSW Y0, Y5, Y5

	// F of the next cell.
	VPSUBUSW Y15, Y0, Y0
	VPSUBUSW Y14, Y4, Y4
	VPMAXSW Y0, Y4, Y4

	ADDQ $CELL, R11
	ADDQ $CELL, R13
	ADDQ $16, R12
	DECQ CX
	JNZ  cellLoop

	// The cell after the last, in H and E: read by the next row's
	// vertical predecessor of its last cell.
	VMOVDQU Y3, (R11)
	VMOVDQU Y3, 32(R11)

	// Lanes whose row maximum beats their maximum so far record this
	// row as the first to reach it.
	VPCMPGTW Y9, Y5, Y0
	VPMAXSW Y5, Y9, Y9
	VPBLENDVB Y0, Y7, Y8, Y8
	VPSUBW Y6, Y7, Y7

	INCQ SI
	ADDQ $16, BX
	ADDQ R8, DI
	DECQ R10
	JNZ  rowLoop

	VMOVDQU Y9, ARG_BEST(AX)
	VMOVDQU Y8, ARG_ROW(AX)
	VZEROUPPER
	RET
