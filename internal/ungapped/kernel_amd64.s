// The blocked step-2 kernel's group scanner. It keeps one int16 lane
// per IL1 window and computes the exact zero-clamped running sum
// (Kadane) via saturating adds and maxima: VPADDSW never saturates
// inside the blockedMaxWindowScore bound, VPMAXSW against zero
// implements the clamp, and VPMAXSW into the best registers tracks the
// running maximum. The lanes hold the exact align.WindowScore value.
//
// scanGroup32AVX2 scores 32 windows per call as two 16-window tiles,
// tile A (windows 0-15) in the low 128-bit half of every YMM register
// and tile B (windows 16-31) in the high half. Because the unpack
// instructions work within halves, one PUNPCK network transposes both
// tiles at once into 32-byte position-major rows. Each row's 32 scores
// come from two VPSHUFB lookups into the query residue's 32-byte
// signed score row (one per 16-byte half of the row, chosen by bit 4 of
// the subject residue), widened to int16 with VPMOVSXBW.
//
// Every instruction is VEX-encoded: a legacy-SSE instruction after a
// VEX.256 one pays an upper-state transition on many cores; one legacy
// MOVQ here made a call 2.1 times slower. TestKernelsVEXOnly guards it.

#include "textflag.h"

// WINDOWS loads the same positions of tile A's windows 2k and 2k+1
// (R8) and tile B's windows 16+2k and 17+2k (R9) with the broadcast
// BCAST, merges A into the low half and B into the high half, and
// byte-interleaves each pair into P (T and U are clobbered). R8 and R9
// step two windows on.
#define WINDOWS(BCAST, P, T, U) \
	BCAST (R8), P; \
	BCAST (R9), U; \
	VPBLENDD $0xF0, U, P, P; \
	BCAST (R8)(CX*1), T; \
	BCAST (R9)(CX*1), U; \
	VPBLENDD $0xF0, U, T, T; \
	VPUNPCKLBW T, P, P; \
	LEAQ (R8)(CX*2), R8; \
	LEAQ (R9)(CX*2), R9

#define TILE(BCAST) \
	WINDOWS(BCAST, Y1, Y13, Y15); \
	WINDOWS(BCAST, Y2, Y13, Y15); \
	WINDOWS(BCAST, Y3, Y13, Y15); \
	WINDOWS(BCAST, Y4, Y13, Y15); \
	WINDOWS(BCAST, Y6, Y13, Y15); \
	WINDOWS(BCAST, Y7, Y13, Y15); \
	WINDOWS(BCAST, Y10, Y13, Y15); \
	WINDOWS(BCAST, Y11, Y13, Y15)

// func scanGroup32AVX2(tab *[1024]int8, w0 *byte, win *byte, subLen int, cut int, best *[32]int16) uint32
//
// tab:  32×32 signed score table, row = query residue code
// w0:   query window, subLen residues
// win:  first of 32 consecutive subject windows, each subLen bytes
// cut:  threshold − 1, within int16
// best: out: per-window maximum zero-clamped running sum
// ret:  bit x set when window x's score exceeds cut
//
// Register plan: AX = tab, BX = w0 (advances), CX = subLen, SI / DI =
// windows 0 / 16 at the current position, R8 / R9 = the same walking
// over a tile's windows, DX = positions left, R10 = rows in the current
// tile, R11 = temp, R13 = current tile row, R15 = 32-byte aligned tile
// buffer (eight rows of 32 bytes).
//
// YMM plan: Y0 / Y8 = running sums of windows 0-15 / 16-31, Y5 / Y9 =
// their maxima, Y12 = zero, Y6 / Y7 = the query residue's score row
// halves, Y1-Y4, Y6, Y7, Y10, Y11, Y13-Y15 = transpose working set.
TEXT ·scanGroup32AVX2(SB), NOSPLIT, $288-52
	MOVQ tab+0(FP), AX
	MOVQ w0+8(FP), BX
	MOVQ win+16(FP), SI
	MOVQ subLen+24(FP), CX
	MOVQ CX, DI
	SHLQ $4, DI
	ADDQ SI, DI
	MOVQ CX, DX

	LEAQ tile-288(SP), R15
	ADDQ $31, R15
	ANDQ $~31, R15

	VPXOR Y0, Y0, Y0
	VPXOR Y5, Y5, Y5
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y12, Y12, Y12

tileLoop:
	// Transpose the next 8, 4 or 1 positions of all 32 windows: qword,
	// dword or byte loads feed the same network, and only the rows that
	// hold real positions are scanned.
	MOVQ SI, R8
	MOVQ DI, R9
	CMPQ DX, $8
	JLT  part
	TILE(VPBROADCASTQ)
	MOVQ $8, R10
	JMP  network

part:
	CMPQ DX, $4
	JLT  single
	TILE(VPBROADCASTD)
	MOVQ $4, R10
	JMP  network

single:
	TILE(VPBROADCASTB)
	MOVQ $1, R10

network:
	// Word interleave: dwords of 4 windows per position.
	VPUNPCKHWD Y2, Y1, Y13   // pos4-7 × w0-3
	VPUNPCKLWD Y2, Y1, Y1    // pos0-3 × w0-3
	VPUNPCKHWD Y4, Y3, Y2    // pos4-7 × w4-7
	VPUNPCKLWD Y4, Y3, Y3    // pos0-3 × w4-7
	VPUNPCKHWD Y7, Y6, Y4    // pos4-7 × w8-11
	VPUNPCKLWD Y7, Y6, Y6    // pos0-3 × w8-11
	VPUNPCKHWD Y11, Y10, Y7  // pos4-7 × w12-15
	VPUNPCKLWD Y11, Y10, Y10 // pos0-3 × w12-15

	// Dword interleave: qwords of 8 windows per position.
	VPUNPCKHDQ Y3, Y1, Y11   // pos2-3 × w0-7
	VPUNPCKLDQ Y3, Y1, Y1    // pos0-1 × w0-7
	VPUNPCKHDQ Y10, Y6, Y3   // pos2-3 × w8-15
	VPUNPCKLDQ Y10, Y6, Y6   // pos0-1 × w8-15
	VPUNPCKHDQ Y2, Y13, Y10  // pos6-7 × w0-7
	VPUNPCKLDQ Y2, Y13, Y13  // pos4-5 × w0-7
	VPUNPCKHDQ Y7, Y4, Y2    // pos6-7 × w8-15
	VPUNPCKLDQ Y7, Y4, Y4    // pos4-5 × w8-15

	// Qword interleave: one row of 16 windows per half and position,
	// spilled to the tile buffer (registers cannot hold 8 rows plus the
	// scan state). Rows are stored and read back 32 bytes wide.
	VPUNPCKLQDQ Y6, Y1, Y7
	VMOVDQU     Y7, (R15)
	VPUNPCKHQDQ Y6, Y1, Y14
	VMOVDQU     Y14, 32(R15)
	VPUNPCKLQDQ Y3, Y11, Y7
	VMOVDQU     Y7, 64(R15)
	VPUNPCKHQDQ Y3, Y11, Y14
	VMOVDQU     Y14, 96(R15)
	VPUNPCKLQDQ Y4, Y13, Y7
	VMOVDQU     Y7, 128(R15)
	VPUNPCKHQDQ Y4, Y13, Y14
	VMOVDQU     Y14, 160(R15)
	VPUNPCKLQDQ Y2, Y10, Y7
	VMOVDQU     Y7, 192(R15)
	VPUNPCKHQDQ Y2, Y10, Y14
	VMOVDQU     Y14, 224(R15)

	ADDQ R10, SI
	ADDQ R10, DI
	SUBQ R10, DX
	MOVQ R15, R13

posLoop:
	// The query residue's score row, each 16-byte half broadcast to
	// both halves of a register.
	MOVBLZX        (BX), R11
	INCQ           BX
	ANDL           $31, R11
	SHLL           $5, R11
	VBROADCASTI128 (AX)(R11*1), Y6
	VBROADCASTI128 16(AX)(R11*1), Y7

	// 32 subject residues, one per byte. VPSHUFB reads the low four
	// bits of each, so both halves of the row answer; bit 4 of the
	// residue, shifted up to bit 7, picks the half.
	VMOVDQU   (R13), Y1
	ADDQ      $32, R13
	VPSLLW    $3, Y1, Y2
	VPSHUFB   Y1, Y6, Y6
	VPSHUFB   Y1, Y7, Y7
	VPBLENDVB Y2, Y7, Y6, Y1

	// Widen to int16 per tile and run the exact clamped-sum recurrence.
	VPMOVSXBW    X1, Y2
	VEXTRACTI128 $1, Y1, X1
	VPMOVSXBW    X1, Y1
	VPADDSW      Y2, Y0, Y0
	VPADDSW      Y1, Y8, Y8
	VPMAXSW      Y12, Y0, Y0
	VPMAXSW      Y12, Y8, Y8
	VPMAXSW      Y0, Y5, Y5
	VPMAXSW      Y8, Y9, Y9

	DECQ R10
	JNZ  posLoop
	TESTQ DX, DX
	JNZ  tileLoop

	MOVQ    best+40(FP), R11
	VMOVDQU Y5, (R11)
	VMOVDQU Y9, 32(R11)

	// Pass mask: compare with cut, pack the two word masks to bytes
	// (the pack interleaves them per half, VPERMQ restores window
	// order) and take the byte sign bits.
	MOVQ         cut+32(FP), R11
	VMOVQ        R11, X1
	VPBROADCASTW X1, Y1
	VPCMPGTW     Y1, Y5, Y5
	VPCMPGTW     Y1, Y9, Y9
	VPACKSSWB    Y9, Y5, Y5
	VPERMQ       $0xD8, Y5, Y5
	VPMOVMSKB    Y5, AX
	MOVL         AX, ret+48(FP)
	VZEROUPPER
	RET
