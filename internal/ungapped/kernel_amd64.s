// Architecture-specific fast paths for the blocked step-2 kernel.
// Both scanners keep one int16 lane per IL1 window and compute the
// exact zero-clamped running sum (Kadane) via saturating adds and
// maxima: PADDSW never saturates inside the blockedMaxWindowScore
// bound, PMAXSW against zero implements the clamp, and PMAXSW into
// the best register tracks the running maximum. Unlike the portable
// SWAR kernel the lanes hold the exact align.WindowScore value, so
// the caller reads exact scores from best and needs no rescore pass.
//
//   - scanGroup16SSSE3: 16 windows per group. Subject windows are
//     transposed 8 positions at a time into position-major rows with
//     a PUNPCK network, then each position's 16 scores come from two
//     PSHUFB lookups into the 32-byte btab row (low/high half of the
//     residue range selected by biasing the index bytes), replacing
//     the scalar gather chains entirely. Needs SSSE3 (PSHUFB).
//   - scanGroup8SSE: 8 windows per group, scores gathered byte by
//     byte with PINSRW chains. SSE2 only, the amd64 baseline — the
//     fallback on pre-SSSE3 CPUs.

#include "textflag.h"

// func scanGroup16SSSE3(btab *uint8, w0 *byte, win *byte, subLen int, best *[16]int16)
//
// btab: 32×256-byte biased score table (score+128 as uint8)
// w0:   query window, subLen residues
// win:  first of 16 consecutive subject windows, each subLen bytes
// best: out: per-window maximum zero-clamped running sum
//
// Register plan: AX=btab, BX=w0 (advances), CX=subLen (also the
// addressing scale), SI/DI/R8/R9/R10/R11 = six advancing base
// pointers covering the 16 window streams with {0, CX, 2·CX} scaled
// addressing (rows 0-2, 3-5, 6-8, 9-11, 12-14, 15), DX = loop
// counter, R12/R13 = temps, R15 = transposed-tile buffer.
//
// XMM plan: X0/X8 = running scores (windows 0-7 / 8-15), X5/X9 =
// best so far, X12 = zero, X13 = +128 word bias, X11 = 0x10 bytes,
// X10 = 0x70 bytes (rebuilt per tile; the transpose uses it as a
// temp), X1-X4/X6/X7/X14/X15 = transpose working set.
TEXT ·scanGroup16SSSE3(SB), NOSPLIT, $136-40
	MOVQ btab+0(FP), AX
	MOVQ w0+8(FP), BX
	MOVQ win+16(FP), SI
	MOVQ subLen+24(FP), CX

	LEAQ (SI)(CX*2), DI
	ADDQ CX, DI         // DI  = win +  3·subLen
	LEAQ (DI)(CX*2), R8
	ADDQ CX, R8         // R8  = win +  6·subLen
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9         // R9  = win +  9·subLen
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10        // R10 = win + 12·subLen
	LEAQ (R10)(CX*2), R11
	ADDQ CX, R11        // R11 = win + 15·subLen

	PXOR X0, X0
	PXOR X5, X5
	PXOR X8, X8
	PXOR X9, X9
	PXOR X12, X12
	MOVQ $0x0080008000800080, R12
	MOVQ R12, X13
	PUNPCKLQDQ X13, X13
	MOVQ $0x1010101010101010, R12
	MOVQ R12, X11
	PUNPCKLQDQ X11, X11
	MOVQ $0x7070707070707070, R12
	MOVQ R12, X10
	PUNPCKLQDQ X10, X10

	LEAQ tile-136(SP), R15

	MOVQ CX, DX
	SHRQ $3, DX
	JZ   tail           // subLen < 8: tail positions only
	MOVQ DX, cnt-8(SP)

tileLoop:
	// Transpose 16 windows × 8 positions into 8 position-major rows
	// of 16 residue bytes (row p, byte x = window x, position p).
	// Stage 1: byte-interleave window pairs (8 MOVQ-loaded pairs).
	MOVQ (SI), X1
	MOVQ (SI)(CX*1), X10
	PUNPCKLBW X10, X1   // w0,w1
	MOVQ (SI)(CX*2), X2
	MOVQ (DI), X10
	PUNPCKLBW X10, X2   // w2,w3
	MOVQ (DI)(CX*1), X3
	MOVQ (DI)(CX*2), X10
	PUNPCKLBW X10, X3   // w4,w5
	MOVQ (R8), X4
	MOVQ (R8)(CX*1), X10
	PUNPCKLBW X10, X4   // w6,w7
	MOVQ (R8)(CX*2), X6
	MOVQ (R9), X10
	PUNPCKLBW X10, X6   // w8,w9
	MOVQ (R9)(CX*1), X7
	MOVQ (R9)(CX*2), X10
	PUNPCKLBW X10, X7   // w10,w11
	MOVQ (R10), X14
	MOVQ (R10)(CX*1), X10
	PUNPCKLBW X10, X14  // w12,w13
	MOVQ (R10)(CX*2), X15
	MOVQ (R11), X10
	PUNPCKLBW X10, X15  // w14,w15

	// Stage 2: word-interleave → dwords of 4 windows per position.
	MOVOU X1, X10
	PUNPCKLWL X2, X1    // X1  = pos0-3 × win0-3
	PUNPCKHWL X2, X10   // X10 = pos4-7 × win0-3
	MOVOU X3, X2
	PUNPCKLWL X4, X3    // X3  = pos0-3 × win4-7
	PUNPCKHWL X4, X2    // X2  = pos4-7 × win4-7
	MOVOU X6, X4
	PUNPCKLWL X7, X6    // X6  = pos0-3 × win8-11
	PUNPCKHWL X7, X4    // X4  = pos4-7 × win8-11
	MOVOU X14, X7
	PUNPCKLWL X15, X14  // X14 = pos0-3 × win12-15
	PUNPCKHWL X15, X7   // X7  = pos4-7 × win12-15

	// Stage 3: dword-interleave → qwords of 8 windows per position.
	MOVOU X1, X15
	PUNPCKLLQ X3, X1    // X1  = pos0-1 × win0-7
	PUNPCKHLQ X3, X15   // X15 = pos2-3 × win0-7
	MOVOU X10, X3
	PUNPCKLLQ X2, X10   // X10 = pos4-5 × win0-7
	PUNPCKHLQ X2, X3    // X3  = pos6-7 × win0-7
	MOVOU X6, X2
	PUNPCKLLQ X14, X6   // X6  = pos0-1 × win8-15
	PUNPCKHLQ X14, X2   // X2  = pos2-3 × win8-15
	MOVOU X4, X14
	PUNPCKLLQ X7, X4    // X4  = pos4-5 × win8-15
	PUNPCKHLQ X7, X14   // X14 = pos6-7 × win8-15

	// Stage 4: qword-interleave → full 16-window rows, spilled to the
	// tile buffer (registers cannot hold 8 rows plus the scan state).
	MOVOU X1, X7
	PUNPCKLQDQ X6, X1   // pos0
	PUNPCKHQDQ X6, X7   // pos1
	MOVOU X1, (R15)
	MOVOU X7, 16(R15)
	MOVOU X15, X6
	PUNPCKLQDQ X2, X15  // pos2
	PUNPCKHQDQ X2, X6   // pos3
	MOVOU X15, 32(R15)
	MOVOU X6, 48(R15)
	MOVOU X10, X2
	PUNPCKLQDQ X4, X10  // pos4
	PUNPCKHQDQ X4, X2   // pos5
	MOVOU X10, 64(R15)
	MOVOU X2, 80(R15)
	MOVOU X3, X4
	PUNPCKLQDQ X14, X3  // pos6
	PUNPCKHQDQ X14, X4  // pos7
	MOVOU X3, 96(R15)
	MOVOU X4, 112(R15)

	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11

	// The transpose used X10 as a temp; rebuild the 0x70 byte bias.
	MOVQ $0x7070707070707070, R12
	MOVQ R12, X10
	PUNPCKLQDQ X10, X10

	MOVQ R15, R13
	MOVQ $8, DX

posLoop:
	// Biased score row for this query residue; the row's 32 leading
	// bytes are the scores for subject residues 0-31.
	MOVBLZX (BX), R12
	INCQ    BX
	ANDL    $31, R12
	SHLL    $8, R12
	ADDQ    AX, R12
	MOVOU   (R12), X6   // row bytes  0-15
	MOVOU   16(R12), X7 // row bytes 16-31

	// 16 subject residues at this position, one per byte lane. Each
	// PSHUFB control byte with bit 7 set yields 0, so biasing the
	// index selects which half answers: idx+0x70 keeps residues 0-15
	// (bit 7 sets exactly when idx ≥ 16), idx−0x10 keeps 16-31.
	MOVOU (R13), X1
	ADDQ  $16, R13
	MOVOU X1, X2
	PADDB X10, X1
	PSUBB X11, X2
	PSHUFB X1, X6
	PSHUFB X2, X7
	POR   X7, X6        // 16 biased scores, one byte per window

	// Widen to the two int16 lane sets, drop the bias, and run the
	// exact clamped-sum recurrence per half.
	MOVOU     X6, X7
	PUNPCKLBW X12, X6   // windows 0-7
	PUNPCKHBW X12, X7   // windows 8-15
	PSUBW  X13, X6
	PSUBW  X13, X7
	PADDSW X6, X0
	PADDSW X7, X8
	PMAXSW X12, X0
	PMAXSW X12, X8
	PMAXSW X0, X5
	PMAXSW X8, X9

	DECQ DX
	JNZ  posLoop

	DECQ cnt-8(SP)
	JNZ  tileLoop

tail:
	MOVQ CX, DX
	ANDQ $7, DX
	JZ   done
	CMPQ DX, $4
	JLT  tailScalar

	// Four or more positions left: run one half-height tile (16
	// windows × 4 positions, MOVL loads feeding the same PUNPCK
	// network) so the common subLen ≡ 4 (mod 8) shapes never touch
	// the byte-by-byte gather path below.
	MOVQ DX, cnt-8(SP)

	MOVL (SI), X1
	MOVL (SI)(CX*1), X10
	PUNPCKLBW X10, X1   // w0,w1
	MOVL (SI)(CX*2), X2
	MOVL (DI), X10
	PUNPCKLBW X10, X2   // w2,w3
	MOVL (DI)(CX*1), X3
	MOVL (DI)(CX*2), X10
	PUNPCKLBW X10, X3   // w4,w5
	MOVL (R8), X4
	MOVL (R8)(CX*1), X10
	PUNPCKLBW X10, X4   // w6,w7
	MOVL (R8)(CX*2), X6
	MOVL (R9), X10
	PUNPCKLBW X10, X6   // w8,w9
	MOVL (R9)(CX*1), X7
	MOVL (R9)(CX*2), X10
	PUNPCKLBW X10, X7   // w10,w11
	MOVL (R10), X14
	MOVL (R10)(CX*1), X10
	PUNPCKLBW X10, X14  // w12,w13
	MOVL (R10)(CX*2), X15
	MOVL (R11), X10
	PUNPCKLBW X10, X15  // w14,w15

	PUNPCKLWL X2, X1    // X1  = pos0-3 × win0-3
	PUNPCKLWL X4, X3    // X3  = pos0-3 × win4-7
	PUNPCKLWL X7, X6    // X6  = pos0-3 × win8-11
	PUNPCKLWL X15, X14  // X14 = pos0-3 × win12-15

	MOVOU X1, X2
	PUNPCKLLQ X3, X1    // X1 = pos0-1 × win0-7
	PUNPCKHLQ X3, X2    // X2 = pos2-3 × win0-7
	MOVOU X6, X7
	PUNPCKLLQ X14, X6   // X6 = pos0-1 × win8-15
	PUNPCKHLQ X14, X7   // X7 = pos2-3 × win8-15

	MOVOU X1, X3
	PUNPCKLQDQ X6, X1   // pos0
	PUNPCKHQDQ X6, X3   // pos1
	MOVOU X1, (R15)
	MOVOU X3, 16(R15)
	MOVOU X2, X3
	PUNPCKLQDQ X7, X2   // pos2
	PUNPCKHQDQ X7, X3   // pos3
	MOVOU X2, 32(R15)
	MOVOU X3, 48(R15)

	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11

	MOVQ $0x7070707070707070, R12
	MOVQ R12, X10
	PUNPCKLQDQ X10, X10

	MOVQ R15, R13
	MOVQ $4, DX

pos4Loop:
	// Same per-position body as posLoop, over the 4 tile rows.
	MOVBLZX (BX), R12
	INCQ    BX
	ANDL    $31, R12
	SHLL    $8, R12
	ADDQ    AX, R12
	MOVOU   (R12), X6
	MOVOU   16(R12), X7

	MOVOU (R13), X1
	ADDQ  $16, R13
	MOVOU X1, X2
	PADDB X10, X1
	PSUBB X11, X2
	PSHUFB X1, X6
	PSHUFB X2, X7
	POR   X7, X6

	MOVOU     X6, X7
	PUNPCKLBW X12, X6
	PUNPCKHBW X12, X7
	PSUBW  X13, X6
	PSUBW  X13, X7
	PADDSW X6, X0
	PADDSW X7, X8
	PMAXSW X12, X0
	PMAXSW X12, X8
	PMAXSW X0, X5
	PMAXSW X8, X9

	DECQ DX
	JNZ  pos4Loop

	MOVQ cnt-8(SP), DX
	SUBQ $4, DX
	JZ   done

tailScalar:
	// Remaining subLen%4 positions: gather scores byte by byte into
	// word lanes, as in scanGroup8SSE, once per 8-window half.

tailLoop:
	MOVBLZX (BX), R13
	INCQ    BX
	ANDL    $31, R13
	SHLL    $8, R13
	ADDQ    AX, R13

	// Windows 0-7 into X1.
	MOVBLZX (SI), R12
	MOVBLZX (R13)(R12*1), R12
	MOVQ    R12, X1
	MOVBLZX (SI)(CX*1), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $1, R12, X1
	MOVBLZX (SI)(CX*2), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $2, R12, X1
	MOVBLZX (DI), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $3, R12, X1
	MOVBLZX (DI)(CX*1), R12
	MOVBLZX (R13)(R12*1), R12
	MOVQ    R12, X2
	MOVBLZX (DI)(CX*2), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $1, R12, X2
	MOVBLZX (R8), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $2, R12, X2
	MOVBLZX (R8)(CX*1), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $3, R12, X2
	PUNPCKLQDQ X2, X1
	PSUBW  X13, X1
	PADDSW X1, X0
	PMAXSW X12, X0
	PMAXSW X0, X5

	// Windows 8-15 into X1.
	MOVBLZX (R8)(CX*2), R12
	MOVBLZX (R13)(R12*1), R12
	MOVQ    R12, X1
	MOVBLZX (R9), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $1, R12, X1
	MOVBLZX (R9)(CX*1), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $2, R12, X1
	MOVBLZX (R9)(CX*2), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $3, R12, X1
	MOVBLZX (R10), R12
	MOVBLZX (R13)(R12*1), R12
	MOVQ    R12, X2
	MOVBLZX (R10)(CX*1), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $1, R12, X2
	MOVBLZX (R10)(CX*2), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $2, R12, X2
	MOVBLZX (R11), R12
	MOVBLZX (R13)(R12*1), R12
	PINSRW  $3, R12, X2
	PUNPCKLQDQ X2, X1
	PSUBW  X13, X1
	PADDSW X1, X8
	PMAXSW X12, X8
	PMAXSW X8, X9

	INCQ SI
	INCQ DI
	INCQ R8
	INCQ R9
	INCQ R10
	INCQ R11

	DECQ DX
	JNZ  tailLoop

done:
	MOVQ  best+32(FP), R12
	MOVOU X5, (R12)
	MOVOU X9, 16(R12)
	RET

// func scanGroup8SSE(btab *uint8, w0 *byte, win *byte, subLen int, best *[8]int16)
//
// btab: 32×256-byte biased score table (score+128 as uint8)
// w0:   query window, subLen residues
// win:  first of 8 consecutive subject windows, each subLen bytes
// best: out: per-window maximum zero-clamped running sum
TEXT ·scanGroup8SSE(SB), NOSPLIT, $0-40
	MOVQ btab+0(FP), AX
	MOVQ w0+8(FP), BX
	MOVQ win+16(FP), SI
	MOVQ subLen+24(FP), CX

	// Three advancing base pointers cover the 8 window streams with
	// {0, CX, 2·CX} scaled addressing: SI → windows 0-2, DI → 3-5,
	// R8 → 6-7.
	LEAQ (SI)(CX*2), DI
	ADDQ CX, DI
	LEAQ (DI)(CX*2), R8
	ADDQ CX, R8

	// X0 = running scores (zero-clamped), X5 = best so far, X4 = 0,
	// X3 = the +128 byte bias replicated across lanes.
	PXOR X0, X0
	PXOR X4, X4
	PXOR X5, X5
	MOVQ $0x0080008000800080, R11
	MOVQ R11, X3
	PUNPCKLQDQ X3, X3

	MOVQ CX, R9 // remaining positions

loop:
	// Biased score row for this query residue.
	MOVBLZX (BX), R10
	INCQ    BX
	ANDL    $31, R10
	SHLL    $8, R10
	ADDQ    AX, R10

	// Gather the 8 subject scores of this position: lanes 0-3 built
	// in X1, lanes 4-7 in X2, merged with one unpack. The first write
	// of each half is a full-register MOVQ so neither half carries a
	// false dependency on the previous iteration's value, and the two
	// halves' insert chains run in parallel.
	MOVBLZX (SI), R11
	MOVBLZX (R10)(R11*1), R11
	MOVQ    R11, X1
	MOVBLZX (SI)(CX*1), R12
	MOVBLZX (R10)(R12*1), R12
	PINSRW  $1, R12, X1
	MOVBLZX (SI)(CX*2), R11
	MOVBLZX (R10)(R11*1), R11
	PINSRW  $2, R11, X1
	MOVBLZX (DI), R12
	MOVBLZX (R10)(R12*1), R12
	PINSRW  $3, R12, X1
	MOVBLZX (DI)(CX*1), R11
	MOVBLZX (R10)(R11*1), R11
	MOVQ    R11, X2
	MOVBLZX (DI)(CX*2), R12
	MOVBLZX (R10)(R12*1), R12
	PINSRW  $1, R12, X2
	MOVBLZX (R8), R11
	MOVBLZX (R10)(R11*1), R11
	PINSRW  $2, R11, X2
	MOVBLZX (R8)(CX*1), R12
	MOVBLZX (R10)(R12*1), R12
	PINSRW  $3, R12, X2
	PUNPCKLQDQ X2, X1
	INCQ    SI
	INCQ    DI
	INCQ    R8

	// s = max(s + p, 0); best = max(best, s). The +128 byte bias is
	// removed on the gather register, keeping the loop-carried chain
	// through X0 at two instructions (PADDSW, PMAXSW) per position.
	PSUBW  X3, X1
	PADDSW X1, X0
	PMAXSW X4, X0
	PMAXSW X0, X5

	DECQ R9
	JNZ  loop

	MOVQ  best+32(FP), R10
	MOVOU X5, (R10)
	RET
