#include "textflag.h"

// The banded rows of banded.go, scoreRow and traceRow, eight int32 cells
// to a YMM register: the same arithmetic, scratch and sentinels, so the
// rows they write and the bests they return are the Go rows', cell for
// cell and byte for byte. A row runs in blocks of eight cells, then one
// masked block for the rest.
//
// Within a block every term but F is a lane-wise operation on the row
// above. F, the only loop-carried term, is max(F(x−1) − ext, he(x−1) −
// openExt, 0) (scoreRow's comment derives it), so in lane k of a block
//
//	F(k) = max(carry − k·ext, max over j < k of g(j) − (k−1−j)·ext, 0)
//
// with g = he − openExt and carry the F of the block's first cell. With
// u(j) = g(j) − (7−j)·ext, the inner maximum is the prefix maximum P of
// u one lane up, plus (8−k)·ext, and carry − k·ext is (carry − 8·ext) +
// (8−k)·ext: so F is max(P one lane up, carry − 8·ext) + (8−k)·ext, at
// least 0. P takes three shift-and-max steps, each shift repeating lane
// 0, which a maximum ignores. The next block's carry is max(P(7), carry −
// 8·ext, 0): two maxima and a subtraction on the loop-carried chain. No
// term wraps while openExt + 8·ext < 2³¹, which holds for every ext below
// maxVectorExt (2²⁷) under the rows' own bound, openExt < 2³⁰.
//
// The substitution scores are one VPERMD of sub's first eight entries
// when every subject byte of the block is below 8, and a gather of sub's
// entries otherwise.
//
// Registers: DI hOut, SI hUp, R8 eOut, R9 eUp, R10 dOut, BX bs, CX its
// length, DX sub, AX the block's first cell, R11 the block's subject
// bytes, R12 0xf8 in every byte, R13 the end of the whole blocks. Y15
// openExt, Y14 ext, Y13 zero, Y12 carry − 8·ext, Y11 the row best, Y10
// and Y9 the indices that move lanes one and two up, Y8 the index of lane
// 7 (in the last block, the mask of its cells), Y7 −openExt − (7−k)·ext
// and Y6 (8−k)·ext in lane k, Y5 (traceRow) the F-extend bits of the last
// block; Y0–Y4 hold a block. The frame holds 8·ext at 0(SP) and a spill
// slot at 32(SP).

DATA rowIota<>+0(SB)/4, $0
DATA rowIota<>+4(SB)/4, $1
DATA rowIota<>+8(SB)/4, $2
DATA rowIota<>+12(SB)/4, $3
DATA rowIota<>+16(SB)/4, $4
DATA rowIota<>+20(SB)/4, $5
DATA rowIota<>+24(SB)/4, $6
DATA rowIota<>+28(SB)/4, $7
GLOBL rowIota<>(SB), RODATA|NOPTR, $32

DATA rowUp1<>+0(SB)/4, $0
DATA rowUp1<>+4(SB)/4, $0
DATA rowUp1<>+8(SB)/4, $1
DATA rowUp1<>+12(SB)/4, $2
DATA rowUp1<>+16(SB)/4, $3
DATA rowUp1<>+20(SB)/4, $4
DATA rowUp1<>+24(SB)/4, $5
DATA rowUp1<>+28(SB)/4, $6
GLOBL rowUp1<>(SB), RODATA|NOPTR, $32

DATA rowUp2<>+0(SB)/4, $0
DATA rowUp2<>+4(SB)/4, $0
DATA rowUp2<>+8(SB)/4, $0
DATA rowUp2<>+12(SB)/4, $1
DATA rowUp2<>+16(SB)/4, $2
DATA rowUp2<>+20(SB)/4, $3
DATA rowUp2<>+24(SB)/4, $4
DATA rowUp2<>+28(SB)/4, $5
GLOBL rowUp2<>(SB), RODATA|NOPTR, $32

DATA rowLane7<>+0(SB)/8, $0x0000000700000007
DATA rowLane7<>+8(SB)/8, $0x0000000700000007
DATA rowLane7<>+16(SB)/8, $0x0000000700000007
DATA rowLane7<>+24(SB)/8, $0x0000000700000007
GLOBL rowLane7<>(SB), RODATA|NOPTR, $32

DATA rowOne<>+0(SB)/8, $0x0000000100000001
DATA rowOne<>+8(SB)/8, $0x0000000100000001
DATA rowOne<>+16(SB)/8, $0x0000000100000001
DATA rowOne<>+24(SB)/8, $0x0000000100000001
GLOBL rowOne<>(SB), RODATA|NOPTR, $32

// SETUP broadcasts openExt (R12) and ext (R11) and builds the
// constants, zeroes the row best and sets the carry from left (R13) to
// the first cell's F, max(left − openExt, 0). It leaves left − openExt in
// R13.
#define SETUP \
	VMOVD        R12, X15; \
	VPBROADCASTD X15, Y15; \
	VMOVD        R11, X14; \
	VPBROADCASTD X14, Y14; \
	VPXOR        Y13, Y13, Y13; \
	VPXOR        Y11, Y11, Y11; \
	VMOVDQU      rowUp1<>(SB), Y10; \
	VMOVDQU      rowUp2<>(SB), Y9; \
	VMOVDQU      rowLane7<>(SB), Y8; \
	VPSLLD       $3, Y14, Y0; \
	VMOVDQU      Y0, 0(SP); \
	VPMULLD      rowIota<>(SB), Y14, Y7; \
	VPSUBD       Y7, Y0, Y6; \
	VPSUBD       Y15, Y14, Y7; \
	VPSUBD       Y6, Y7, Y7; \
	SUBL         R12, R13; \
	VMOVD        R13, X12; \
	VPBROADCASTD X12, Y12; \
	VPMAXSD      Y13, Y12, Y12; \
	VPSUBD       Y0, Y12, Y12; \
	MOVQ         $0xf8f8f8f8f8f8f8f8, R12

// LOAD_FULL loads a block: Y0 hUp, Y1 eUp, Y2 hOut (the diagonal), Y3
// and R11 the subject bytes, as dwords and as bytes.
#define LOAD_FULL \
	VMOVDQU   (SI)(AX*4), Y0; \
	VMOVDQU   (R9)(AX*4), Y1; \
	VMOVDQU   (DI)(AX*4), Y2; \
	MOVQ      (BX)(AX*1), R11; \
	VPMOVZXBD (BX)(AX*1), Y3

// LOAD_TAIL sets Y8 to all ones in the lanes below CX − AX and loads
// those cells as LOAD_FULL does, zeros elsewhere, reading the subject
// bytes one at a time from the end.
#define LOAD_TAIL \
	MOVQ         CX, R13; \
	SUBQ         AX, R13; \
	VMOVD        R13, X8; \
	VPBROADCASTD X8, Y8; \
	VPCMPGTD     rowIota<>(SB), Y8, Y8; \
	VPMASKMOVD   (SI)(AX*4), Y8, Y0; \
	VPMASKMOVD   (R9)(AX*4), Y8, Y1; \
	VPMASKMOVD   (DI)(AX*4), Y8, Y2; \
	XORQ         R11, R11; \
	LEAQ         -1(CX), R13; \
tailbyte: \
	SHLQ         $8, R11; \
	MOVBQZX      (BX)(R13*1), R12; \
	ORQ          R12, R11; \
	DECQ         R13; \
	CMPQ         R13, AX; \
	JGE          tailbyte; \
	MOVQ         $0xf8f8f8f8f8f8f8f8, R12; \
	VMOVQ        R11, X3; \
	VPMOVZXBD    X3, Y3

// SUBST adds the substitution scores to the diagonal: Y2 = hd. A block
// with a subject byte of 8 or more takes the gather at slow, which
// returns to back.
#define SUBST(slow, back) \
	TESTQ  R12, R11; \
	JNZ    slow; \
	VPERMD (DX), Y3, Y3; \
back: \
	VPADDD Y3, Y2, Y2

// GATHER is SUBST's slow path: Y3 = sub[Y3], with Y0 spilled around it.
#define GATHER(back) \
	VMOVDQU    Y0, 32(SP); \
	VPCMPEQD   Y4, Y4, Y4; \
	VPGATHERDD Y4, (DX)(Y3*4), Y0; \
	VMOVDQA    Y0, Y3; \
	VMOVDQU    32(SP), Y0; \
	JMP        back

// E_CELLS computes the cells' E gap terms: Y0 = eOpen = hUp − openExt,
// Y1 = eExt = eUp − ext.
#define E_CELLS \
	VPSUBD Y15, Y0, Y0; \
	VPSUBD Y14, Y1, Y1

// SCAN takes he in Y2 and leaves the cells' F in Y4 and the prefix
// maximum P in Y0.
#define SCAN \
	VPADDD     Y7, Y2, Y0; \
	VPERMD     Y0, Y10, Y4; \
	VPMAXSD    Y4, Y0, Y0; \
	VPERMD     Y0, Y9, Y4; \
	VPMAXSD    Y4, Y0, Y0; \
	VPERM2I128 $0x00, Y0, Y0, Y4; \
	VPMAXSD    Y4, Y0, Y0; \
	VPERMD     Y0, Y10, Y4; \
	VPBLENDD   $0x01, Y12, Y4, Y4; \
	VPMAXSD    Y12, Y4, Y4; \
	VPADDD     Y6, Y4, Y4; \
	VPMAXSD    Y13, Y4, Y4

// CARRY moves the carry on to the next block, max(P(7), carry − 8·ext,
// 0), less 8·ext. It takes Y0, P, as scratch.
#define CARRY \
	VPERMD  Y0, Y8, Y0; \
	VPMAXSD Y0, Y12, Y12; \
	VPMAXSD Y13, Y12, Y12; \
	VPSUBD  0(SP), Y12, Y12

// TAIL_BEST folds the last block's H (Y2) into the row best under the
// mask.
#define TAIL_BEST \
	VPAND   Y8, Y2, Y0; \
	VPMAXSD Y0, Y11, Y11

// FINISH_BEST reduces the row best to its largest lane, in reg.
#define FINISH_BEST(reg) \
	VEXTRACTI128 $1, Y11, X0; \
	VPMAXSD      X0, X11, X11; \
	VPSHUFD      $0x4e, X11, X0; \
	VPMAXSD      X0, X11, X11; \
	VPSHUFD      $0xb1, X11, X0; \
	VPMAXSD      X0, X11, X11; \
	VMOVD        X11, reg; \
	VZEROUPPER

// SCORE_E leaves a block's E in Y1 and hd in Y2.
#define SCORE_E(slow, back) \
	SUBST(slow, back); \
	E_CELLS; \
	VPMAXSD Y0, Y1, Y1; \
	VPMAXSD Y13, Y1, Y1

// SCORE_H leaves a block's H in Y2 and P in Y0.
#define SCORE_H \
	VPMAXSD Y1, Y2, Y2; \
	SCAN; \
	VPMAXSD Y4, Y2, Y2

// func scoreRowAVX2(hOut, hUp, eOut, eUp []int32, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32)
TEXT ·scoreRowAVX2(SB), NOSPLIT, $64-148
	MOVQ hOut_base+0(FP), DI
	MOVQ hUp_base+24(FP), SI
	MOVQ eOut_base+48(FP), R8
	MOVQ eUp_base+72(FP), R9
	MOVQ bs_base+96(FP), BX
	MOVQ bs_len+104(FP), CX
	MOVQ sub+120(FP), DX
	MOVL left+128(FP), R13
	MOVL openExt+132(FP), R12
	MOVL ext+136(FP), R11
	SETUP

	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-8, R13
	CMPQ AX, R13
	JAE  scoretail

scoreblock:
	LOAD_FULL
	SCORE_E(scoreslow, scoreback)
	VMOVDQU Y1, (R8)(AX*4)
	SCORE_H
	VMOVDQU Y2, (DI)(AX*4)
	VPMAXSD Y2, Y11, Y11
	CARRY
	ADDQ    $8, AX
	CMPQ    AX, R13
	JB      scoreblock

scoretail:
	CMPQ AX, CX
	JAE  scoredone
	LOAD_TAIL
	SCORE_E(scoretailslow, scoretailback)
	VPMASKMOVD Y1, Y8, (R8)(AX*4)
	SCORE_H
	VPMASKMOVD Y2, Y8, (DI)(AX*4)
	TAIL_BEST

scoredone:
	FINISH_BEST(AX)
	MOVL AX, best+144(FP)
	RET

scoreslow:
	GATHER(scoreback)

scoretailslow:
	GATHER(scoretailback)

// TRACE_E leaves a block's E in Y1, hd in Y2 and the E-extend bits,
// eExtend·signBit(eOpen − eExt), in Y3.
#define TRACE_E(slow, back) \
	SUBST(slow, back); \
	E_CELLS; \
	VPSUBD  Y1, Y0, Y3; \
	VPSRLD  $31, Y3, Y3; \
	VPSLLD  $2, Y3, Y3; \
	VPMAXSD Y0, Y1, Y1; \
	VPMAXSD Y13, Y1, Y1

// TRACE_F leaves a block's he in Y2, F in Y4, P in Y0, and the H-source
// bits from the diagonal, hFromDiag + signBit(hd − E), in Y1.
#define TRACE_F \
	VPSUBD  Y1, Y2, Y4; \
	VPMAXSD Y1, Y2, Y2; \
	VPSRLD  $31, Y4, Y1; \
	VPADDD  rowOne<>(SB), Y1, Y1; \
	SCAN

// TRACE_H leaves a block's H in Y2 and or-s hFromF·signBit(he − F) into
// the H-source bits. It takes Y0 as scratch.
#define TRACE_H \
	VPSUBD  Y4, Y2, Y0; \
	VPSRAD  $31, Y0, Y0; \
	VPSRLD  $30, Y0, Y0; \
	VPOR    Y0, Y1, Y1; \
	VPMAXSD Y4, Y2, Y2

// TRACE_DIR assembles the block's direction bytes in the low 8 bytes of
// X3: the H-source bits where H > 0, the E-extend bits, and the F-extend
// bits, signBit((H − openExt) − (F − ext)) of the cell to the left, which
// come one lane up from this block and, in lane 0, from the last block's
// (Y5). It takes Y0 as scratch.
#define TRACE_DIR \
	VPCMPGTD     Y13, Y2, Y0; \
	VPAND        Y0, Y1, Y1; \
	VPOR         Y1, Y3, Y3; \
	VPSUBD       Y15, Y2, Y2; \
	VPSUBD       Y14, Y4, Y4; \
	VPSUBD       Y4, Y2, Y2; \
	VPSRLD       $31, Y2, Y2; \
	VPSLLD       $3, Y2, Y2; \
	VPERM2I128   $0x21, Y2, Y5, Y0; \
	VPALIGNR     $12, Y0, Y2, Y0; \
	VPOR         Y0, Y3, Y3; \
	VMOVDQA      Y2, Y5; \
	VEXTRACTI128 $1, Y3, X0; \
	VPACKUSDW    X0, X3, X3; \
	VPACKUSWB    X3, X3, X3

// func traceRowAVX2(hOut, hUp, eOut, eUp []int32, dOut, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32)
TEXT ·traceRowAVX2(SB), NOSPLIT, $64-172
	MOVQ hOut_base+0(FP), DI
	MOVQ hUp_base+24(FP), SI
	MOVQ eOut_base+48(FP), R8
	MOVQ eUp_base+72(FP), R9
	MOVQ dOut_base+96(FP), R10
	MOVQ bs_base+120(FP), BX
	MOVQ bs_len+128(FP), CX
	MOVQ sub+144(FP), DX
	MOVL left+152(FP), R13
	MOVL openExt+156(FP), R12
	MOVL ext+160(FP), R11
	SETUP

	// The first cell's F-extend bit: signBit((left − openExt) − (0 − ext)),
	// in every lane of Y5.
	ADDL         ext+160(FP), R13
	SHRL         $31, R13
	SHLL         $3, R13
	VMOVD        R13, X5
	VPBROADCASTD X5, Y5

	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-8, R13
	CMPQ AX, R13
	JAE  tracetail

traceblock:
	LOAD_FULL
	TRACE_E(traceslow, traceback)
	VMOVDQU Y1, (R8)(AX*4)
	TRACE_F
	CARRY
	TRACE_H
	VMOVDQU Y2, (DI)(AX*4)
	VPMAXSD Y2, Y11, Y11
	TRACE_DIR
	VMOVQ   X3, (R10)(AX*1)
	ADDQ    $8, AX
	CMPQ    AX, R13
	JB      traceblock

tracetail:
	CMPQ AX, CX
	JAE  tracedone
	LOAD_TAIL
	TRACE_E(tracetailslow, tracetailback)
	VPMASKMOVD Y1, Y8, (R8)(AX*4)
	TRACE_F
	TRACE_H
	VPMASKMOVD Y2, Y8, (DI)(AX*4)
	TAIL_BEST
	TRACE_DIR
	VMOVQ      X3, R11

tracedir:
	MOVB R11, (R10)(AX*1)
	SHRQ $8, R11
	INCQ AX
	CMPQ AX, CX
	JB   tracedir

tracedone:
	FINISH_BEST(AX)
	MOVL AX, best+168(FP)
	RET

traceslow:
	GATHER(traceback)

tracetailslow:
	GATHER(tracetailback)
