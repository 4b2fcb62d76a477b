#include "textflag.h"

// The banded passes of banded.go, scorePass and tracePass, eight int32
// cells to a YMM register: the same arithmetic, scratch and sentinels,
// so the rows they write, the direction bytes and the best and end they
// return are the Go pass's, cell for cell and byte for byte. One call
// walks every row of the pass; a row runs in blocks of eight cells, then
// the rest one cell at a time (scorePass; the default band's rows of 49
// leave one) or in one masked block (tracePass).
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
// The substitution scores are one VPERMD of the table row's first eight
// entries when every subject byte of the block is below 8, and a gather
// of the row's entries otherwise.
//
// The pass's constants are built once. Each row starts its lane-wise
// maximum at the best so far, broadcast, so one compare and VPTEST tell
// whether the row beat it; only such a row is reduced to its largest
// lane, and its first column of that value found by a compare, a lane
// mask and TZCNT, without leaving the pass.
//
// Registers: R14 the row i, SI and R9 the H and E rows' bases; per row,
// DI hOut (hUp is the next slot, 4(DI)), R8 eOut (eUp 4(R8)), R10 dOut
// (tracePass), BX bs, CX its length, DX the table row, AX the block's
// first cell, R11 the block's subject bytes, R12 0xf8 in every byte, R13
// the end of the whole blocks. Y15 openExt, Y14 ext, Y13 zero, Y12 carry
// − 8·ext, Y11 the row's maximum, Y10 and Y9 the indices that move lanes
// one and two up, Y8 the index of lane 7 (in tracePass's masked block,
// the mask of its cells), Y7 −openExt − (7−k)·ext and Y6 (8−k)·ext in
// lane k, Y5 (tracePass) the F-extend bits of the last block; Y0–Y4 hold
// a block.
// The frame holds 8·ext at 0(SP), a spill slot at 32(SP), the best so
// far broadcast at 64(SP), and from 96(SP) the pass's arguments the row
// setup reads (ROW_SETUP).

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

// PASS_SETUP broadcasts openExt (R12) and ext (R11), builds the
// constants every row shares and stores the best so far (R13),
// broadcast, at 64(SP).
#define PASS_SETUP \
	VMOVD        R12, X15; \
	VPBROADCASTD X15, Y15; \
	VMOVD        R11, X14; \
	VPBROADCASTD X14, Y14; \
	VPXOR        Y13, Y13, Y13; \
	VMOVDQU      rowUp1<>(SB), Y10; \
	VMOVDQU      rowUp2<>(SB), Y9; \
	VPSLLD       $3, Y14, Y0; \
	VMOVDQU      Y0, 0(SP); \
	VPMULLD      rowIota<>(SB), Y14, Y7; \
	VPSUBD       Y7, Y0, Y6; \
	VPSUBD       Y15, Y14, Y7; \
	VPSUBD       Y6, Y7, Y7; \
	VMOVD        R13, X0; \
	VPBROADCASTD X0, Y0; \
	VMOVDQU      Y0, 64(SP)

// The pass's arguments ROW_SETUP reads, stored in the frame.
#define LO 96(SP)
#define WIDTH 104(SP)
#define END 112(SP)
#define BLEN 120(SP)
#define BBASE 128(SP)
#define ABASE 136(SP)
#define TAB 144(SP)
#define DIR 152(SP)
#define OPENEXT 160(SP)
#define EXT 164(SP)

// ROW_SETUP points the registers at row R14: jLo = max(i+lo, 0), jHi =
// min(i+lo+width, len(b)), band column c = jLo − i − lo, BX = &b[jLo],
// CX = jHi − jLo, DI = &h[c+1], R8 = &e[c], DX = the table row of
// min(a[i], 15). It starts the row's maximum at the best so far and the
// carry from left, h[c], at the first cell's F, max(left − openExt, 0),
// and leaves left − openExt in R13 and c in R11.
#define ROW_SETUP \
	MOVQ         R14, BX; \
	ADDQ         LO, BX; \
	MOVQ         BX, CX; \
	ADDQ         WIDTH, CX; \
	CMPQ         CX, BLEN; \
	CMOVQGT      BLEN, CX; \
	XORQ         R12, R12; \
	MOVQ         BX, R11; \
	NEGQ         R11; \
	CMOVQLT      R12, R11; \
	ADDQ         R11, BX; \
	SUBQ         BX, CX; \
	ADDQ         BBASE, BX; \
	LEAQ         4(SI)(R11*4), DI; \
	LEAQ         (R9)(R11*4), R8; \
	MOVQ         ABASE, DX; \
	MOVBLZX      (DX)(R14*1), DX; \
	MOVL         $15, R12; \
	CMPL         DX, R12; \
	CMOVLGT      R12, DX; \
	SHLQ         $10, DX; \
	ADDQ         TAB, DX; \
	MOVL         -4(DI), R13; \
	SUBL         OPENEXT, R13; \
	VMOVD        R13, X12; \
	VPBROADCASTD X12, Y12; \
	VPMAXSD      Y13, Y12, Y12; \
	VPSUBD       0(SP), Y12, Y12; \
	VMOVDQU      64(SP), Y11; \
	VMOVDQU      rowLane7<>(SB), Y8; \
	MOVQ         $0xf8f8f8f8f8f8f8f8, R12

// LOAD_FULL loads a block: Y0 hUp, Y1 eUp, Y2 hOut (the diagonal), Y3
// and R11 the subject bytes, as dwords and as bytes.
#define LOAD_FULL \
	VMOVDQU   4(DI)(AX*4), Y0; \
	VMOVDQU   4(R8)(AX*4), Y1; \
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
	VPMASKMOVD   4(DI)(AX*4), Y8, Y0; \
	VPMASKMOVD   4(R8)(AX*4), Y8, Y1; \
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

// PREFIX takes he in Y2 and leaves the prefix maximum P of u in Y0.
#define PREFIX \
	VPADDD     Y7, Y2, Y0; \
	VPERMD     Y0, Y10, Y4; \
	VPMAXSD    Y4, Y0, Y0; \
	VPERMD     Y0, Y9, Y4; \
	VPMAXSD    Y4, Y0, Y0; \
	VPERM2I128 $0x00, Y0, Y0, Y4; \
	VPMAXSD    Y4, Y0, Y0

// SCAN takes he in Y2 and leaves the cells' F in Y4 and P in Y0.
#define SCAN \
	PREFIX; \
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

// NEW_BEST runs after a row, on the row's maximum (Y11). When no lane
// beats the best so far it jumps to next. Otherwise it reduces Y11 to
// the row's best, leaves it in X11 and, broadcast, at 64(SP), and sets
// AX to the first column of the row that holds it: whole blocks
// compared from memory, then the last block under a mask, whose
// zeroed lanes the best, above 0, cannot equal. TZCNT's operand is never
// zero, so on a CPU without BMI1, which runs it as BSF, it means the
// same.
#define NEW_BEST(next) \
	VPCMPGTD     64(SP), Y11, Y0; \
	VPTEST       Y0, Y0; \
	JZ           next; \
	VEXTRACTI128 $1, Y11, X0; \
	VPMAXSD      X0, X11, X11; \
	VPSHUFD      $0x4e, X11, X0; \
	VPMAXSD      X0, X11, X11; \
	VPSHUFD      $0xb1, X11, X0; \
	VPMAXSD      X0, X11, X11; \
	VPBROADCASTD X11, Y0; \
	VMOVDQU      Y0, 64(SP); \
	XORQ         AX, AX; \
	MOVQ         CX, R13; \
	ANDQ         $-8, R13; \
findblock: \
	CMPQ         AX, R13; \
	JAE          findtail; \
	VPCMPEQD     (DI)(AX*4), Y0, Y1; \
	VMOVMSKPS    Y1, R11; \
	TESTL        R11, R11; \
	JNZ          found; \
	ADDQ         $8, AX; \
	JMP          findblock; \
findtail: \
	MOVQ         CX, R13; \
	SUBQ         AX, R13; \
	VMOVD        R13, X1; \
	VPBROADCASTD X1, Y1; \
	VPCMPGTD     rowIota<>(SB), Y1, Y1; \
	VPMASKMOVD   (DI)(AX*4), Y1, Y1; \
	VPCMPEQD     Y1, Y0, Y1; \
	VMOVMSKPS    Y1, R11; \
found: \
	TZCNTL       R11, R11; \
	ADDQ         R11, AX

// SCORE_E leaves a block's E in Y1 and hd in Y2.
#define SCORE_E(slow, back) \
	SUBST(slow, back); \
	E_CELLS; \
	VPMAXSD Y0, Y1, Y1; \
	VPMAXSD Y13, Y1, Y1

// SCORE_H leaves a block's H in Y2 and P in Y0. The score pass reads F
// only through H = max(he, F), so it skips three of SCAN's steps: F is
// not clamped at 0, and lane 0 keeps P(0) (u(0)) instead of taking the
// carry alone, which makes F(0) max(he(0) − GapOpen, carry), no larger
// than he(0) unless the carry is. Neither changes H, he being at least
// 0, and F stays above −openExt − 8·ext, so nothing wraps.
#define SCORE_H \
	VPMAXSD Y1, Y2, Y2; \
	PREFIX; \
	VPERMD  Y0, Y10, Y4; \
	VPMAXSD Y12, Y4, Y4; \
	VPADDD  Y6, Y4, Y4; \
	VPMAXSD Y4, Y2, Y2

// SCORE_CARRY is CARRY without the clamp at 0, which P(7), at least
// he(7) − openExt, makes unnecessary on the way to H.
#define SCORE_CARRY \
	VPERMD  Y0, Y8, Y0; \
	VPMAXSD Y0, Y12, Y12; \
	VPSUBD  0(SP), Y12, Y12

// func scorePassAVX2(h, e []int32, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (score int32, aEnd, bEnd int)
TEXT ·scorePassAVX2(SB), NOSPLIT, $168-176
	MOVQ h_base+0(FP), SI
	MOVQ e_base+24(FP), R9
	MOVQ a_base+48(FP), AX
	MOVQ AX, ABASE
	MOVQ b_base+72(FP), AX
	MOVQ AX, BBASE
	MOVQ b_len+80(FP), AX
	MOVQ AX, BLEN
	MOVQ lo+96(FP), AX
	MOVQ AX, LO
	MOVQ width+104(FP), AX
	MOVQ AX, WIDTH
	MOVQ end+120(FP), AX
	MOVQ AX, END
	MOVQ tab+128(FP), AX
	MOVQ AX, TAB
	MOVL openExt+136(FP), R12
	MOVL R12, OPENEXT
	MOVL ext+140(FP), R11
	MOVL R11, EXT
	MOVL best+144(FP), R13
	MOVL R13, score+152(FP)
	MOVQ $0, aEnd+160(FP)
	MOVQ $0, bEnd+168(FP)
	PASS_SETUP
	MOVQ first+112(FP), R14
	CMPQ R14, END
	JGE  scoredone

scorerow:
	ROW_SETUP
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
	SCORE_CARRY
	ADDQ    $8, AX
	CMPQ    AX, R13
	JB      scoreblock

	// The last cells one at a time, as scoreRow runs them, with F
	// clamped at 0 as the blocks keep it: R12 the cell's F, from the
	// carry (lane 0 of Y12, plus 8·ext), R11 E, then H; R10 hd, then he.
scoretail:
	CMPQ    AX, CX
	JAE     scorebest
	VMOVD   X12, R12
	ADDL    0(SP), R12

scorecell:
	MOVL    4(DI)(AX*4), R11
	SUBL    OPENEXT, R11
	MOVL    4(R8)(AX*4), R10
	SUBL    EXT, R10
	CMPL    R10, R11
	CMOVLGT R10, R11
	XORL    R10, R10
	CMPL    R11, R10
	CMOVLLT R10, R11
	MOVL    R11, (R8)(AX*4)
	MOVBLZX (BX)(AX*1), R10
	MOVL    (DX)(R10*4), R10
	ADDL    (DI)(AX*4), R10
	CMPL    R10, R11
	CMOVLLT R11, R10
	MOVL    R10, R11
	CMPL    R11, R12
	CMOVLLT R12, R11
	MOVL    R11, (DI)(AX*4)
	VMOVD   R11, X0
	VPBROADCASTD X0, Y0
	VPMAXSD Y0, Y11, Y11
	SUBL    EXT, R12
	SUBL    OPENEXT, R10
	CMPL    R10, R12
	CMOVLGT R10, R12
	XORL    R10, R10
	CMPL    R12, R10
	CMOVLLT R10, R12
	INCQ    AX
	CMPQ    AX, CX
	JB      scorecell

scorebest:
	NEW_BEST(scorenext)
	VMOVD X11, R11
	MOVL  R11, score+152(FP)
	LEAQ  1(R14), R11
	MOVQ  R11, aEnd+160(FP)
	SUBQ  BBASE, BX
	LEAQ  1(BX)(AX*1), BX
	MOVQ  BX, bEnd+168(FP)

scorenext:
	INCQ R14
	CMPQ R14, END
	JLT  scorerow

scoredone:
	VZEROUPPER
	RET

scoreslow:
	GATHER(scoreback)

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

// func tracePassAVX2(h, e []int32, dir, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (score int32, aEnd, bEnd int)
TEXT ·tracePassAVX2(SB), NOSPLIT, $168-200
	MOVQ h_base+0(FP), SI
	MOVQ e_base+24(FP), R9
	MOVQ dir_base+48(FP), AX
	MOVQ AX, DIR
	MOVQ a_base+72(FP), AX
	MOVQ AX, ABASE
	MOVQ b_base+96(FP), AX
	MOVQ AX, BBASE
	MOVQ b_len+104(FP), AX
	MOVQ AX, BLEN
	MOVQ lo+120(FP), AX
	MOVQ AX, LO
	MOVQ width+128(FP), AX
	MOVQ AX, WIDTH
	MOVQ end+144(FP), AX
	MOVQ AX, END
	MOVQ tab+152(FP), AX
	MOVQ AX, TAB
	MOVL openExt+160(FP), R12
	MOVL R12, OPENEXT
	MOVL ext+164(FP), R11
	MOVL R11, EXT
	MOVL best+168(FP), R13
	MOVL R13, score+176(FP)
	MOVQ $0, aEnd+184(FP)
	MOVQ $0, bEnd+192(FP)
	PASS_SETUP
	MOVQ first+136(FP), R14
	CMPQ R14, END
	JGE  tracedone

tracerow:
	ROW_SETUP

	// dOut = &dir[i·width + c].
	MOVQ  R14, R10
	IMULQ WIDTH, R10
	ADDQ  R11, R10
	ADDQ  DIR, R10

	// The first cell's F-extend bit: signBit((left − openExt) − (0 − ext)),
	// in every lane of Y5.
	ADDL         EXT, R13
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
	JAE  tracebest
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

tracebest:
	NEW_BEST(tracenext)
	VMOVD X11, R11
	MOVL  R11, score+176(FP)
	LEAQ  1(R14), R11
	MOVQ  R11, aEnd+184(FP)
	SUBQ  BBASE, BX
	LEAQ  1(BX)(AX*1), BX
	MOVQ  BX, bEnd+192(FP)

tracenext:
	INCQ R14
	CMPQ R14, END
	JLT  tracerow

tracedone:
	VZEROUPPER
	RET

traceslow:
	GATHER(traceback)

tracetailslow:
	GATHER(tracetailback)
