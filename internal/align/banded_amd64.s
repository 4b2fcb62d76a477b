#include "go_asm.h"
#include "textflag.h"

// The banded passes of banded.go, scorePass and tracePass, in YMM
// registers at two widths: eight int32 cells to a register
// (scorePassAVX2, tracePassAVX2), and sixteen int16 cells to one
// (scorePassAVX2x16, tracePassAVX2x16, after the int32 passes) for the
// passes whose scores fit them (fitsNarrow). Both widths run the same
// arithmetic on the same sentinels, so the rows they write, the
// direction bytes and the best and end they return are the Go pass's,
// cell for cell and byte for byte. One call walks every row of the
// pass. In int32 lanes a row runs in blocks of eight cells, then the
// rest one cell at a time (scorePass; the default band's rows of 49
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

// The narrow passes' constants in the frame, past the arguments:
// −openExt − (15−k)·ext + bias and (16−k)·ext − bias in lane k, 16·ext −
// bias, and the bias.
#define UOFF 168(SP)
#define FOFF 200(SP)
#define CARRY0 232(SP)
#define BIAS 264(SP)

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

// func scorePassAVX2(h, e []int32, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)
TEXT ·scorePassAVX2(SB), NOSPLIT, $168-168
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
	MOVQ t+128(FP), DX
	LEAQ Subst_tab(DX), AX
	MOVQ AX, TAB
	MOVL Subst_openExt(DX), R12
	MOVL R12, OPENEXT
	MOVL Subst_ext(DX), R11
	MOVL R11, EXT
	MOVL best+136(FP), R13
	MOVL R13, score+144(FP)
	MOVQ $0, aEnd+152(FP)
	MOVQ $0, bEnd+160(FP)
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
	MOVL  R11, score+144(FP)
	LEAQ  1(R14), R11
	MOVQ  R11, aEnd+152(FP)
	SUBQ  BBASE, BX
	LEAQ  1(BX)(AX*1), BX
	MOVQ  BX, bEnd+160(FP)

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

// func tracePassAVX2(h, e []int32, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)
TEXT ·tracePassAVX2(SB), NOSPLIT, $168-192
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
	MOVQ t+152(FP), DX
	LEAQ Subst_tab(DX), AX
	MOVQ AX, TAB
	MOVL Subst_openExt(DX), R12
	MOVL R12, OPENEXT
	MOVL Subst_ext(DX), R11
	MOVL R11, EXT
	MOVL best+160(FP), R13
	MOVL R13, score+168(FP)
	MOVQ $0, aEnd+176(FP)
	MOVQ $0, bEnd+184(FP)
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
	MOVL  R11, score+168(FP)
	LEAQ  1(R14), R11
	MOVQ  R11, aEnd+176(FP)
	SUBQ  BBASE, BX
	LEAQ  1(BX)(AX*1), BX
	MOVQ  BX, bEnd+184(FP)

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

// The narrow passes, scorePassAVX2x16 and tracePassAVX2x16: the same
// passes sixteen int16 cells to a YMM register, over int16 rows with
// narrowPad slots past each (BandedScratch.rows16), for the passes
// fitsNarrow admits. At the default band a row of 49 cells is three
// blocks and one more cell instead of six and one.
//
// No term wraps. As negInf bounds the int32 passes, fitsNarrow bounds
// these: the cells' largest score, top, plus Match + Mismatch + openExt
// + 16·ext is at most 2^14 − 1. So every finite term — hd at most top,
// a gap term at least −openExt − 16·ext — lies in (−2^14, 2^14), the
// sentinel negInf16 = −2^14 less openExt is at least −2^15, and the
// scan's bias below keeps its values in (0, 2^15). Each flag is then a
// word compare of the values the int32 passes compare, equal to their
// sign bit of a difference; at a row's right end E's two sentinel
// terms meet as they do there, negInf16 − openExt against negInf16 −
// ext.
//
// F is the int32 passes' scan: with u(j) = he(j) − openExt − (15−j)·ext,
// F(k) = max(P one lane up, carry − 16·ext) + (16−k)·ext, P the prefix
// maximum of u. AVX2 has no word permute across the 128-bit halves, so
// the scan runs on u + 2^14, which is above 0: shifts of 1, 2 and 4
// lanes within each half (VPSHUFB, repeating the half's lane 0, which a
// maximum ignores) give each half's own prefix Q. "P one lane up" is Q
// moved up one lane within each half, the half's lane 0 zeroed, which
// the biased maximum ignores, raised to the carry in the low half and
// to the larger of the carry and Q(7) in the high half (VPBLENDD): the
// step across the halves. The next block's carry takes P(15), the
// larger of Q(7) and Q(15), broadcast by VPSHUFB and a swap of the
// halves. So the chain from block to block stays two maxima and a
// subtraction.
//
// The substitution scores are one VPSHUFB of the query code's 16-byte
// int8 row (Subst.tab16), indexed by the subject bytes clamped to 15:
// codes run to 14, and every byte past them scores what 15 does, a
// mismatch. The direction bytes pack 16 to an XMM store.
//
// A row's last cells run in general registers when there is one of them
// (scorePass, as in int32 lanes: the default band's rows of 49), and
// otherwise as one whole block that reads up to 15 slots past the row
// and writes back, in the lanes past it, what it read (VPBLENDVB): the
// narrowPad slots take those reads and writes. The block's subject
// bytes are the 16 that end the row, moved down by VPSHUFB, or, in a
// row of fewer than 16 cells, copied one at a time; its direction bytes
// are stored one at a time.
//
// Registers as in the int32 passes, with: Y15 and Y14 −openExt and
// −ext, which the gap terms add to cells read from memory, DX the table
// row's address, X10 the row itself, X9 15 in every byte, Y6
// (tracePass) the F-extend bits of the last block, Y5 the lanes past
// the row in the last block, Y7 and Y8 the scan's scratch. The frame holds 16·ext at 0(SP), the
// short row's subject bytes at 32(SP) and the last block's direction
// bytes at 48(SP), the best so far at 64(SP) and the arguments from
// 96(SP) as the int32 passes, and the scan's constants from 168(SP).

DATA wordIota<>+0(SB)/8, $0x0003000200010000
DATA wordIota<>+8(SB)/8, $0x0007000600050004
DATA wordIota<>+16(SB)/8, $0x000b000a00090008
DATA wordIota<>+24(SB)/8, $0x000f000e000d000c
GLOBL wordIota<>(SB), RODATA|NOPTR, $32

// wordUp1, wordUp2 and wordUp4 are the VPSHUFB indices that move each
// word 1, 2 and 4 lanes up within its half, repeating the half's lane 0.
DATA wordUp1<>+0(SB)/8, $0x0504030201000100
DATA wordUp1<>+8(SB)/8, $0x0d0c0b0a09080706
DATA wordUp1<>+16(SB)/8, $0x0504030201000100
DATA wordUp1<>+24(SB)/8, $0x0d0c0b0a09080706
GLOBL wordUp1<>(SB), RODATA|NOPTR, $32

DATA wordUp2<>+0(SB)/8, $0x0302010001000100
DATA wordUp2<>+8(SB)/8, $0x0b0a090807060504
DATA wordUp2<>+16(SB)/8, $0x0302010001000100
DATA wordUp2<>+24(SB)/8, $0x0b0a090807060504
GLOBL wordUp2<>(SB), RODATA|NOPTR, $32

DATA wordUp4<>+0(SB)/8, $0x0100010001000100
DATA wordUp4<>+8(SB)/8, $0x0706050403020100
DATA wordUp4<>+16(SB)/8, $0x0100010001000100
DATA wordUp4<>+24(SB)/8, $0x0706050403020100
GLOBL wordUp4<>(SB), RODATA|NOPTR, $32

// wordUp1z moves each word 1 lane up within its half, zeroing the
// half's lane 0.
DATA wordUp1z<>+0(SB)/8, $0x0504030201008080
DATA wordUp1z<>+8(SB)/8, $0x0d0c0b0a09080706
DATA wordUp1z<>+16(SB)/8, $0x0504030201008080
DATA wordUp1z<>+24(SB)/8, $0x0d0c0b0a09080706
GLOBL wordUp1z<>(SB), RODATA|NOPTR, $32

DATA wordBias<>+0(SB)/8, $0x4000400040004000
DATA wordBias<>+8(SB)/8, $0x4000400040004000
DATA wordBias<>+16(SB)/8, $0x4000400040004000
DATA wordBias<>+24(SB)/8, $0x4000400040004000
GLOBL wordBias<>(SB), RODATA|NOPTR, $32

// wordLane7 broadcasts word 7 of each half through the half.
DATA wordLane7<>+0(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA wordLane7<>+8(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA wordLane7<>+16(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA wordLane7<>+24(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL wordLane7<>(SB), RODATA|NOPTR, $32

// wordPast is 16 zero words, then 16 all-ones: read 32 − 2n bytes in, it
// marks the lanes from n up.
DATA wordPast<>+0(SB)/8, $0
DATA wordPast<>+8(SB)/8, $0
DATA wordPast<>+16(SB)/8, $0
DATA wordPast<>+24(SB)/8, $0
DATA wordPast<>+32(SB)/8, $-1
DATA wordPast<>+40(SB)/8, $-1
DATA wordPast<>+48(SB)/8, $-1
DATA wordPast<>+56(SB)/8, $-1
GLOBL wordPast<>(SB), RODATA|NOPTR, $64

// byteIota is 0 to 31: read 16 − n bytes in, it is the VPSHUFB index
// that moves the last n of 16 bytes down to the first n.
DATA byteIota<>+0(SB)/8, $0x0706050403020100
DATA byteIota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA byteIota<>+16(SB)/8, $0x1716151413121110
DATA byteIota<>+24(SB)/8, $0x1f1e1d1c1b1a1918
GLOBL byteIota<>(SB), RODATA|NOPTR, $32

DATA byte15<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byte15<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL byte15<>(SB), RODATA|NOPTR, $16

DATA wordOne<>+0(SB)/8, $0x0001000100010001
DATA wordOne<>+8(SB)/8, $0x0001000100010001
DATA wordOne<>+16(SB)/8, $0x0001000100010001
DATA wordOne<>+24(SB)/8, $0x0001000100010001
GLOBL wordOne<>(SB), RODATA|NOPTR, $32

DATA wordFour<>+0(SB)/8, $0x0004000400040004
DATA wordFour<>+8(SB)/8, $0x0004000400040004
DATA wordFour<>+16(SB)/8, $0x0004000400040004
DATA wordFour<>+24(SB)/8, $0x0004000400040004
GLOBL wordFour<>(SB), RODATA|NOPTR, $32

DATA wordEight<>+0(SB)/8, $0x0008000800080008
DATA wordEight<>+8(SB)/8, $0x0008000800080008
DATA wordEight<>+16(SB)/8, $0x0008000800080008
DATA wordEight<>+24(SB)/8, $0x0008000800080008
GLOBL wordEight<>(SB), RODATA|NOPTR, $32

// NPASS_SETUP is PASS_SETUP in words: it broadcasts openExt (R12) and
// ext (R11), builds the constants every row shares, leaves −openExt and
// −ext in Y15 and Y14, so that the gap terms add them to cells read
// from memory, and stores the best so far (R13), broadcast, at 64(SP).
#define NPASS_SETUP \
	VMOVD        R12, X15; \
	VPBROADCASTW X15, Y15; \
	VMOVD        R11, X14; \
	VPBROADCASTW X14, Y14; \
	VPXOR        Y13, Y13, Y13; \
	VMOVDQU      byte15<>(SB), X9; \
	VPSLLW       $4, Y14, Y0; \
	VMOVDQU      Y0, 0(SP); \
	VMOVDQU      wordBias<>(SB), Y1; \
	VMOVDQU      Y1, BIAS; \
	VPSUBW       Y1, Y0, Y2; \
	VMOVDQU      Y2, CARRY0; \
	VPMULLW      wordIota<>(SB), Y14, Y2; \
	VPSUBW       Y2, Y0, Y2; \
	VPSUBW       Y1, Y2, Y3; \
	VMOVDQU      Y3, FOFF; \
	VPSUBW       Y15, Y14, Y3; \
	VPSUBW       Y2, Y3, Y3; \
	VPADDW       Y1, Y3, Y3; \
	VMOVDQU      Y3, UOFF; \
	VPSUBW       Y15, Y13, Y15; \
	VPSUBW       Y14, Y13, Y14; \
	VMOVD        R13, X0; \
	VPBROADCASTW X0, Y0; \
	VMOVDQU      Y0, 64(SP)

// NROW_SETUP is ROW_SETUP over int16 rows: DI = &h[c+1], R8 = &e[c],
// X10 the table row of min(a[i], 15), the carry from left, h[c], and
// R13 and R11 as ROW_SETUP leaves them.
#define NROW_SETUP \
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
	LEAQ         2(SI)(R11*2), DI; \
	LEAQ         (R9)(R11*2), R8; \
	MOVQ         ABASE, DX; \
	MOVBLZX      (DX)(R14*1), DX; \
	MOVL         $15, R12; \
	CMPL         DX, R12; \
	CMOVLGT      R12, DX; \
	SHLQ         $4, DX; \
	ADDQ         TAB, DX; \
	VMOVDQU      (DX), X10; \
	MOVWLSX      -2(DI), R13; \
	SUBL         OPENEXT, R13; \
	VMOVD        R13, X12; \
	VPBROADCASTW X12, Y12; \
	VPMAXSW      Y13, Y12, Y12; \
	VPSUBW       CARRY0, Y12, Y12; \
	VMOVDQU      64(SP), Y11

// NLOAD_FULL loads a block's subject bytes, clamped to 15, into X3. Its
// cells are read where they are used: hOut (the diagonal) at
// (DI)(AX*2), hUp at 2(DI)(AX*2) and eUp at 2(R8)(AX*2).
#define NLOAD_FULL \
	VPMINUB (BX)(AX*1), X9, X3

// NLOAD_TAIL loads the row's last block, cells AX to CX − 1 and the
// slots past them, as NLOAD_FULL does, and sets Y5 to all ones in the
// lanes past the row.
#define NLOAD_TAIL \
	MOVQ    CX, R13; \
	SUBQ    AX, R13; \
	CMPQ    CX, $16; \
	JB      shortrow; \
	LEAQ    byteIota<>+16(SB), R12; \
	SUBQ    R13, R12; \
	VMOVDQU -16(BX)(CX*1), X3; \
	VPSHUFB (R12), X3, X3; \
	JMP     tailbytes; \
shortrow: \
	XORQ    R12, R12; \
shortbyte: \
	MOVBLZX (BX)(R12*1), DX; \
	MOVB    DX, 32(SP)(R12*1); \
	INCQ    R12; \
	CMPQ    R12, CX; \
	JB      shortbyte; \
	VMOVDQU 32(SP), X3; \
tailbytes: \
	VPMINUB X9, X3, X3; \
	SHLQ    $1, R13; \
	LEAQ    wordPast<>+32(SB), R12; \
	SUBQ    R13, R12; \
	VMOVDQU (R12), Y5; \
	VMOVDQU 2(DI)(AX*2), Y0; \
	VMOVDQU 2(R8)(AX*2), Y1; \
	VMOVDQU (DI)(AX*2), Y2

// NSUBST adds the substitution scores to the diagonal, hout: Y2 = hd.
#define NSUBST(hout) \
	VPSHUFB   X3, X10, X3; \
	VPMOVSXBW X3, Y3; \
	VPADDW    hout, Y3, Y2

// NE_CELLS computes the cells' E gap terms from hup and eup: Y0 =
// eOpen, Y1 = eExt.
#define NE_CELLS(hup, eup) \
	VPADDW hup, Y15, Y0; \
	VPADDW eup, Y14, Y1

// NSCAN takes he in Y2 and leaves F, not clamped at 0, in Y0 and P(15)
// in every lane of Y7, both biased as the scan keeps them (the header
// says how). It takes Y4 and Y8 as scratch.
#define NSCAN \
	VPADDW     UOFF, Y2, Y0; \
	VPSHUFB    wordUp1<>(SB), Y0, Y4; \
	VPMAXSW    Y4, Y0, Y0; \
	VPSHUFB    wordUp2<>(SB), Y0, Y4; \
	VPMAXSW    Y4, Y0, Y0; \
	VPSHUFB    wordUp4<>(SB), Y0, Y4; \
	VPMAXSW    Y4, Y0, Y0; \
	VPSHUFB    wordLane7<>(SB), Y0, Y7; \
	VPERM2I128 $0x01, Y7, Y7, Y8; \
	VPSHUFB    wordUp1z<>(SB), Y0, Y0; \
	VPMAXSW    Y12, Y8, Y4; \
	VPBLENDD   $0xf0, Y4, Y12, Y4; \
	VPMAXSW    Y4, Y0, Y0; \
	VPADDW     FOFF, Y0, Y0; \
	VPMAXSW    Y8, Y7, Y7

// NSCORE_E leaves a block's E in Y1 and hd in Y2, given its hOut, hUp
// and eUp.
#define NSCORE_E(hout, hup, eup) \
	NSUBST(hout); \
	NE_CELLS(hup, eup); \
	VPMAXSW Y0, Y1, Y1; \
	VPMAXSW Y13, Y1, Y1

// NSCORE_H leaves a block's H in Y2 and P(15) in Y7. As in SCORE_H, F
// is not clamped at 0, which does not change H.
#define NSCORE_H \
	VPMAXSW Y1, Y2, Y2; \
	NSCAN; \
	VPMAXSW Y0, Y2, Y2

// NSCORE_CARRY is SCORE_CARRY: the carry, less 16·ext, from P(15).
#define NSCORE_CARRY \
	VPMAXSW Y7, Y12, Y12; \
	VPSUBW  0(SP), Y12, Y12

// NNEW_BEST is NEW_BEST in words: the first column of the row's best
// is a word compare, VPMOVMSKB's two bits a lane and TZCNT, halved; the
// last block masks the lanes past the row.
#define NNEW_BEST(next) \
	VPCMPGTW     64(SP), Y11, Y0; \
	VPTEST       Y0, Y0; \
	JZ           next; \
	VEXTRACTI128 $1, Y11, X0; \
	VPMAXSW      X0, X11, X11; \
	VPSHUFD      $0x4e, X11, X0; \
	VPMAXSW      X0, X11, X11; \
	VPSHUFD      $0xb1, X11, X0; \
	VPMAXSW      X0, X11, X11; \
	VPSRLD       $16, X11, X0; \
	VPMAXSW      X0, X11, X11; \
	VPBROADCASTW X11, Y0; \
	VMOVDQU      Y0, 64(SP); \
	XORQ         AX, AX; \
	MOVQ         CX, R13; \
	ANDQ         $-16, R13; \
findblock: \
	CMPQ         AX, R13; \
	JAE          findtail; \
	VPCMPEQW     (DI)(AX*2), Y0, Y1; \
	VPMOVMSKB    Y1, R11; \
	TESTL        R11, R11; \
	JNZ          found; \
	ADDQ         $16, AX; \
	JMP          findblock; \
findtail: \
	MOVQ         CX, R13; \
	SUBQ         AX, R13; \
	SHLQ         $1, R13; \
	LEAQ         wordPast<>+32(SB), R12; \
	SUBQ         R13, R12; \
	VMOVDQU      (R12), Y2; \
	VPCMPEQW     (DI)(AX*2), Y0, Y1; \
	VPANDN       Y1, Y2, Y1; \
	VPMOVMSKB    Y1, R11; \
found: \
	TZCNTL       R11, R11; \
	SHRL         $1, R11; \
	ADDQ         R11, AX

// func scorePassAVX2x16(h, e []int16, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)
TEXT ·scorePassAVX2x16(SB), NOSPLIT, $296-168
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
	MOVQ t+128(FP), DX
	LEAQ Subst_tab16(DX), AX
	MOVQ AX, TAB
	MOVL Subst_openExt(DX), R12
	MOVL R12, OPENEXT
	MOVL Subst_ext(DX), R11
	MOVL R11, EXT
	MOVL best+136(FP), R13
	MOVL R13, score+144(FP)
	MOVQ $0, aEnd+152(FP)
	MOVQ $0, bEnd+160(FP)
	NPASS_SETUP
	MOVQ first+112(FP), R14
	CMPQ R14, END
	JGE  nscoredone

nscorerow:
	NROW_SETUP
	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-16, R13
	CMPQ AX, R13
	JAE  nscoretail

nscoreblock:
	NLOAD_FULL
	NSCORE_E((DI)(AX*2), 2(DI)(AX*2), 2(R8)(AX*2))
	VMOVDQU Y1, (R8)(AX*2)
	NSCORE_H
	VMOVDQU Y2, (DI)(AX*2)
	VPMAXSW Y2, Y11, Y11
	NSCORE_CARRY
	ADDQ    $16, AX
	CMPQ    AX, R13
	JB      nscoreblock

nscoretail:
	MOVQ      CX, R13
	SUBQ      AX, R13
	JZ        nscorebest
	CMPQ      R13, $1
	JE        nscorecell
	NLOAD_TAIL
	NSCORE_E(Y2, Y0, Y1)
	VPBLENDVB Y5, (R8)(AX*2), Y1, Y1
	VMOVDQU   Y1, (R8)(AX*2)
	NSCORE_H
	VPBLENDVB Y5, (DI)(AX*2), Y2, Y2
	VMOVDQU   Y2, (DI)(AX*2)
	VPANDN    Y2, Y5, Y0
	VPMAXSW   Y0, Y11, Y11
	JMP       nscorebest

	// A last cell alone (the default band's rows of 49 leave one) runs
	// as scoreRow runs it, in int32 arithmetic: R12 its F, from the
	// carry (lane 0 of Y12, less CARRY0), R11 E, R10 hd, then he, then
	// H. H joins the row's maximum in lane 0, the other lanes
	// 0, which the maximum, at least the best so far, ignores.
nscorecell:
	VMOVD   X12, R12
	MOVWLSX R12, R12
	MOVWLSX CARRY0, R11
	ADDL    R11, R12
	MOVWLSX 2(DI)(AX*2), R11
	SUBL    OPENEXT, R11
	MOVWLSX 2(R8)(AX*2), R10
	SUBL    EXT, R10
	CMPL    R10, R11
	CMOVLGT R10, R11
	XORL    R10, R10
	CMPL    R11, R10
	CMOVLLT R10, R11
	MOVW    R11, (R8)(AX*2)
	MOVBLZX (BX)(AX*1), R10
	MOVL    $15, R13
	CMPL    R10, R13
	CMOVLGT R13, R10
	MOVBLSX (DX)(R10*1), R10
	MOVWLSX (DI)(AX*2), R13
	ADDL    R13, R10
	CMPL    R10, R11
	CMOVLLT R11, R10
	CMPL    R10, R12
	CMOVLLT R12, R10
	MOVW    R10, (DI)(AX*2)
	VMOVD   R10, X0
	VPMAXSW Y0, Y11, Y11

nscorebest:
	NNEW_BEST(nscorenext)
	VMOVD   X11, R11
	MOVWLSX R11, R11
	MOVL    R11, score+144(FP)
	LEAQ    1(R14), R11
	MOVQ    R11, aEnd+152(FP)
	SUBQ    BBASE, BX
	LEAQ    1(BX)(AX*1), BX
	MOVQ    BX, bEnd+160(FP)

nscorenext:
	INCQ R14
	CMPQ R14, END
	JLT  nscorerow

nscoredone:
	VZEROUPPER
	RET

// NTRACE_E leaves a block's E in Y1, hd in Y2 and the E-extend bits,
// eExtend where eOpen < eExt, in Y3, given its cells.
#define NTRACE_E(hout, hup, eup) \
	NSUBST(hout); \
	NE_CELLS(hup, eup); \
	VPCMPGTW Y0, Y1, Y3; \
	VPAND    wordFour<>(SB), Y3, Y3; \
	VPMAXSW  Y0, Y1, Y1; \
	VPMAXSW  Y13, Y1, Y1

// NTRACE_F leaves a block's he in Y2, F in Y4, P(15) in Y7, and the
// H-source bits from the diagonal, hFromDiag + (hd < E), in Y1.
#define NTRACE_F \
	VPCMPGTW Y2, Y1, Y4; \
	VPMAXSW  Y1, Y2, Y2; \
	VPSRLW   $15, Y4, Y1; \
	VPADDW   wordOne<>(SB), Y1, Y1; \
	NSCAN; \
	VPMAXSW  Y13, Y0, Y4

// NTRACE_CARRY is CARRY: max(P(15), carry − 16·ext, 0), less 16·ext,
// the 0 biased.
#define NTRACE_CARRY \
	VPMAXSW Y7, Y12, Y12; \
	VPMAXSW BIAS, Y12, Y12; \
	VPSUBW  0(SP), Y12, Y12

// NTRACE_H leaves a block's H in Y2 and or-s hFromF where he < F into
// the H-source bits. It takes Y0 as scratch.
#define NTRACE_H \
	VPCMPGTW Y2, Y4, Y0; \
	VPSRLW   $14, Y0, Y0; \
	VPOR     Y0, Y1, Y1; \
	VPMAXSW  Y4, Y2, Y2

// NTRACE_DIR assembles the block's direction bytes in X3: the H-source
// bits where H > 0, the E-extend bits, and the F-extend bits, (H −
// openExt) < (F − ext) of the cell to the left, which come one lane up
// from this block and, in lane 0, from lane 15 of the last block's (Y6).
// It takes Y0, Y1 and Y4 as scratch.
#define NTRACE_DIR \
	VPCMPGTW     Y13, Y2, Y0; \
	VPAND        Y0, Y1, Y1; \
	VPOR         Y1, Y3, Y3; \
	VPADDW       Y15, Y2, Y0; \
	VPADDW       Y14, Y4, Y4; \
	VPCMPGTW     Y0, Y4, Y0; \
	VPAND        wordEight<>(SB), Y0, Y0; \
	VPERM2I128   $0x21, Y0, Y6, Y1; \
	VPALIGNR     $14, Y1, Y0, Y1; \
	VPOR         Y1, Y3, Y3; \
	VMOVDQA      Y0, Y6; \
	VEXTRACTI128 $1, Y3, X0; \
	VPACKUSWB    X0, X3, X3

// func tracePassAVX2x16(h, e []int16, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)
TEXT ·tracePassAVX2x16(SB), NOSPLIT, $296-192
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
	MOVQ t+152(FP), DX
	LEAQ Subst_tab16(DX), AX
	MOVQ AX, TAB
	MOVL Subst_openExt(DX), R12
	MOVL R12, OPENEXT
	MOVL Subst_ext(DX), R11
	MOVL R11, EXT
	MOVL best+160(FP), R13
	MOVL R13, score+168(FP)
	MOVQ $0, aEnd+176(FP)
	MOVQ $0, bEnd+184(FP)
	NPASS_SETUP
	MOVQ first+136(FP), R14
	CMPQ R14, END
	JGE  ntracedone

ntracerow:
	NROW_SETUP

	// dOut = &dir[i·width + c].
	MOVQ  R14, R10
	IMULQ WIDTH, R10
	ADDQ  R11, R10
	ADDQ  DIR, R10

	// The first cell's F-extend bit: signBit((left − openExt) − (0 − ext)),
	// in every lane of Y6.
	ADDL         EXT, R13
	SHRL         $31, R13
	SHLL         $3, R13
	VMOVD        R13, X6
	VPBROADCASTW X6, Y6

	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-16, R13
	CMPQ AX, R13
	JAE  ntracetail

ntraceblock:
	NLOAD_FULL
	NTRACE_E((DI)(AX*2), 2(DI)(AX*2), 2(R8)(AX*2))
	VMOVDQU Y1, (R8)(AX*2)
	NTRACE_F
	NTRACE_CARRY
	NTRACE_H
	VMOVDQU Y2, (DI)(AX*2)
	VPMAXSW Y2, Y11, Y11
	NTRACE_DIR
	VMOVDQU X3, (R10)(AX*1)
	ADDQ    $16, AX
	CMPQ    AX, R13
	JB      ntraceblock

ntracetail:
	CMPQ      AX, CX
	JAE       ntracebest
	NLOAD_TAIL
	NTRACE_E(Y2, Y0, Y1)
	VPBLENDVB Y5, (R8)(AX*2), Y1, Y1
	VMOVDQU   Y1, (R8)(AX*2)
	NTRACE_F
	NTRACE_H
	VPBLENDVB Y5, (DI)(AX*2), Y2, Y0
	VMOVDQU   Y0, (DI)(AX*2)
	VPANDN    Y2, Y5, Y0
	VPMAXSW   Y0, Y11, Y11
	NTRACE_DIR
	VMOVDQU   X3, 48(SP)
	LEAQ      (R10)(AX*1), R11
	MOVQ      CX, R13
	SUBQ      AX, R13
	XORQ      R12, R12

ntracedir:
	MOVBLZX 48(SP)(R12*1), DX
	MOVB    DX, (R11)(R12*1)
	INCQ    R12
	CMPQ    R12, R13
	JB      ntracedir

ntracebest:
	NNEW_BEST(ntracenext)
	VMOVD   X11, R11
	MOVWLSX R11, R11
	MOVL    R11, score+168(FP)
	LEAQ    1(R14), R11
	MOVQ    R11, aEnd+176(FP)
	SUBQ    BBASE, BX
	LEAQ    1(BX)(AX*1), BX
	MOVQ    BX, bEnd+184(FP)

ntracenext:
	INCQ R14
	CMPQ R14, END
	JLT  ntracerow

ntracedone:
	VZEROUPPER
	RET
