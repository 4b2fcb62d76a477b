#include "go_asm.h"
#include "textflag.h"

// The striped column of striped.go's stripedColumn in YMM registers:
// walkAVX2x8 runs 32 unsigned byte lanes a vector, walkAVX2x16 16 word
// lanes. Both walk subject columns until one holds a lane at or above
// best, with the same biased profile, H/E interleaving and lazy-F loop
// as the uint64 route, ⌈n/lanes⌉ vector pairs a column.
//
// Registers: DI the H/E column, SI the profile, R9 the bytes of one H/E
// column (and of one profile row), BX and CX the subject and its length,
// DX the subject column, AX its profile row, R10 the byte offset of the
// vector pair, R11 the lazy-F passes left. Y15, Y14 and Y13 hold
// open+ext, ext and best in every lane; Y0 is H, Y1 F, Y2 the column's
// best, Y3–Y6 temporaries.

// SHIFT_UP moves every lane of x one lane up, carrying lane 15 of the
// low 128-bit half into lane 0 of the high half (VPALIGNR shifts within
// halves; VPERM2I128 puts the low half under the high one), and zeroes
// lane 0. n is 16 minus the lane's bytes.
#define SHIFT_UP(x, t, n) \
	VPERM2I128 $0x08, x, x, t; \
	VPALIGNR   $n, t, x, x

// STEP advances vector pair R10 of the column: H = max(diag + W − bias,
// E, F), then the next column's E and the next vector's F from H −
// (open+ext), both decayed by ext; the old H becomes the next diagonal.
#define STEP(addus, subus, maxu) \
	addus      (AX)(R10*1), Y0, Y0; \
	subus      32(AX)(R10*1), Y0, Y0; \
	VMOVDQU    32(DI)(R10*1), Y3; \
	maxu       Y3, Y0, Y0; \
	maxu       Y1, Y0, Y0; \
	maxu       Y0, Y2, Y2; \
	subus      Y15, Y0, Y4; \
	subus      Y14, Y3, Y3; \
	maxu       Y4, Y3, Y3; \
	VMOVDQU    Y3, 32(DI)(R10*1); \
	subus      Y14, Y1, Y1; \
	maxu       Y4, Y1, Y1; \
	VMOVDQU    (DI)(R10*1), Y5; \
	VMOVDQU    Y0, (DI)(R10*1); \
	VMOVDQA    Y5, Y0

// LAZY_TEST loads H of vector pair R10 and sets Z when F ≤ H − (open+ext)
// in every lane: no later F can raise a cell.
#define LAZY_TEST(subus) \
	VMOVDQU    (DI)(R10*1), Y0; \
	subus      Y15, Y0, Y4; \
	subus      Y4, Y1, Y6; \
	VPTEST     Y6, Y6

// LAZY_STEP raises H of vector pair R10 to F, feeds the raised H into
// the column's best and E, and decays F by ext.
#define LAZY_STEP(subus, maxu) \
	maxu       Y1, Y0, Y0; \
	VMOVDQU    Y0, (DI)(R10*1); \
	maxu       Y0, Y2, Y2; \
	subus      Y15, Y0, Y4; \
	maxu       32(DI)(R10*1), Y4, Y4; \
	VMOVDQU    Y4, 32(DI)(R10*1); \
	subus      Y14, Y1, Y1

// SETUP loads the arguments and broadcasts the packed lane constants.
#define SETUP \
	MOVQ         he_base+0(FP), DI; \
	MOVQ         he_len+8(FP), R9; \
	SHLQ         $3, R9; \
	MOVQ         prof_base+24(FP), SI; \
	MOVQ         b_base+48(FP), BX; \
	MOVQ         b_len+56(FP), CX; \
	VPBROADCASTQ openExt+72(FP), Y15; \
	VPBROADCASTQ ext+80(FP), Y14; \
	VPBROADCASTQ best+88(FP), Y13; \
	XORQ         DX, DX

// ROW points AX at the profile row of subject byte b[DX], the
// never-matches row for a byte outside the code space, and loads the
// previous column's last H vector into Y0.
#define ROW \
	MOVBQZX  (BX)(DX*1), AX; \
	MOVQ     $const_neverMatches, R8; \
	CMPQ     AX, R8; \
	CMOVQCC  R8, AX; \
	IMULQ    R9, AX; \
	ADDQ     SI, AX; \
	VMOVDQU  -64(DI)(R9*1), Y0; \
	VPXOR    Y1, Y1, Y1; \
	VPXOR    Y2, Y2, Y2; \
	XORQ     R10, R10

// func walkAVX2x8(he, prof []uint64, b []byte, openExt, ext, best uint64) (i, m int)
TEXT ·walkAVX2x8(SB), NOSPLIT, $0-112
	SETUP
	TESTQ CX, CX
	JZ    none

column:
	ROW
	SHIFT_UP(Y0, Y5, 15)

main:
	STEP(VPADDUSB, VPSUBUSB, VPMAXUB)
	ADDQ $64, R10
	CMPQ R10, R9
	JB   main

	MOVQ $32, R11

lazy:
	SHIFT_UP(Y1, Y5, 15)
	XORQ R10, R10

lazyvec:
	LAZY_TEST(VPSUBUSB)
	JZ   done
	LAZY_STEP(VPSUBUSB, VPMAXUB)
	ADDQ $64, R10
	CMPQ R10, R9
	JB   lazyvec
	DECQ R11
	JNZ  lazy

done:
	// Lanes where the column's best ≥ best compare equal to their
	// maximum with it.
	VPMAXUB   Y13, Y2, Y6
	VPCMPEQB  Y6, Y2, Y6
	VPMOVMSKB Y6, R8
	TESTL     R8, R8
	JNZ       hit
	INCQ      DX
	CMPQ      DX, CX
	JB        column

none:
	MOVQ CX, i+96(FP)
	MOVQ $0, m+104(FP)
	VZEROUPPER
	RET

hit:
	VEXTRACTI128 $1, Y2, X6
	VPMAXUB      X6, X2, X2
	VPSRLDQ      $8, X2, X6
	VPMAXUB      X6, X2, X2
	VPSRLDQ      $4, X2, X6
	VPMAXUB      X6, X2, X2
	VPSRLDQ      $2, X2, X6
	VPMAXUB      X6, X2, X2
	VPSRLDQ      $1, X2, X6
	VPMAXUB      X6, X2, X2
	VPEXTRB      $0, X2, AX
	MOVQ         DX, i+96(FP)
	MOVQ         AX, m+104(FP)
	VZEROUPPER
	RET

// func walkAVX2x16(he, prof []uint64, b []byte, openExt, ext, best uint64) (i, m int)
TEXT ·walkAVX2x16(SB), NOSPLIT, $0-112
	SETUP
	TESTQ CX, CX
	JZ    none

column:
	ROW
	SHIFT_UP(Y0, Y5, 14)

main:
	STEP(VPADDUSW, VPSUBUSW, VPMAXUW)
	ADDQ $64, R10
	CMPQ R10, R9
	JB   main

	MOVQ $16, R11

lazy:
	SHIFT_UP(Y1, Y5, 14)
	XORQ R10, R10

lazyvec:
	LAZY_TEST(VPSUBUSW)
	JZ   done
	LAZY_STEP(VPSUBUSW, VPMAXUW)
	ADDQ $64, R10
	CMPQ R10, R9
	JB   lazyvec
	DECQ R11
	JNZ  lazy

done:
	VPMAXUW   Y13, Y2, Y6
	VPCMPEQW  Y6, Y2, Y6
	VPMOVMSKB Y6, R8
	TESTL     R8, R8
	JNZ       hit
	INCQ      DX
	CMPQ      DX, CX
	JB        column

none:
	MOVQ CX, i+96(FP)
	MOVQ $0, m+104(FP)
	VZEROUPPER
	RET

hit:
	VEXTRACTI128 $1, Y2, X6
	VPMAXUW      X6, X2, X2
	VPSRLDQ      $8, X2, X6
	VPMAXUW      X6, X2, X2
	VPSRLDQ      $4, X2, X6
	VPMAXUW      X6, X2, X2
	VPSRLDQ      $2, X2, X6
	VPMAXUW      X6, X2, X2
	VPEXTRW      $0, X2, AX
	MOVQ         DX, i+96(FP)
	MOVQ         AX, m+104(FP)
	VZEROUPPER
	RET
