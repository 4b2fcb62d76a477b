#include "go_asm.h"
#include "textflag.h"

// The striped column of striped.go's stripedColumn in YMM registers:
// walkAVX2x8 runs 32 unsigned byte lanes a vector, walkAVX2x16 16 word
// lanes. Both walk subject columns until one holds a lane at or above
// best, with the same biased profile, H/E interleaving, cross-lane scan
// of F and correction sweep as the uint64 route, ⌈n/lanes⌉ vector pairs
// a column. The scan runs the profile's steps only (decay_len of them,
// at most 5 on byte lanes and 4 on word lanes), each a predictable
// branch on R11.
//
// Registers: DI the H/E column, SI the profile, R9 the bytes of one H/E
// column (and of one profile row), BX and CX the subject and its length,
// DX the subject column, AX its profile row, R10 the byte offset of the
// vector pair, R11 the scan's steps. Y15, Y14 and Y13 hold open+ext, ext
// and best in every lane, Y7–Y11 the decays of scan steps 1, 2, 4, 8 and
// 16 lanes; Y0 is H, Y1 F, Y2 the column's best, Y3–Y6 temporaries.

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

// SCAN_STEP is one step of the cross-lane scan of F: F = max(F, F moved
// up by 16−n bytes' worth of lanes, less the step's decay d). The low
// half moves into the high one as in SHIFT_UP; n = 0 is a whole half,
// which VPERM2I128 alone moves.
#define SCAN_STEP(n, d, subus, maxu) \
	VPERM2I128 $0x08, Y1, Y1, Y5; \
	VPALIGNR   $n, Y5, Y1, Y5; \
	subus      d, Y5, Y5; \
	maxu       Y5, Y1, Y1

// CORRECT_TEST loads H of vector pair R10 and sets Z when F ≤ H −
// (open+ext) in every lane: the main loop's F dominates this one from
// here on, so the sweep raises no later cell.
#define CORRECT_TEST(subus) \
	VMOVDQU    (DI)(R10*1), Y0; \
	subus      Y15, Y0, Y4; \
	subus      Y4, Y1, Y6; \
	VPTEST     Y6, Y6

// CORRECT_STEP raises H of vector pair R10 to F, feeds the raised H into
// the column's best, and decays F by ext. It leaves E as the main loop
// fed it, as stripedColumn does: a raised cell's E would hold a path that
// runs down the column and turns right, and the path that turns right
// first and runs down the next column reaches the same cell with the
// same value, so no H depends on it (EXPERIMENTS E29).
#define CORRECT_STEP(subus, maxu) \
	maxu       Y1, Y0, Y0; \
	VMOVDQU    Y0, (DI)(R10*1); \
	maxu       Y0, Y2, Y2; \
	subus      Y14, Y1, Y1

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

// func walkAVX2x8(he, prof, decay []uint64, b []byte, openExt, ext, best uint64) (i, m int)
TEXT ·walkAVX2x8(SB), NOSPLIT, $0-136
	MOVQ         he_base+0(FP), DI
	MOVQ         he_len+8(FP), R9
	SHLQ         $3, R9
	MOVQ         prof_base+24(FP), SI
	MOVQ         decay_base+48(FP), R8
	MOVQ         decay_len+56(FP), R11
	MOVQ         b_base+72(FP), BX
	MOVQ         b_len+80(FP), CX
	VPBROADCASTQ openExt+96(FP), Y15
	VPBROADCASTQ ext+104(FP), Y14
	VPBROADCASTQ best+112(FP), Y13
	XORQ         DX, DX

	// The decays of the profile's scan steps.
	CMPQ         R11, $1
	JB           decayed
	VPBROADCASTQ (R8), Y7
	CMPQ         R11, $2
	JB           decayed
	VPBROADCASTQ 8(R8), Y8
	CMPQ         R11, $3
	JB           decayed
	VPBROADCASTQ 16(R8), Y9
	CMPQ         R11, $4
	JB           decayed
	VPBROADCASTQ 24(R8), Y10
	CMPQ         R11, $5
	JB           decayed
	VPBROADCASTQ 32(R8), Y11

decayed:
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

	// What each stripe passes down, one lane up. When it raises no cell
	// of the first vector, or no lane of it exceeds the first scan step's
	// decay, the scan would change nothing (see stripedColumn); else scan
	// it into the F entering each stripe from the stripes above, and
	// sweep from the first vector, whose test has failed.
	SHIFT_UP(Y1, Y5, 15)
	XORQ R10, R10
	CORRECT_TEST(VPSUBUSB)
	JZ   done
	CMPQ R11, $1
	JB   raise
	VPSUBUSB  Y7, Y1, Y5
	VPTEST    Y5, Y5
	JZ        raise
	SCAN_STEP(15, Y7, VPSUBUSB, VPMAXUB)
	CMPQ R11, $2
	JB   raise
	SCAN_STEP(14, Y8, VPSUBUSB, VPMAXUB)
	CMPQ R11, $3
	JB   raise
	SCAN_STEP(12, Y9, VPSUBUSB, VPMAXUB)
	CMPQ R11, $4
	JB   raise
	SCAN_STEP(8, Y10, VPSUBUSB, VPMAXUB)
	CMPQ R11, $5
	JB   raise
	SCAN_STEP(0, Y11, VPSUBUSB, VPMAXUB)

raise:
	CORRECT_STEP(VPSUBUSB, VPMAXUB)
	ADDQ $64, R10
	CMPQ R10, R9
	JAE  done
	CORRECT_TEST(VPSUBUSB)
	JNZ  raise

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
	MOVQ CX, i+120(FP)
	MOVQ $0, m+128(FP)
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
	MOVQ         DX, i+120(FP)
	MOVQ         AX, m+128(FP)
	VZEROUPPER
	RET

// func walkAVX2x16(he, prof, decay []uint64, b []byte, openExt, ext, best uint64) (i, m int)
TEXT ·walkAVX2x16(SB), NOSPLIT, $0-136
	MOVQ         he_base+0(FP), DI
	MOVQ         he_len+8(FP), R9
	SHLQ         $3, R9
	MOVQ         prof_base+24(FP), SI
	MOVQ         decay_base+48(FP), R8
	MOVQ         decay_len+56(FP), R11
	MOVQ         b_base+72(FP), BX
	MOVQ         b_len+80(FP), CX
	VPBROADCASTQ openExt+96(FP), Y15
	VPBROADCASTQ ext+104(FP), Y14
	VPBROADCASTQ best+112(FP), Y13
	XORQ         DX, DX

	CMPQ         R11, $1
	JB           decayed
	VPBROADCASTQ (R8), Y7
	CMPQ         R11, $2
	JB           decayed
	VPBROADCASTQ 8(R8), Y8
	CMPQ         R11, $3
	JB           decayed
	VPBROADCASTQ 16(R8), Y9
	CMPQ         R11, $4
	JB           decayed
	VPBROADCASTQ 24(R8), Y10

decayed:
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

	SHIFT_UP(Y1, Y5, 14)
	XORQ R10, R10
	CORRECT_TEST(VPSUBUSW)
	JZ   done
	CMPQ R11, $1
	JB   raise
	VPSUBUSW  Y7, Y1, Y5
	VPTEST    Y5, Y5
	JZ        raise
	SCAN_STEP(14, Y7, VPSUBUSW, VPMAXUW)
	CMPQ R11, $2
	JB   raise
	SCAN_STEP(12, Y8, VPSUBUSW, VPMAXUW)
	CMPQ R11, $3
	JB   raise
	SCAN_STEP(8, Y9, VPSUBUSW, VPMAXUW)
	CMPQ R11, $4
	JB   raise
	SCAN_STEP(0, Y10, VPSUBUSW, VPMAXUW)

raise:
	CORRECT_STEP(VPSUBUSW, VPMAXUW)
	ADDQ $64, R10
	CMPQ R10, R9
	JAE  done
	CORRECT_TEST(VPSUBUSW)
	JNZ  raise

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
	MOVQ CX, i+120(FP)
	MOVQ $0, m+128(FP)
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
	MOVQ         DX, i+120(FP)
	MOVQ         AX, m+128(FP)
	VZEROUPPER
	RET
