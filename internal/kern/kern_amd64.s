//go:build !race

#include "textflag.h"

// SSE2 row bodies for the CG hot path and the Chebyshev and PPCG updates.
// Each runs cells [0, n) of its row, n even and at least two, one pair of
// cells (i, i+1) per packed instruction in the two lanes of an X register. Lane by lane every body
// makes the IEEE operations of its Go reference in kern.go in the same order
// (no fused multiply-add on either side), and a reduction adds the pair's two
// products to the scalar accumulator low lane first, then high: the Go
// reference's left-to-right order. The Go wrappers are in kern_amd64.go.

// OPERATOR_PAIR leaves w = A s of cells AX and AX+1 in X4 and s of those
// cells in X5: X4 = ((((1+kx1)+kx0)+ky1)+ky0)*sc - (kx1*sr + kx0*sl)
// - (ky1*su + ky0*sd). SI points at src cell -1 and R10 at kx cell 0, so
// sl, sc and sr are SI at byte offsets 0, 8 and 16, and kx0 and kx1 R10 at
// 0 and 8. R8 is su, R9 sd, R11 ky and R12 kyu, all at cell 0; X12 holds
// 1.0 in both lanes.
#define OPERATOR_PAIR \
	MOVUPD 8(R10)(AX*8), X0; \
	MOVUPD (R10)(AX*8), X1; \
	MOVUPD (R12)(AX*8), X2; \
	MOVUPD (R11)(AX*8), X3; \
	MOVAPD X12, X4; \
	ADDPD  X0, X4; \
	ADDPD  X1, X4; \
	ADDPD  X2, X4; \
	ADDPD  X3, X4; \
	MOVUPD 8(SI)(AX*8), X5; \
	MULPD  X5, X4; \
	MOVUPD 16(SI)(AX*8), X6; \
	MULPD  X6, X0; \
	MOVUPD (SI)(AX*8), X7; \
	MULPD  X7, X1; \
	ADDPD  X1, X0; \
	SUBPD  X0, X4; \
	MOVUPD (R8)(AX*8), X8; \
	MULPD  X8, X2; \
	MOVUPD (R9)(AX*8), X9; \
	MULPD  X9, X3; \
	ADDPD  X3, X2; \
	SUBPD  X2, X4

// UPDATE_UR_PAIR updates u and r of cells AX and AX+1, u += alpha*p and
// r -= alpha*w, and leaves the new r in X4. DI is u, SI p, DX r and R8 w;
// X12 holds alpha in both lanes.
#define UPDATE_UR_PAIR \
	MOVAPD X12, X0; \
	MOVUPD (SI)(AX*8), X1; \
	MULPD  X1, X0; \
	MOVUPD (DI)(AX*8), X2; \
	ADDPD  X0, X2; \
	MOVUPD X2, (DI)(AX*8); \
	MOVAPD X12, X3; \
	MOVUPD (R8)(AX*8), X1; \
	MULPD  X1, X3; \
	MOVUPD (DX)(AX*8), X4; \
	SUBPD  X3, X4; \
	MOVUPD X4, (DX)(AX*8)

// ACC_PAIR adds the low lane of x, then its high lane, to the accumulator
// in X13.
#define ACC_PAIR(x) \
	ADDSD    x, X13; \
	UNPCKHPD x, x; \
	ADDSD    x, X13

// ONES puts 1.0 in both lanes of X12.
#define ONES \
	MOVQ     $0x3ff0000000000000, AX; \
	MOVQ     AX, X12; \
	UNPCKLPD X12, X12

// func operatorDotSSE2(acc float64, dst, s, su, sd, kx, ky, kyu *float64, n int) float64
TEXT ·operatorDotSSE2(SB), NOSPLIT, $0-80
	MOVSD acc+0(FP), X13
	MOVQ  dst+8(FP), DI
	MOVQ  s+16(FP), SI
	MOVQ  su+24(FP), R8
	MOVQ  sd+32(FP), R9
	MOVQ  kx+40(FP), R10
	MOVQ  ky+48(FP), R11
	MOVQ  kyu+56(FP), R12
	MOVQ  n+64(FP), CX
	ONES
	XORQ  AX, AX

loop:
	OPERATOR_PAIR
	MOVUPD X4, (DI)(AX*8)
	MULPD  X4, X5
	ACC_PAIR(X5)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	MOVSD  X13, ret+72(FP)
	RET

// func updateURDotSSE2(acc float64, u, p, r, w *float64, alpha float64, n int) float64
TEXT ·updateURDotSSE2(SB), NOSPLIT, $0-64
	MOVSD    acc+0(FP), X13
	MOVQ     u+8(FP), DI
	MOVQ     p+16(FP), SI
	MOVQ     r+24(FP), DX
	MOVQ     w+32(FP), R8
	MOVSD    alpha+40(FP), X12
	UNPCKLPD X12, X12
	MOVQ     n+48(FP), CX
	XORQ     AX, AX

loop:
	UPDATE_UR_PAIR
	MOVAPD X4, X5
	MULPD  X4, X5
	ACC_PAIR(X5)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	MOVSD  X13, ret+56(FP)
	RET

// func updateURZDotSSE2(acc float64, u, p, r, w, mi, z *float64, alpha float64, n int) float64
TEXT ·updateURZDotSSE2(SB), NOSPLIT, $0-80
	MOVSD    acc+0(FP), X13
	MOVQ     u+8(FP), DI
	MOVQ     p+16(FP), SI
	MOVQ     r+24(FP), DX
	MOVQ     w+32(FP), R8
	MOVQ     mi+40(FP), R9
	MOVQ     z+48(FP), R10
	MOVSD    alpha+56(FP), X12
	UNPCKLPD X12, X12
	MOVQ     n+64(FP), CX
	XORQ     AX, AX

loop:
	UPDATE_UR_PAIR
	MOVUPD (R9)(AX*8), X5
	MULPD  X4, X5
	MOVUPD X5, (R10)(AX*8)
	MULPD  X5, X4
	ACC_PAIR(X4)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	MOVSD  X13, ret+72(FP)
	RET

// func xpbySSE2(p, src *float64, beta float64, n int)
TEXT ·xpbySSE2(SB), NOSPLIT, $0-32
	MOVQ     p+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVSD    beta+16(FP), X12
	UNPCKLPD X12, X12
	MOVQ     n+24(FP), CX
	XORQ     AX, AX

loop:
	MOVAPD X12, X0
	MOVUPD (DI)(AX*8), X1
	MULPD  X1, X0
	MOVUPD (SI)(AX*8), X2
	ADDPD  X0, X2
	MOVUPD X2, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	RET

// func operatorSubSSE2(w, s, su, sd, kx, ky, kyu, a, dst *float64, n int)
TEXT ·operatorSubSSE2(SB), NOSPLIT, $0-80
	MOVQ w+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ su+16(FP), R8
	MOVQ sd+24(FP), R9
	MOVQ kx+32(FP), R10
	MOVQ ky+40(FP), R11
	MOVQ kyu+48(FP), R12
	MOVQ a+56(FP), DX
	MOVQ dst+64(FP), BX
	MOVQ n+72(FP), CX
	ONES
	XORQ AX, AX

loop:
	OPERATOR_PAIR
	MOVUPD X4, (DI)(AX*8)
	MOVUPD (DX)(AX*8), X5
	SUBPD  X4, X5
	MOVUPD X5, (BX)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	RET

// func chebySSE2(sd, u, src *float64, alpha, beta float64, n int)
TEXT ·chebySSE2(SB), NOSPLIT, $0-48
	MOVQ     sd+0(FP), DI
	MOVQ     u+8(FP), SI
	MOVQ     src+16(FP), DX
	MOVSD    alpha+24(FP), X12
	UNPCKLPD X12, X12
	MOVSD    beta+32(FP), X11
	UNPCKLPD X11, X11
	MOVQ     n+40(FP), CX
	XORQ     AX, AX

loop:
	MOVUPD (DI)(AX*8), X0
	MULPD  X12, X0
	MOVUPD (DX)(AX*8), X1
	MULPD  X11, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(AX*8)
	MOVUPD (SI)(AX*8), X2
	ADDPD  X0, X2
	MOVUPD X2, (SI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	RET

// func ppcgInnerSSE2(z, sd, rt, w *float64, alpha, beta float64, n int)
TEXT ·ppcgInnerSSE2(SB), NOSPLIT, $0-56
	MOVQ     z+0(FP), DI
	MOVQ     sd+8(FP), SI
	MOVQ     rt+16(FP), DX
	MOVQ     w+24(FP), R8
	MOVSD    alpha+32(FP), X12
	UNPCKLPD X12, X12
	MOVSD    beta+40(FP), X11
	UNPCKLPD X11, X11
	MOVQ     n+48(FP), CX
	XORQ     AX, AX

loop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD (DI)(AX*8), X1
	ADDPD  X0, X1
	MOVUPD X1, (DI)(AX*8)
	MOVUPD (DX)(AX*8), X2
	MOVUPD (R8)(AX*8), X3
	SUBPD  X3, X2
	MOVUPD X2, (DX)(AX*8)
	MULPD  X12, X0
	MULPD  X11, X2
	ADDPD  X2, X0
	MOVUPD X0, (SI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    loop
	RET
