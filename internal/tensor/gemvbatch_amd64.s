//go:build !purego

#include "textflag.h"

// ROWDOT computes one row's contribution for one 4-wide k chunk and
// adds it to the row's accumulator. X0..X3 hold panel entries k..k+3
// (four instances each); each weight is broadcast to all four lanes,
// so lane i runs Gemv's t = w0*x0; t += w1*x1; t += w2*x2;
// t += w3*x3; sum += t for instance i. MULPS and ADDPS only: no FMA.
#define ROWDOT(row, acc) \
	MOVSS   0(row)(DX*1), X4 \
	SHUFPS  $0x00, X4, X4    \
	MULPS   X0, X4           \
	MOVSS   4(row)(DX*1), X5 \
	SHUFPS  $0x00, X5, X5    \
	MULPS   X1, X5           \
	ADDPS   X5, X4           \
	MOVSS   8(row)(DX*1), X6 \
	SHUFPS  $0x00, X6, X6    \
	MULPS   X2, X6           \
	ADDPS   X6, X4           \
	MOVSS   12(row)(DX*1), X7 \
	SHUFPS  $0x00, X7, X7    \
	MULPS   X3, X7           \
	ADDPS   X7, X4           \
	ADDPS   X4, acc

// ROWTAIL adds one tail element's product: sum += w*x per lane.
#define ROWTAIL(row, acc) \
	MOVSS   (row)(DX*1), X4 \
	SHUFPS  $0x00, X4, X4   \
	MULPS   X0, X4          \
	ADDPS   X4, acc

// func gemvPanel4(rows, n int, a, panel, y []float32, ldy int)
TEXT ·gemvPanel4(SB), NOSPLIT, $0-96
	MOVQ rows+0(FP), CX
	MOVQ n+8(FP), R9
	MOVQ a_base+16(FP), SI
	MOVQ panel_base+40(FP), BX
	MOVQ y_base+64(FP), DI
	MOVQ ldy+88(FP), R8
	SHLQ $2, R8               // R8: output stride per instance, bytes
	MOVQ R9, R10
	ANDQ $-4, R10
	SHLQ $2, R10              // R10: byte offset where the 4-wide chunks end
	SHLQ $2, R9               // R9: row length in bytes

tile:
	TESTQ CX, CX
	JZ    done
	LEAQ  (SI)(R9*1), R12     // rows 1..3 of the tile
	LEAQ  (R12)(R9*1), R13
	LEAQ  (R13)(R9*1), R14
	XORPS X8, X8              // one accumulator per row, lanes = instances
	XORPS X9, X9
	XORPS X10, X10
	XORPS X11, X11
	MOVQ  BX, AX              // AX: panel cursor
	XORQ  DX, DX              // DX: byte offset within the rows

chunk:
	CMPQ   DX, R10
	JGE    tail
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	ROWDOT(SI, X8)
	ROWDOT(R12, X9)
	ROWDOT(R13, X10)
	ROWDOT(R14, X11)
	ADDQ   $64, AX
	ADDQ   $16, DX
	JMP    chunk

tail:
	CMPQ   DX, R9
	JGE    store
	MOVUPS (AX), X0
	ROWTAIL(SI, X8)
	ROWTAIL(R12, X9)
	ROWTAIL(R13, X10)
	ROWTAIL(R14, X11)
	ADDQ   $16, AX
	ADDQ   $4, DX
	JMP    tail

store:
	// Transpose the 4×4 tile from row-major lanes (X8..X11: one row,
	// four instances) to one register per instance (four rows).
	MOVAPS   X8, X0
	UNPCKLPS X9, X0           // r0i0 r1i0 r0i1 r1i1
	MOVAPS   X8, X1
	UNPCKHPS X9, X1           // r0i2 r1i2 r0i3 r1i3
	MOVAPS   X10, X2
	UNPCKLPS X11, X2          // r2i0 r3i0 r2i1 r3i1
	MOVAPS   X10, X3
	UNPCKHPS X11, X3          // r2i2 r3i2 r2i3 r3i3
	MOVAPS   X0, X4
	MOVLHPS  X2, X4           // instance 0
	MOVHLPS  X0, X2           // instance 1
	MOVAPS   X1, X5
	MOVLHPS  X3, X5           // instance 2
	MOVHLPS  X1, X3           // instance 3
	MOVUPS   X4, (DI)
	MOVUPS   X2, (DI)(R8*1)
	MOVUPS   X5, (DI)(R8*2)
	LEAQ     (R8)(R8*2), AX
	MOVUPS   X3, (DI)(AX*1)

	LEAQ (SI)(R9*4), SI       // next 4 rows
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  tile

done:
	RET
