#include "textflag.h"

// CRC-32C (Castagnoli) by carry-less multiplication, 256 bytes per loop
// iteration on four ZMM accumulators. The method is the folding of the
// Intel white paper "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", in the bit-reflected form hash/crc32's
// ieeeCLMUL uses: each 128-bit lane of an accumulator is multiplied
// forward by x^(D±32) mod P (its low and high quadwords respectively)
// and xored onto the lane D bits further on. The constants are the
// 33-bit reflected remainders; TestVectorCRCConstants recomputes every
// one of them from the polynomial.

// Fold distance 2048 bits: four ZMM accumulators onto the next 256 bytes.
DATA fold2048<>+0(SB)/8, $0x0dcb17aa4 // x^(2048+32) mod P
DATA fold2048<>+8(SB)/8, $0x0b9e02b86 // x^(2048-32) mod P
GLOBL fold2048<>(SB), RODATA, $16

// Fold distance 512 bits: one ZMM onto the next.
DATA fold512<>+0(SB)/8, $0x0740eef02 // x^(512+32) mod P
DATA fold512<>+8(SB)/8, $0x09e4addf8 // x^(512-32) mod P
GLOBL fold512<>(SB), RODATA, $16

// Fold distance 128 bits: one XMM lane onto the next.
DATA fold128<>+0(SB)/8, $0x0f20c0dfe // x^(128+32) mod P
DATA fold128<>+8(SB)/8, $0x14cd00bd6 // x^(128-32) mod P
GLOBL fold128<>(SB), RODATA, $16

DATA fold64<>+0(SB)/8, $0x0dd45aab8 // x^64 mod P
GLOBL fold64<>(SB), RODATA, $8

// Barrett reduction: P' (the polynomial) and μ = floor(x^64 / P).
DATA barrett<>+0(SB)/8, $0x105ec76f1
DATA barrett<>+8(SB)/8, $0x0dea713f1
GLOBL barrett<>(SB), RODATA, $16

// func castagnoliVPCLMUL(crc uint32, p []byte) uint32
//
// crc is the unreflected running state (not inverted). len(p) must be
// at least 256 and a multiple of 64.
TEXT ·castagnoliVPCLMUL(SB), NOSPLIT, $0-36
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVL crc+0(FP), AX
	VMOVD AX, X4
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ Z4, Z0, Z0
	ADDQ $256, SI
	SUBQ $256, CX
	CMPQ CX, $256
	JB fold4to1

	VBROADCASTI32X4 fold2048<>(SB), Z4

loop256:
	VMOVDQU64 0(SI), Z8
	VMOVDQU64 64(SI), Z9
	VMOVDQU64 128(SI), Z10
	VMOVDQU64 192(SI), Z11
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z12
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGD $0x96, Z5, Z8, Z0
	VPTERNLOGD $0x96, Z6, Z9, Z1
	VPTERNLOGD $0x96, Z7, Z10, Z2
	VPTERNLOGD $0x96, Z12, Z11, Z3
	ADDQ $256, SI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE loop256

fold4to1:
	// Z0 onto Z1, then onto Z2, then onto Z3: one ZMM.
	VBROADCASTI32X4 fold512<>(SB), Z4
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, Z5, Z1, Z0
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, Z5, Z2, Z0
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, Z5, Z3, Z0
	TESTQ CX, CX
	JZ fold1to128

loop64:
	VMOVDQU64 0(SI), Z8
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, Z5, Z8, Z0
	ADDQ $64, SI
	SUBQ $64, CX
	JNZ loop64

fold1to128:
	// The four lanes of Z0 fold into X0 at distance 128 bits. The ZMM
	// work is done: clear the upper state before the SSE instructions.
	VEXTRACTI32X4 $1, Z0, X1
	VEXTRACTI32X4 $2, Z0, X2
	VEXTRACTI32X4 $3, Z0, X3
	VZEROUPPER

	MOVOU fold128<>(SB), X4
	MOVOU X0, X5
	PCLMULQDQ $0x00, X4, X0
	PCLMULQDQ $0x11, X4, X5
	PXOR X5, X0
	PXOR X1, X0
	MOVOU X0, X5
	PCLMULQDQ $0x00, X4, X0
	PCLMULQDQ $0x11, X4, X5
	PXOR X5, X0
	PXOR X2, X0
	MOVOU X0, X5
	PCLMULQDQ $0x00, X4, X0
	PCLMULQDQ $0x11, X4, X5
	PXOR X5, X0
	PXOR X3, X0

	// 128 bits to 64, then the Barrett reduction to 32, as in
	// hash/crc32's ieeeCLMUL.
	PCMPEQB X3, X3
	PCLMULQDQ $0x01, X0, X4 // low quadword × x^96
	PSRLDQ $8, X0
	PXOR X4, X0

	MOVOU X0, X2
	MOVQ fold64<>(SB), X4
	PSRLQ $32, X3 // 32-bit mask in each quadword
	PSRLDQ $4, X2
	PAND X3, X0
	PCLMULQDQ $0x00, X4, X0
	PXOR X2, X0

	MOVOU barrett<>(SB), X4
	MOVOU X0, X2
	PAND X3, X0
	PCLMULQDQ $0x10, X4, X0 // × μ
	PAND X3, X0
	PCLMULQDQ $0x00, X4, X0 // × P'
	PXOR X2, X0

	PEXTRD $1, X0, AX
	MOVL AX, ret+32(FP)
	RET

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

// func xgetbv() uint32
//
// The low word of XCR0. Only call it when CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
