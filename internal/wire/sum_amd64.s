#include "textflag.h"

// func sumAVX2(b []byte) uint64
//
// Returns the sum of b's little-endian 16-bit words as an exact integer.
// len(b) must be a multiple of 32, and at most avx2MaxLen so that no
// 32-bit lane overflows.
//
// Each 32-byte step loads eight dwords d = lo + hi<<16 and takes three
// vector ops: R += d and H += d>>16, lane by lane. H is then the exact
// sum of the high halves, and R is the sum of the low halves plus H<<16,
// modulo 2^32; so the low halves' sum is R - H<<16, modulo 2^32, which is
// exact while it stays below 2^32. Either sum gains at most 0xffff a
// step in each lane. The loop takes two steps at a time, into two pairs
// (Y0, Y1) and (Y2, Y3), so no add waits on the one before it; a last
// odd step goes into the first pair.
TEXT ·sumAVX2(SB), NOSPLIT, $0-32
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

	// CX holds the bytes left minus 64; the loop runs while that is >= 0.
	SUBQ $64, CX
	JB   tail

loop:
	VMOVDQU (SI), Y4
	VMOVDQU 32(SI), Y5
	VPADDD  Y4, Y0, Y0
	VPSRLD  $16, Y4, Y4
	VPADDD  Y5, Y2, Y2
	VPSRLD  $16, Y5, Y5
	VPADDD  Y4, Y1, Y1
	VPADDD  Y5, Y3, Y3
	ADDQ    $64, SI
	SUBQ    $64, CX
	JAE     loop

tail:
	ADDQ $64, CX // bytes left: 0 or 32
	JZ   reduce
	VMOVDQU (SI), Y4
	VPADDD  Y4, Y0, Y0
	VPSRLD  $16, Y4, Y4
	VPADDD  Y4, Y1, Y1

reduce:
	// Turn each R into the low halves' sum and add the four accumulators
	// lane by lane: each lane of the total gains at most 0xffff per 16
	// bytes of b, so it stays below 2^32 within avx2MaxLen.
	VPSLLD $16, Y1, Y4
	VPSUBD Y4, Y0, Y0
	VPSLLD $16, Y3, Y5
	VPSUBD Y5, Y2, Y2
	VPADDD Y1, Y0, Y0
	VPADDD Y3, Y2, Y2
	VPADDD Y2, Y0, Y0

	// Add the eight lanes as 64-bit integers: the odd dwords shifted down
	// plus the even dwords with the odd ones blended to zero.
	VPSRLQ   $32, Y0, Y1
	VPXOR    Y2, Y2, Y2
	VPBLENDD $0xaa, Y2, Y0, Y0
	VPADDQ   Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ   X1, X0, X0
	VPSHUFD  $0x4e, X0, X1 // swap the two quadwords
	VPADDQ   X1, X0, X0
	VMOVQ    X0, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
