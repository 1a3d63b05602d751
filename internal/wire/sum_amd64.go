package wire

// haveAVX2 reports whether sum may call sumAVX2: the CPU implements AVX2
// and the OS saves the YMM registers across context switches. It is read
// once, at package initialization.
var haveAVX2 = detectAVX2()

// sumAVX2 returns the sum of b's little-endian 16-bit words as an exact
// integer. len(b) must be a multiple of 32 and at most avx2MaxLen.
// Implemented in sum_amd64.s.
//
//go:noescape
func sumAVX2(b []byte) uint64

// cpuid executes CPUID with the given leaf and subleaf. Implemented in
// sum_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register XCR0.
// Implemented in sum_amd64.s.
func xgetbv() (eax uint32)

// detectAVX2 follows the detection sequence of Intel's Software
// Developer's Manual: CPUID leaf 1 reports OSXSAVE (ECX bit 27) and AVX
// (ECX bit 28), XCR0 shows the OS saves XMM and YMM state (bits 1 and
// 2), and CPUID leaf 7 reports AVX2 (EBX bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
