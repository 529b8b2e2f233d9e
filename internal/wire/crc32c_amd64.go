package wire

// castagnoliVPCLMUL folds p into the CRC-32C state crc with VPCLMULQDQ
// on ZMM registers (crc32c_amd64.s). crc is the running state as the
// algorithm sees it, not inverted; len(p) must be at least 256 and a
// multiple of 64.
//
//go:noescape
func castagnoliVPCLMUL(crc uint32, p []byte) uint32

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// vectorCRCSupported reports whether this CPU has the kernel's
// instructions (AVX512F, VPCLMULQDQ, PCLMULQDQ, SSE4.1) and the OS
// saves the ZMM state across context switches.
func vectorCRCSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const pclmulqdq, sse41, osxsave = 1 << 1, 1 << 19, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&(pclmulqdq|sse41|osxsave) != pclmulqdq|sse41|osxsave {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31.
	const zmmState = 0xE6
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, vpclmulqdq = 1 << 16, 1 << 10
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ecx&vpclmulqdq != 0
}
