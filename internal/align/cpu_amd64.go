package align

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the
// operating system saves across context switches.
func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU executes AVX2 and the operating system
// saves the YMM registers: CPUID leaf 1 ECX bit 27 (OSXSAVE, so XGETBV
// may run) and bit 28 (AVX), XCR0 bits 1 and 2 (XMM and YMM state), and
// leaf 7 EBX bit 5 (AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// vectorRoute returns the AVX2 route and whether this CPU can take it.
func vectorRoute() (route, bool) { return avx2, hasAVX2() }
