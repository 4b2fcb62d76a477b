package align

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestVectorRouteMatchesCPUInfo holds the CPUID detection to the flags
// Linux lists in /proc/cpuinfo. A detector that wrongly said no would
// send every exact query down the uint64 route and every banded pass down
// the Go pass, and keep every other test green. Linux lists avx2 only
// when it saves the YMM state (it clears AVX and AVX2 when XSAVE is
// off), and lists the operating-system half as osxsave on some kernels
// and only as xsave on others, so either counts.
// The test logs both kernels' routes, and the lane widths the banded
// passes run in, so a verbose run shows which kernels the machine
// tested.
func TestVectorRouteMatchesCPUInfo(t *testing.T) {
	lanes := "int32 cells"
	if fastestPass.score16 != nil {
		lanes = "int16 lanes where a pass fits them, int32 lanes otherwise"
	}
	t.Logf("striped kernel route: %s; banded pass route: %s, %s", fastest.name, fastestPass.name, lanes)
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := flags["avx2"] && (flags["osxsave"] || flags["xsave"])
	if _, got := vectorRoute(); got != want {
		t.Fatalf("CPUID says AVX2 usable %v; /proc/cpuinfo says %v (avx2 %v, osxsave %v, xsave %v)",
			got, want, flags["avx2"], flags["osxsave"], flags["xsave"])
	}
	if (fastest.name == avx2.name) != want {
		t.Fatalf("Build takes the %s route with AVX2 usable %v", fastest.name, want)
	}
	if _, got := vectorPass(); got != want || (fastestPass == &goPass) == want {
		t.Fatalf("the banded passes take the %s route (vector pass %v) with AVX2 usable %v", fastestPass.name, got, want)
	}
}
