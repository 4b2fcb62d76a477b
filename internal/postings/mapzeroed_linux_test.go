//go:build linux

package postings

import (
	"strconv"
	"syscall"
	"unsafe"
)

// mapZeroed returns n zeroed lengths and n zeroed parameters in private
// anonymous mappings made without swap reservation: a page costs memory
// only once written, and a read of an unwritten page maps the shared
// zero page. The mappings live as long as the test binary. ok is false
// on 32-bit platforms, whose address space cannot hold them, or when
// the kernel refuses the mapping.
func mapZeroed(n int) (lens []int32, rice1 []uint8, ok bool) {
	if strconv.IntSize < 64 {
		return nil, nil, false
	}
	mapAnon := func(size int) []byte {
		b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
		if err != nil {
			return nil
		}
		return b
	}
	l := mapAnon(4 * n)
	if l == nil {
		return nil, nil, false
	}
	r := mapAnon(n)
	if r == nil {
		syscall.Munmap(l)
		return nil, nil, false
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&l[0])), n), r, true
}
