//go:build unix

package align

import (
	"syscall"
	"unsafe"
)

// allocRows returns n zeroed int16s of kernel scratch off the Go heap,
// in an anonymous private mapping, and the function that unmaps them.
// The kept rows of a pass are the largest thing a search keeps between
// searches (hundreds of kB per worker), and on the heap they would
// count toward the GC's pacing: a small process, whose heap goal sits
// at the 4 MB floor, would collect half again as often. When the
// mapping fails the rows come from the heap.
func allocRows(n int) (rows []int16, unmap func()) {
	mem, err := syscall.Mmap(-1, 0, 2*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]int16, n), func() {}
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&mem[0])), n), func() { syscall.Munmap(mem) }
}
