//go:build !unix

package align

// allocRows returns n zeroed int16s of kernel scratch and the function
// that releases them; without a wired-up mmap they live on the Go heap.
func allocRows(n int) (rows []int16, unmap func()) { return make([]int16, n), func() {} }
