//go:build linux || darwin

package exec

import (
	"syscall"
	"testing"
	"unsafe"
)

// hugeString returns an n-byte string over a read-only anonymous mapping:
// address space only, until something reads it. Tests use it for values
// past compress.MaxBytes that the code under test must reject unread.
func hugeString(t *testing.T, n int) (string, bool) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatalf("mapping %d bytes: %v", n, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(b) }) // the test is over; nothing to report
	return unsafe.String(&b[0], n), true
}
