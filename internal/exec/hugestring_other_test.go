//go:build !(linux || darwin)

package exec

import "testing"

// hugeString needs an anonymous mapping (hugestring_unix_test.go); without
// one the cases that use it are left out.
func hugeString(t *testing.T, n int) (string, bool) { return "", false }
