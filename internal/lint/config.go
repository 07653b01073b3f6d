package lint

import (
	"path"
	"strings"
)

// Package roles are keyed on import-path suffixes so that both the real
// module ("vectorh/internal/exec") and analyzer golden packages checked under
// synthetic paths in tests resolve to the same rules.

// isLibraryPkg reports whether the package is engine library code — the
// domain of the context-propagation and error-wrapping invariants. Binaries
// (cmd/*) own their root contexts and render errors for humans; the
// experiments harness is a benchmark driver, not a library.
func isLibraryPkg(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/") &&
		!strings.Contains(pkgPath, "internal/lint") &&
		!strings.Contains(pkgPath, "internal/experiments")
}

// isHotPathPkg reports whether the whole package is hot-path code:
// internal/vector, internal/expr and internal/exec process millions of
// batches per query; internal/compress runs per value on both sides of
// storage — the decoders inside every scan, the encoders under every bulk
// load; and the distributed exchange runs per batch in internal/mpp's send
// buffers and per message in internal/mpi's codec. So the
// no-map[string]/no-Sprintf regression guard of the hash layer applies to
// every file of them. (The one string-keyed map compress keeps, the PDICT
// dictionary build, is an audited suppression; expr's IN sets are sorted
// slices and its String methods write through one strings.Builder.)
func isHotPathPkg(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/vector") ||
		strings.HasSuffix(pkgPath, "internal/expr") ||
		strings.HasSuffix(pkgPath, "internal/exec") ||
		strings.HasSuffix(pkgPath, "internal/compress") ||
		strings.HasSuffix(pkgPath, "internal/mpi") ||
		strings.HasSuffix(pkgPath, "internal/mpp")
}

// isHotPathFile reports whether one file of a package is hot-path code even
// though its package is not: the MScan inner loop lives in internal/core next
// to cold catalog code (whose map[string] tables are fine), and colstore's
// Appender and Scanner share store.go while the metadata around them
// formats paths and JSON.
func isHotPathFile(pkgPath, filename string) bool {
	switch {
	case strings.HasSuffix(pkgPath, "internal/core"):
		return path.Base(filename) == "scan.go"
	case strings.HasSuffix(pkgPath, "internal/colstore"):
		return path.Base(filename) == "store.go"
	}
	return false
}

// isSQLPkg reports whether the package is the SQL text front-end, where every
// user-facing error must carry a 1-based line:col position via errf.
func isSQLPkg(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/sql")
}
