package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc is the permanent regression guard for the hash-layer work:
// the per-batch packages (internal/vector, internal/expr, internal/exec), the
// codecs (internal/compress), the distributed exchange (internal/mpi,
// internal/mpp), colstore's Appender/Scanner file and the MScan files in
// internal/core must never regress to stringly-typed per-row work.
//
// In those files it forbids:
//   - map types with string keys (the old per-row serialization idiom the
//     vectorized hash layer replaced),
//   - fmt.Sprintf inside loops (allowed as a panic argument — assertions
//     fire once, not per row),
//   - string concatenation (`+`, `+=`) inside loops.
//
// //lint:hotpath suppresses audited cold-path sites (setup code that happens
// to live in a hot-path file).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Key:  "hotpath",
	Doc: "no map[string], fmt.Sprintf or per-row string concatenation in " +
		"internal/vector, internal/expr, internal/exec, internal/compress, internal/mpi, internal/mpp, " +
		"colstore/store.go or the MScan path",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	wholePkg := isHotPathPkg(pkgPath)
	for _, file := range pass.Files {
		if !wholePkg && !isHotPathFile(pkgPath, pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				if isStringType(pass.TypesInfo, n.Key) {
					pass.Reportf(n.Pos(), "map[string] in hot-path code: key through the vectorized hash layer (exec.HashTable) instead")
				}
			case *ast.CallExpr:
				if isPkgFunc(pass.TypesInfo, n, "fmt", "Sprintf") && inLoop(stack) && !inPanicArg(stack) {
					pass.Reportf(n.Pos(), "fmt.Sprintf in a hot-path loop: per-row formatting allocates; hoist it or restructure")
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringExpr(pass.TypesInfo, n) && inLoop(stack) && !inPanicArg(stack) {
					pass.Reportf(n.Pos(), "string concatenation in a hot-path loop: per-row allocation; use byte-slice kernels or hoist")
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass.TypesInfo, n.Lhs[0]) && inLoop(stack) {
					pass.Reportf(n.Pos(), "string += in a hot-path loop: per-row allocation; use byte-slice kernels or hoist")
				}
			}
			return true
		})
	}
	return nil
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	return isStringType(info, e)
}

// inLoop reports whether the stack passes through the body of a for or range
// statement inside the current function (loops in enclosing functions do not
// count for a nested literal — but a literal defined inside a loop is still
// per-row code, so only a function *declaration* boundary resets the search).
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}

// inPanicArg reports whether the node is an argument of a panic call:
// assertion messages format once on the failure path, never per row.
func inPanicArg(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}
