// Package errwrap enforces the error-chain contract the robustness layer
// depends on: robust.PanicError, the retry machinery and the server's
// error envelope are all consumed through errors.Is/errors.As, which
// only see through fmt.Errorf when the error argument is wrapped with
// %w. The analyzer flags
//
//  1. fmt.Errorf calls that receive an error-typed argument but whose
//     format string has no %w verb (the chain is silently cut), and
//  2. `panic(...)` in non-main library packages — invariant violations
//     must surface as returned errors so the engine's panic guard and
//     retry policy can do their job. Package robust itself is exempt:
//     its fault injector raises panics by design to exercise the guard.
//
// Deliberate panics elsewhere carry `//lint:allow errwrap <reason>`.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errwrap check.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc:  "flag fmt.Errorf calls that format errors without %w and panics in library code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pkgName := pass.Pkg.Name()
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsPkgCall(pass.TypesInfo, call, "fmt", "Errorf") {
			checkErrorf(pass, call)
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" &&
				pkgName != "main" && pkgName != "robust" {
				pass.Reportf(call.Pos(),
					"panic in library code defeats the robust/engine guard; return an error (or suppress with a reason)")
			}
		}
		return true
	})
	return nil
}

// checkErrorf flags fmt.Errorf("...", args...) when an arg is an error
// but the (constant) format string carries no %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, arg := range call.Args[1:] {
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.Implements(at.Type, errType) {
			pass.Reportf(arg.Pos(),
				"error argument formatted without %%w cuts the errors.Is/As chain; use %%w (or suppress with a reason)")
			return
		}
	}
}
