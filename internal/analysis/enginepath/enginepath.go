// Package enginepath enforces the evaluation-routing invariant from
// PR 2: inside the exploration packages (dse, aps, core), every "design
// point → objective value" evaluation flows through internal/engine,
// which owns memoization, in-flight deduplication, the worker bound,
// retry and metering. A call through the Evaluator interface
// (dse.Evaluator's Evaluate or robust.Evaluator's EvaluateCtx) bypasses
// all of it: the evaluation is invisible to engine.Stats and pays full
// price even when the engine already memoized the point.
//
// The analyzer flags method calls named Evaluate/EvaluateCtx/
// EvaluateBatch whose receiver's static type is an interface, in
// packages dse, aps, core and model — the batch plane (BatchEvaluator)
// bypasses the engine exactly as readily as the scalar one. Since the
// model-family redesign it also flags interface-dispatched
// TimeAt/TimeWorkAt, and TimeAtBatch for the optional model.BatchKernel:
// a kernel driven through an interface is an evaluation the engine never
// sees, exactly like an Evaluator bypass.
// Calls on concrete types (the engine itself, core.Model's analytic
// evaluation, a family's own folded kernel struct) are the sanctioned
// paths and pass untouched. The engine's own entry adapters carry
// `//lint:allow enginepath <reason>`.
package enginepath

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the enginepath check.
var Analyzer = &analysis.Analyzer{
	Name: "enginepath",
	Doc:  "flag Evaluator-interface evaluations in dse/aps/core that bypass the engine's memoization and metering",
	Run:  run,
}

// guardedPackages are the exploration packages whose evaluations must
// route through internal/engine.
var guardedPackages = map[string]bool{"dse": true, "aps": true, "core": true, "model": true}

// flaggedNames are the evaluation entry points the invariant covers:
// the Evaluator plane and the model-family Kernel plane.
var flaggedNames = map[string]string{
	"Evaluate":      "Evaluator",
	"EvaluateCtx":   "Evaluator",
	"EvaluateBatch": "Evaluator",
	"TimeAt":        "Kernel",
	"TimeWorkAt":    "Kernel",
	"TimeAtBatch":   "Kernel",
}

func run(pass *analysis.Pass) error {
	if !guardedPackages[pass.Pkg.Name()] {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		plane, flagged := flaggedNames[name]
		if !flagged {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok {
			return true
		}
		recv := selection.Recv()
		if ptr, ok := recv.Underlying().(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if _, ok := recv.Underlying().(*types.Interface); ok {
			pass.Reportf(call.Pos(),
				"%s through the %s interface bypasses internal/engine memoization/metering; submit via an Engine (or suppress with a reason)", name, plane)
		}
		return true
	})
	return nil
}
