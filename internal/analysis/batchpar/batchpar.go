// Package batchpar enforces the batched-evaluation pairing invariant
// from the batch-vectorized engine work: every concrete type that
// implements the batched kernel (engine.BatchEvaluator's
//
//	EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error
//
// method) must also carry the scalar EvaluateCtx method. The engine
// accepts evaluators as robust.Evaluator, and the differential tests
// use the scalar method as the oracle the batched kernel must match bit
// for bit: a batch-only type could not be dispatched at all, or — worse
// — would carry no scalar contract for the bit-identity tests to
// compare against.
//
// The analyzer inspects every package-level defined type, matches the
// exact batch signature (so unrelated EvaluateBatch methods pass), and
// reports types whose pointer method set lacks EvaluateCtx. Interfaces
// are exempt: engine.BatchEvaluator itself declares only the batched
// half by design.
package batchpar

import (
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the batchpar check.
var Analyzer = &analysis.Analyzer{
	Name: "batchpar",
	Doc:  "require every EvaluateBatch implementer to also implement the scalar EvaluateCtx",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		// The pointer method set includes both value and pointer
		// receivers — exactly what the engine's interface assertions see
		// for addressable evaluators.
		mset := types.NewMethodSet(types.NewPointer(named))
		batch := lookupMethod(mset, "EvaluateBatch")
		if batch == nil || !isBatchSignature(batch.Type().(*types.Signature)) {
			continue
		}
		if lookupMethod(mset, "EvaluateCtx") == nil {
			pass.Reportf(tn.Pos(),
				"%s implements EvaluateBatch without the scalar EvaluateCtx; the engine's evaluator contract and the bit-identity oracle require both", name)
		}
	}
	return nil
}

// lookupMethod finds the named method in a method set, or nil.
func lookupMethod(mset *types.MethodSet, name string) *types.Func {
	for i := 0; i < mset.Len(); i++ {
		if f, ok := mset.At(i).Obj().(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	return nil
}

// isBatchSignature matches the engine.BatchEvaluator contract:
// (context.Context, [][]float64, []float64) error.
func isBatchSignature(sig *types.Signature) bool {
	params, results := sig.Params(), sig.Results()
	if params.Len() != 3 || results.Len() != 1 {
		return false
	}
	return isContext(params.At(0).Type()) &&
		isFloatSlice(sliceElem(params.At(1).Type())) &&
		isFloatSlice(params.At(2).Type()) &&
		types.Identical(results.At(0).Type(), types.Universe.Lookup("error").Type())
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// sliceElem returns t's element type when t is a slice, nil otherwise.
func sliceElem(t types.Type) types.Type {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	return s.Elem()
}

// isFloatSlice reports whether t is []float64.
func isFloatSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	elem := sliceElem(t)
	if elem == nil {
		return false
	}
	b, ok := elem.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
