// Package detguard encodes the repository's load-bearing determinism
// invariant: every value that can reach an evaluation result, a cache
// key, a checkpoint, or a persisted job result must be a pure function
// of its inputs. Bit-identical checkpoint resume (PR 1), bit-for-bit
// cache-hit identity and batch-vs-scalar equality (PR 7) and the
// fingerprint-keyed shared cache all assume it; one wall-clock read or
// unordered map iteration feeding a result silently breaks every one of
// those guarantees, and the planned distributed cache tier would turn
// the breakage cross-process.
//
// The analyzer works interprocedurally on the framework's facts and is
// transitive in both directions:
//
//   - Downward (must-be-deterministic marking): functions whose names
//     identify the protected entry points — Evaluate/EvaluateCtx/
//     EvaluateBatch/EvaluateStream (evaluation), TimeAt/TimeWorkAt/
//     Compile (compiled kernels), Fingerprint/Signature/KeySeed/KeyHash
//     (cache keys), anything containing "Checkpoint", and the job result
//     builders runSweep/runAPS — are roots. Every function they
//     statically call inside the package is transitively
//     must-be-deterministic.
//   - Upward (nondeterminism facts): a function whose body reads the
//     wall clock (time.Now/Since/Until), calls math/rand's or
//     crypto/rand's package-level functions, or ranges over a map
//     exports a NondetFact; so does any function calling one, locally or
//     across packages. Dependency packages are analyzed first (`go list
//     -deps` order), so by the time the evaluation path is inspected the
//     taint of every callee is known.
//
// Inside a must-be-deterministic function, detguard flags the direct
// nondeterminism sites — wall-clock reads, global rand, `range` over a
// map (unordered iteration feeding results), and select statements with
// two or more competing data receives (scheduler-order nondeterminism) —
// and every call to a tainted function of another package.
//
// Deliberate exceptions — a wall-clock read that feeds a metrics
// histogram and provably never the result — carry `//lint:allow detguard
// <reason>` at the site; the suppression also stops the taint from
// propagating to callers, so one documented sink does not poison the
// whole dependency graph above it. Methods on *rand.Rand are not flagged
// at all: a seeded rand.Source is deterministic by construction, and the
// seed's provenance is covered by the wall-clock rule.
//
// internal/obs is exempt: observability is wall-clock business by
// design, and PR 4's bit-exactness tests prove it never feeds results.
package detguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the detguard check.
var Analyzer = &analysis.Analyzer{
	Name: "detguard",
	Doc:  "flag wall-clock, global rand, map-order and select nondeterminism in (or reachable from) evaluation/checkpoint/cache-key/job-result paths",
	Run:  run,
}

// NondetFact marks a function whose behavior depends on something other
// than its inputs. It propagates to callers across packages.
type NondetFact struct {
	// Reason names the root cause, e.g. "reads the wall clock
	// (time.Now)" or "calls dse.SweepCtx, which reads the wall clock".
	Reason string `json:"reason"`
}

// rootNames are the function/method names that anchor
// must-be-deterministic paths.
var rootNames = map[string]bool{
	"Evaluate": true, "EvaluateCtx": true, "EvaluateBatch": true, "EvaluateStream": true,
	"TimeAt": true, "TimeWorkAt": true, "Compile": true,
	"Fingerprint": true, "Signature": true, "KeySeed": true, "KeyHash": true,
	"runSweep": true, "runAPS": true,
}

// isRoot reports whether a function name anchors a protected path.
func isRoot(name string) bool {
	return rootNames[name] || strings.Contains(name, "Checkpoint")
}

// exemptPkg reports packages outside the determinism contract: main
// packages (CLIs legitimately print wall-clock progress) and the
// observability layer.
func exemptPkg(pkg *types.Package) bool {
	return pkg.Name() == "main" || strings.HasSuffix(pkg.Path(), "internal/obs")
}

// source is one direct nondeterminism site inside a function.
type source struct {
	pos  token.Pos
	what string
}

// fnInfo is the per-function view the analyzer builds in one AST walk.
type fnInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
	// sources are the unsuppressed direct nondeterminism sites.
	sources []source
	// calls are the statically resolved callees with their sites.
	calls []callSite
}

type callSite struct {
	fn  *types.Func
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	if exemptPkg(pass.Pkg) {
		return nil
	}

	// One pass over every declared function: collect direct
	// nondeterminism sources and the static call graph.
	var fns []*fnInfo
	byObj := make(map[*types.Func]*fnInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{decl: fd, obj: obj}
			collect(pass, fd.Body, info)
			fns = append(fns, info)
			byObj[obj] = info
		}
	}

	// Upward taint: direct sources seed it, local and imported calls
	// propagate it to a fixed point, and the result is exported as
	// facts for dependent packages.
	taint := make(map[*types.Func]string)
	for _, info := range fns {
		if len(info.sources) > 0 {
			taint[info.obj] = info.sources[0].what
		}
	}
	calleeReason := func(fn *types.Func) (string, bool) {
		if r, ok := taint[fn]; ok {
			return r, true
		}
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			var fact NondetFact
			if pass.ImportObjectFact(fn, &fact) {
				return fact.Reason, true
			}
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if _, done := taint[info.obj]; done {
				continue
			}
			for _, c := range info.calls {
				if reason, ok := calleeReason(c.fn); ok {
					taint[info.obj] = "calls " + calleeName(c.fn) + ", which " + reason
					changed = true
					break
				}
			}
		}
	}
	for fn, reason := range taint {
		if err := pass.ExportObjectFact(fn, NondetFact{Reason: reason}); err != nil {
			return err
		}
	}

	// Downward marking: roots plus everything they statically call in
	// this package, remembering which root made each function protected.
	mustDet := make(map[*types.Func]string)
	var queue []*types.Func
	for _, info := range fns {
		if isRoot(info.obj.Name()) {
			mustDet[info.obj] = info.obj.Name()
			queue = append(queue, info.obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := byObj[fn]
		if info == nil {
			continue
		}
		for _, c := range info.calls {
			if callee, ok := byObj[c.fn]; ok {
				if _, seen := mustDet[callee.obj]; !seen {
					mustDet[callee.obj] = mustDet[fn]
					queue = append(queue, callee.obj)
				}
			}
		}
	}

	// Diagnostics: direct sources inside protected functions, and calls
	// from protected functions to tainted functions of other packages
	// (local tainted callees are protected themselves, so their own
	// source sites carry the report).
	for _, info := range fns {
		root, protected := mustDet[info.obj]
		if !protected {
			continue
		}
		for _, s := range info.sources {
			pass.Reportf(s.pos, "%s in %s, which must be deterministic (reachable from %s); results, cache keys and checkpoints must not depend on it",
				s.what, info.obj.Name(), root)
		}
		for _, c := range info.calls {
			if c.fn.Pkg() == nil || c.fn.Pkg() == pass.Pkg {
				continue
			}
			var fact NondetFact
			if pass.ImportObjectFact(c.fn, &fact) && !pass.Allowed(c.pos) {
				pass.Reportf(c.pos, "call to %s, which %s, in %s, which must be deterministic (reachable from %s)",
					calleeName(c.fn), fact.Reason, info.obj.Name(), root)
			}
		}
	}
	return nil
}

// calleeName renders pkg-qualified function names for messages.
func calleeName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// collect walks one function body (nested literals included — a worker
// closure runs on its parent's behalf) gathering nondeterminism sources
// and static callees.
func collect(pass *analysis.Pass, body *ast.BlockStmt, info *fnInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if what, ok := nondetCall(pass, n); ok {
				if !pass.Allowed(n.Pos()) {
					info.sources = append(info.sources, source{pos: n.Pos(), what: what})
				}
				return true
			}
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil {
				info.calls = append(info.calls, callSite{fn: fn, pos: n.Pos()})
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !pass.Allowed(n.Pos()) {
					info.sources = append(info.sources, source{pos: n.Pos(), what: "ranges over a map (unordered iteration)"})
				}
			}
		case *ast.SelectStmt:
			if nondetSelect(pass, n) && !pass.Allowed(n.Pos()) {
				info.sources = append(info.sources, source{pos: n.Pos(), what: "selects between multiple data receives (scheduler-order nondeterminism)"})
			}
		}
		return true
	})
}

// nondetCall classifies one call as a direct nondeterminism source.
func nondetCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Methods: a seeded *rand.Rand is deterministic by construction.
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "reads the wall clock (time." + fn.Name() + ")", true
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(fn.Name(), "New") {
			// Constructors (New, NewSource) build seeded, deterministic
			// generators; the seed's provenance is covered elsewhere.
			return "", false
		}
		return "draws from the shared global rand (" + fn.Pkg().Path() + "." + fn.Name() + ")", true
	case "crypto/rand":
		return "draws from crypto/rand." + fn.Name(), true
	}
	return "", false
}

// nondetSelect reports selects with two or more competing data
// receives. A receive of a cancellation signal — `<-ctx.Done()`, or a
// channel spelled done/quit/stop/closed — does not count: racing data
// against cancellation is the sanctioned pattern, racing data against
// data reorders results.
func nondetSelect(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	receives := 0
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv *ast.UnaryExpr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv, _ = s.X.(*ast.UnaryExpr)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv, _ = s.Rhs[0].(*ast.UnaryExpr)
			}
		}
		if recv == nil || recv.Op != token.ARROW {
			continue
		}
		if isCancelChan(recv.X) {
			continue
		}
		receives++
	}
	return receives >= 2
}

// isCancelChan recognizes cancellation-shaped channel expressions.
func isCancelChan(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return cancelName(sel.Sel.Name)
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return cancelName(id.Name)
		}
	case *ast.SelectorExpr:
		return cancelName(e.Sel.Name)
	case *ast.Ident:
		return cancelName(e.Name)
	}
	return false
}

func cancelName(name string) bool {
	switch strings.ToLower(name) {
	case "done", "quit", "stop", "closed", "cancel", "cancelled", "canceled":
		return true
	}
	return false
}
