package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotallocFuncs names the per-shot hot path: the functions a steady-state
// decode executes on every syndrome. Sparse Blossom's throughput comes from
// keeping this loop allocation-free — scratch lives on the engine and is
// truncated, never reallocated — so the list is explicit and curated:
// constructors, String/Clone conveniences, and cold error paths are
// deliberately absent. Adding a function here promises it allocates
// nothing in steady state beyond the Result it returns; the
// Test{Sparse,Dense,Astrea}DecodeAllocBudget and TestStreamPushRowAllocBudget
// gates enforce the same promise dynamically.
var hotallocFuncs = map[string]map[string]bool{
	"internal/sparsemwpm": set(
		"Match", "addCand", "growRegion", "resumeRegion", "settledDist",
		"keepEdge", "find", "resolve", "enumRec", "solveTiny", "solve",
		"yLo", "repairComp", "certify", "certifyComp", "push", "pop",
	),
	"internal/blossom": set(
		"eDelta", "updateSlack", "setSlack", "qPush", "setSt", "getPr",
		"setMatch", "augment", "getLca", "addBlossom", "expandBlossom",
		"onFoundEdge", "matching", "at", "fromRow", "reset", "load",
		"warmStart", "MinWeightPerfect",
	),
	"internal/unionfind": set("find", "union", "active", "Decode", "peel"),
	"internal/astrea": set(
		"Decode", "DecodeFlagged", "DecodeObs", "BestMatching", "solve",
		"bound", "search8", "search6", "emit", "wt", "without",
	),
	"internal/astreag": set(
		"Decode", "DecodeObs", "decodeHHW", "buildLWT", "sortByWeight", "push", "chainObs",
	),
	"internal/bitvec": set(
		"Get", "Set", "Clear", "Flip", "SetTo", "Reset", "XorWith",
		"CopyFrom", "PopCount", "Any", "Equal", "Ones", "AppendWords", "Uint64",
	),
	// A stream pipeline's row and window path: buffers are the pipeline's
	// and reused, so the steady state allocates only what a forced window's
	// seam split and commit keep (TestStreamPushRowAllocBudget).
	"internal/stream": set(
		"PushRow", "decide", "cut", "dispatch", "countDefects", "decodeOn",
		"decodeSlot", "guardedDecode", "buildSyndrome", "commitOf", "emit",
	),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

var hotallocScope = func() map[string]bool {
	m := map[string]bool{}
	for rel := range hotallocFuncs {
		m[rel] = true
	}
	return m
}()

// Hotalloc flags the constructs that put a heap allocation inside the
// per-shot decode loop:
//
//   - append in a loop to a local slice declared without capacity — the
//     growth reallocations land on every shot instead of amortising into
//     engine scratch;
//   - a function literal — closures capturing variables escape to the
//     heap, and passing one to sort.Slice boxes it again;
//   - boxing a non-constant concrete value into an interface parameter —
//     the value escapes so the callee's interface word can point at it;
//   - any fmt call — fmt boxes every operand and allocates for the
//     formatted result; hot paths return errors as values or panic with
//     constants.
//
// Only the functions named in hotallocFuncs are checked: the same
// constructs are fine (and idiomatic) in constructors and cold paths.
var Hotalloc = &Analyzer{
	Name:  "hotalloc",
	Doc:   "no heap-allocating constructs inside the per-shot hot functions of the decode engines",
	Scope: hotallocScope,
	Run:   runHotalloc,
}

func runHotalloc(pkg *Package) []Diagnostic {
	if !inScope(pkg, hotallocScope) {
		return nil
	}
	hot := hotallocFuncs[pkg.Rel]
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot[fd.Name.Name] {
				continue
			}
			diags = append(diags, hotallocFunc(pkg, fd)...)
		}
	}
	return diags
}

func hotallocFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	bare := bareLocalSlices(pkg, fd.Body)
	loopDepth := 0
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			diags = append(diags, diag(pkg, "hotalloc", e,
				"closure in hot function %s: captured variables escape to the heap on every call; hoist the state into the engine and use a method or package function", fd.Name.Name))
			return false // the literal's body is not this function's hot path
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			// Walk children manually so the depth unwinds after the loop.
			if fs, ok := e.(*ast.ForStmt); ok {
				if fs.Init != nil {
					ast.Inspect(fs.Init, visit)
				}
				if fs.Cond != nil {
					ast.Inspect(fs.Cond, visit)
				}
				if fs.Post != nil {
					ast.Inspect(fs.Post, visit)
				}
				ast.Inspect(fs.Body, visit)
			} else {
				rs := e.(*ast.RangeStmt)
				ast.Inspect(rs.X, visit)
				ast.Inspect(rs.Body, visit)
			}
			loopDepth--
			return false
		case *ast.AssignStmt:
			if loopDepth > 0 {
				for i, rhs := range e.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pkg.Info, call) || i >= len(e.Lhs) {
						continue
					}
					id, ok := ast.Unparen(e.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Uses[id]
					if obj == nil {
						obj = pkg.Info.Defs[id]
					}
					if obj != nil && bare[obj] {
						diags = append(diags, diag(pkg, "hotalloc", call,
							"append in a loop to %s, declared without capacity, in hot function %s: growth reallocates on every shot; preallocate or reuse engine scratch", id.Name, fd.Name.Name))
					}
				}
			}
		case *ast.CallExpr:
			if f := calleeFunc(pkg.Info, e); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				diags = append(diags, diag(pkg, "hotalloc", e,
					"fmt.%s in hot function %s: fmt boxes every operand and allocates the result; move formatting off the per-shot path", f.Name(), fd.Name.Name))
			}
			diags = append(diags, boxedArgs(pkg, e, fd.Name.Name)...)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	return diags
}

// bareLocalSlices collects the local slice variables declared without any
// capacity: `var s []T`, `s := []T{}`, `s := []T(nil)`, or
// `s := make([]T, 0)`. Appending to these in a loop grows from nothing on
// every call. Locals rebound from engine scratch (`s := e.buf[:0]`) and
// makes carrying a length or capacity are excluded.
func bareLocalSlices(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	bare := map[types.Object]bool{}
	mark := func(id *ast.Ident, init ast.Expr) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if init == nil {
			bare[obj] = true
			return
		}
		switch e := ast.Unparen(init).(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 {
				bare[obj] = true
			}
		case *ast.Ident:
			if e.Name == "nil" {
				bare[obj] = true
			}
		case *ast.CallExpr:
			if id2, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id2.Name == "make" && pkg.Info.Uses[id2] == nil {
				// A conversion named make would resolve via Uses; the
				// builtin does not. make([]T, 0) with no cap is bare.
				if len(e.Args) == 2 {
					if tv, ok := pkg.Info.Types[e.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
						bare[obj] = true
					}
				}
			} else if len(e.Args) == 1 {
				if id3, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id3.Name == "nil" {
					bare[obj] = true // []T(nil) conversion
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeclStmt:
			gd, ok := e.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					mark(name, init)
				}
			}
		case *ast.AssignStmt:
			if e.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range e.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(e.Rhs) {
					continue
				}
				mark(id, e.Rhs[i])
			}
		}
		return true
	})
	return bare
}

// boxedArgs flags call arguments where a non-constant concrete value is
// passed to an interface parameter: the value escapes to the heap so the
// interface's data word can point at it. Pointers (already one word),
// constants (the compiler interns them) and values that are already
// interfaces (no re-box) pass.
func boxedArgs(pkg *Package, call *ast.CallExpr, fn string) []Diagnostic {
	params := interfaceParams(pkg, call)
	if params == nil {
		return nil
	}
	var diags []Diagnostic
	for i, arg := range call.Args {
		if i >= len(params) || !params[i] {
			continue
		}
		tv, ok := pkg.Info.Types[arg]
		if !ok || tv.Value != nil { // constants intern
			continue
		}
		t := tv.Type
		if t == nil {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // one-word or already boxed
		}
		if t == types.Typ[types.UntypedNil] {
			continue
		}
		diags = append(diags, diag(pkg, "hotalloc", arg,
			"%s boxed into an interface argument in hot function %s: the value escapes to the heap; keep hot-path signatures concrete", t.String(), fn))
	}
	return diags
}

// interfaceParams returns, per argument position, whether the callee
// receives it as an interface; nil when the callee's signature is unknown.
// The panic builtin takes its operand as interface{}.
func interfaceParams(pkg *Package, call *ast.CallExpr) []bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "panic" {
				return []bool{true}
			}
			return nil
		}
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil // conversion
	}
	out := make([]bool, len(call.Args))
	np := sig.Params().Len()
	for i := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos && i == np-1 {
				pt = sig.Params().At(np - 1).Type() // s... passes the slice through
			} else {
				pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); ok {
			out[i] = true
		}
	}
	return out
}
