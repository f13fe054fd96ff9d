package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose output must be a pure function
// of their inputs: everything on the compile and decode paths that feeds
// byte-identical .astc artifacts and stable fingerprints. The service
// layers (server, realtime, faultinject, experiments, report, cmd/*)
// legitimately read clocks and environment and are out of scope.
var deterministicPkgs = map[string]bool{
	"internal/bitvec":      true,
	"internal/prng":        true,
	"internal/circuit":     true,
	"internal/surface":     true,
	"internal/dem":         true,
	"internal/decodegraph": true,
	"internal/blossom":     true,
	"internal/astrea":      true,
	"internal/astreag":     true,
	"internal/unionfind":   true,
	"internal/mwpm":        true,
	"internal/exactmatch":  true,
	"internal/sparsemwpm":  true,
	"internal/lilliput":    true,
	"internal/clique":      true,
	"internal/hwmodel":     true,
	"internal/artifact":    true,
	"internal/compress":    true,
}

// nondetCalls are the ambient-input functions forbidden in deterministic
// packages: wall clocks and process environment.
var nondetCalls = map[string][]string{
	"time": {"Now", "Since", "Until"},
	"os":   {"Getenv", "LookupEnv", "Environ"},
}

// nondetImports are the import paths forbidden outright: a seeded
// internal/prng source is the only randomness the deterministic packages
// may use (math/rand's global functions are implicitly seeded, and even a
// locally seeded rand.Source is a portability hazard the repo's own
// SplitMix64 avoids).
var nondetImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// Determinism forbids ambient inputs (wall clocks, environment,
// math/rand) in the deterministic packages, and map-range iteration that
// feeds ordered output: an append or stream write inside a loop over a
// map produces a different byte order every run unless the destination is
// sorted afterwards.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid nondeterministic inputs and map-iteration-ordered output in compile/decode packages",
	Scope: deterministicPkgs,
	Run:   runDeterminism,
}

func runDeterminism(pkg *Package) []Diagnostic {
	if !inScope(pkg, deterministicPkgs) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := imp.Path.Value
			if nondetImports[path[1:len(path)-1]] {
				diags = append(diags, diag(pkg, "determinism", imp,
					"import of %s in a deterministic package; use internal/prng with an explicit seed", path))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for pkgPath, names := range nondetCalls {
				for _, name := range names {
					if isPkgFunc(pkg.Info, call, pkgPath, name) {
						diags = append(diags, diag(pkg, "determinism", call,
							"call to %s.%s in a deterministic package; thread the value in as a parameter", pkgPath, name))
					}
				}
			}
			return true
		})
	}
	diags = append(diags, mapRangeOrder(pkg)...)
	return diags
}

// mapRangeOrder flags range-over-map loops whose body emits ordered
// output: an append to a slice declared outside the loop that is not
// subsequently sorted in the same function, or a direct stream write
// (Write*/encoding call). Collecting keys into a slice and sorting it
// before use is the sanctioned pattern and passes.
func mapRangeOrder(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				diags = append(diags, mapRangeOrderInFunc(pkg, body)...)
			}
			return true
		})
	}
	return diags
}

func mapRangeOrderInFunc(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested functions get their own visit
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pkg.Info.Types[rng.X].Type; t == nil || !isMapType(t) {
			return true
		}
		// Ordered-output sinks inside the loop body.
		appended := map[types.Object]ast.Node{} // slice object -> first offending append
		wrote := []ast.Node(nil)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pkg.Info, call) || i >= len(s.Lhs) {
						continue
					}
					id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Uses[id]
					if obj == nil {
						obj = pkg.Info.Defs[id]
					}
					if obj != nil && obj.Pos() < rng.Pos() {
						if _, seen := appended[obj]; !seen {
							appended[obj] = call
						}
					}
				}
			case *ast.CallExpr:
				if isStreamWrite(pkg.Info, s) {
					wrote = append(wrote, s)
				}
			}
			return true
		})
		for _, site := range wrote {
			diags = append(diags, diag(pkg, "determinism", site,
				"stream write inside a range over a map: emission order follows map iteration; iterate a sorted key slice instead"))
		}
		for obj, site := range appended {
			if sortedAfter(pkg, body, rng, obj) {
				continue
			}
			diags = append(diags, diag(pkg, "determinism", site,
				"append to %q inside a range over a map without a later sort: element order follows map iteration", obj.Name()))
		}
		return true
	})
	return diags
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isStreamWrite reports calls that emit bytes in call order: Write*
// methods and encoding/binary Append/Put helpers.
func isStreamWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "encoding/binary" {
		return true
	}
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		switch name {
		case "Write", "WriteByte", "WriteString", "WriteRune", "Encode":
			return true
		}
	}
	return false
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call positioned after the range loop in the same function body.
func sortedAfter(pkg *Package, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		f := calleeFunc(pkg.Info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
