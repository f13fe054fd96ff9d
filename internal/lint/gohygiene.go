package lint

import (
	"go/ast"
	"go/types"
)

// goPkgs are the service layers where an untracked goroutine outlives
// Close and becomes a shutdown race: PR 1's send-on-closed-channel panic
// came from exactly one of these slipping through review.
var goPkgs = map[string]bool{
	"internal/server": true,
}

// goLaunchHelpers are method names allowed to contain the Add themselves:
// a `go` inside one of these is the tracked-launcher pattern (the helper
// pairs Add with the spawn). The set is intentionally empty today —
// launchers in the tree do their Add in the same function as the `go` —
// but the hook is here so a future helper gets allowlisted by name, with
// a comment, instead of scattering //lint:allow.
var goLaunchHelpers = map[string]bool{}

// Gohygiene requires every `go` statement in the service layers to have
// a visible sync.WaitGroup.Add call earlier in the same function (or to
// sit inside an allowlisted launcher helper), so Close/Wait can always
// account for it.
var Gohygiene = &Analyzer{
	Name:  "gohygiene",
	Doc:   "no untracked goroutines in server: WaitGroup.Add must be visible in the launching function",
	Scope: goPkgs,
	Run:   runGohygiene,
}

func runGohygiene(pkg *Package) []Diagnostic {
	if !inScope(pkg, goPkgs) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		var visit func(n ast.Node, fn funcCtx)
		visit = func(n ast.Node, fn funcCtx) {
			switch e := n.(type) {
			case *ast.FuncDecl:
				if e.Body != nil {
					walkChildren(e.Body, funcCtx{body: e.Body, name: e.Name.Name}, visit)
				}
				return
			case *ast.FuncLit:
				walkChildren(e.Body, funcCtx{body: e.Body, name: fn.name}, visit)
				return
			case *ast.GoStmt:
				if !trackedLaunch(pkg, fn, e) {
					diags = append(diags, diag(pkg, "gohygiene", e,
						"untracked goroutine: no WaitGroup.Add visible in %s before this go statement", fnLabel(fn)))
				}
			}
			walkChildren(n, fn, visit)
		}
		walkChildren(f, funcCtx{}, visit)
	}
	return diags
}

// funcCtx is the innermost enclosing function during the walk.
type funcCtx struct {
	body *ast.BlockStmt
	name string // enclosing declaration's name, for messages and the helper allowlist
}

func fnLabel(fn funcCtx) string {
	if fn.name == "" {
		return "the enclosing function"
	}
	return fn.name
}

// walkChildren visits n's immediate children with visit (which recurses).
func walkChildren(n ast.Node, fn funcCtx, visit func(ast.Node, funcCtx)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return m == n
		}
		visit(m, fn)
		return false
	})
}

// trackedLaunch reports whether the go statement is accounted for: a
// sync.WaitGroup.Add call earlier in the same function body, or the
// enclosing function is an allowlisted launcher helper.
func trackedLaunch(pkg *Package, fn funcCtx, g *ast.GoStmt) bool {
	if fn.body == nil {
		return false
	}
	if goLaunchHelpers[fn.name] {
		return true
	}
	found := false
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // an Add inside a nested function is not visible here
		}
		// Only Adds textually before the go statement count: an Add
		// after the spawn is exactly the race the analyzer exists for.
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() < g.Pos() && isWaitGroupAdd(pkg, call) {
			found = true
		}
		return true
	})
	return found
}

func isWaitGroupAdd(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
