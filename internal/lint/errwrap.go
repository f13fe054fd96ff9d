package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// droppedErrPkgs are where a silently dropped error can lose a request or
// corrupt a stream: the service I/O layers. Repo-wide, only the sentinel
// and %w checks run — flagging every discarded Close() in example code
// would bury the signal.
var droppedErrPkgs = map[string]bool{
	"internal/server": true,
}

// Errwrap enforces the error-flow discipline: sentinel comparisons use
// errors.Is (a wrapped sentinel never compares ==), fmt.Errorf that
// forwards an error wraps it with %w (so errors.Is keeps seeing it), and
// in the service I/O layers a discarded error return needs an inline
// //lint:allow justification.
var Errwrap = &Analyzer{
	Name: "errwrap",
	Doc:  "errors.Is for sentinels, %w for wrapping, no silent drops in service I/O",
	// The %w/errors.Is rules apply module-wide; only the dropped-error rule
	// scopes to droppedErrPkgs, so Scope stays nil here.
	Run: runErrwrap,
}

func runErrwrap(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if d, ok := sentinelCompare(pkg, e); ok {
					diags = append(diags, d)
				}
			case *ast.CallExpr:
				if d, ok := unwrappedErrorf(pkg, e); ok {
					diags = append(diags, d)
				}
			}
			return true
		})
	}
	if inScope(pkg, droppedErrPkgs) {
		diags = append(diags, droppedErrors(pkg)...)
	}
	return diags
}

// sentinelCompare flags err == ErrX / err != ErrX: both operands typed
// error, neither nil. Wrapped errors make == silently false; errors.Is is
// the only comparison that survives a %w chain.
func sentinelCompare(pkg *Package, e *ast.BinaryExpr) (Diagnostic, bool) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return Diagnostic{}, false
	}
	x, y := pkg.Info.Types[e.X], pkg.Info.Types[e.Y]
	if x.IsNil() || y.IsNil() {
		return Diagnostic{}, false
	}
	if !isErrorType(x.Type) || !isErrorType(y.Type) {
		return Diagnostic{}, false
	}
	verb := "errors.Is(err, ErrX)"
	if e.Op == token.NEQ {
		verb = "!errors.Is(err, ErrX)"
	}
	return diag(pkg, "errwrap", e, "sentinel comparison with %s; use %s so wrapped errors still match", e.Op, verb), true
}

// unwrappedErrorf flags fmt.Errorf calls that pass an error argument but
// whose constant format string has no %w: the cause is flattened to text
// and errors.Is/As stop working downstream.
func unwrappedErrorf(pkg *Package, call *ast.CallExpr) (Diagnostic, bool) {
	if !isPkgFunc(pkg.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return Diagnostic{}, false
	}
	tv := pkg.Info.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return Diagnostic{}, false
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return Diagnostic{}, false
	}
	for _, arg := range call.Args[1:] {
		t := pkg.Info.Types[arg]
		if !t.IsNil() && isErrorType(t.Type) {
			return diag(pkg, "errwrap", call, "fmt.Errorf forwards an error without %%w; wrap it so errors.Is still sees the cause"), true
		}
	}
	return Diagnostic{}, false
}

// droppedErrors flags discarded error returns in the service I/O layers:
// `_ = call()` assignments and bare call statements whose results include
// an error. Deferred cleanup calls are exempt — a failing deferred Close
// on an error path has no one to report to, and the convention is
// repo-wide. Every other drop needs a //lint:allow errwrap justification.
func droppedErrors(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				diags = append(diags, droppedAssign(pkg, s)...)
			case *ast.ExprStmt:
				call, ok := ast.Unparen(s.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if pos, ok := callReturnsError(pkg, call); ok {
					diags = append(diags, diag(pkg, "errwrap", s,
						"result %d (error) of this call is silently dropped; handle it or justify with //lint:allow errwrap <reason>", pos))
				}
			}
			return true
		})
	}
	return diags
}

func droppedAssign(pkg *Package, s *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple form: _, err := f() — check each blank against the
		// call's result tuple.
		tv, ok := pkg.Info.Types[s.Rhs[0]]
		if !ok {
			return nil
		}
		tup, ok := tv.Type.(*types.Tuple)
		if !ok || tup.Len() != len(s.Lhs) {
			return nil
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && isErrorType(tup.At(i).Type()) {
				diags = append(diags, diag(pkg, "errwrap", lhs,
					"error result assigned to _; handle it or justify with //lint:allow errwrap <reason>"))
			}
		}
		return diags
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) || i >= len(s.Rhs) {
			continue
		}
		if tv, ok := pkg.Info.Types[s.Rhs[i]]; ok && !tv.IsNil() && isErrorType(tv.Type) {
			diags = append(diags, diag(pkg, "errwrap", lhs,
				"error assigned to _; handle it or justify with //lint:allow errwrap <reason>"))
		}
	}
	return diags
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// callReturnsError reports whether the call's result tuple includes an
// error, and the 1-based position of the first one.
func callReturnsError(pkg *Package, call *ast.CallExpr) (int, bool) {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return 0, false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i + 1, true
			}
		}
	default:
		if isErrorType(t) {
			return 1, true
		}
	}
	return 0, false
}
