package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var wiresymScope = map[string]bool{
	"internal/server": true,
}

// Wiresym checks the wire layer's encode/decode symmetry — the class of
// bug the v2 endianness split was, where one side of the protocol moved
// and the other silently kept the old layout:
//
//   - every constant of the package's FrameType has both an encode arm
//     (the opcode is passed to a frame-writing call) and a decode arm
//     (the opcode appears in a switch case or an ==/!= dispatch) — an
//     opcode with only one side is a frame the peer can never round-trip;
//   - every T.AppendTo method has the matching ParseT function and vice
//     versa, and package-level Append<X> helpers pair with Parse<X> — a
//     payload with a writer and no reader (or the reverse) is dead wire
//     format waiting to desynchronise;
//   - no AppendTo, Append<X> or Parse<X> body consults a Feature* constant:
//     every frame has one payload layout, and negotiated features select
//     behaviour, never layout, so a codec that branches on one is a second
//     layout in the making.
var Wiresym = &Analyzer{
	Name:  "wiresym",
	Doc:   "wire frames have matching encode/decode arms and feature-blind payload codecs",
	Scope: wiresymScope,
	Run:   runWiresym,
}

func runWiresym(pkg *Package) []Diagnostic {
	if !inScope(pkg, wiresymScope) {
		return nil
	}
	var diags []Diagnostic
	diags = append(diags, wiresymOpcodes(pkg)...)
	diags = append(diags, wiresymPairs(pkg)...)
	return diags
}

// wiresymOpcodes checks every FrameType constant for encode and decode
// uses anywhere in the package.
func wiresymOpcodes(pkg *Package) []Diagnostic {
	ftObj, ok := pkg.Types.Scope().Lookup("FrameType").(*types.TypeName)
	if !ok {
		return nil // no wire layer in this package shape
	}
	ft := ftObj.Type()
	type useSet struct {
		decl           ast.Node
		encode, decode bool
	}
	ops := map[*types.Const]*useSet{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), ft) {
			ops[c] = &useSet{}
		}
	}
	if len(ops) == 0 {
		return nil
	}
	constOf := func(x ast.Expr) *types.Const {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			c, _ := pkg.Info.Uses[e].(*types.Const)
			if u, ok := ops[c]; ok && u != nil {
				return c
			}
		case *ast.SelectorExpr:
			c, _ := pkg.Info.Uses[e.Sel].(*types.Const)
			if _, ok := ops[c]; ok {
				return c
			}
		}
		return nil
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.ValueSpec:
				for i, name := range e.Names {
					if c, ok := pkg.Info.Defs[name].(*types.Const); ok {
						if u, ok := ops[c]; ok && u.decl == nil {
							u.decl = e.Names[i]
						}
					}
				}
			case *ast.CallExpr:
				for _, arg := range e.Args {
					if c := constOf(arg); c != nil {
						ops[c].encode = true
					}
				}
			case *ast.CaseClause:
				for _, x := range e.List {
					if c := constOf(x); c != nil {
						ops[c].decode = true
					}
					// Switches with boolean tags dispatch via
					// `case t == FrameX:` expressions.
					if be, ok := ast.Unparen(x).(*ast.BinaryExpr); ok {
						if c := constOf(be.X); c != nil {
							ops[c].decode = true
						}
						if c := constOf(be.Y); c != nil {
							ops[c].decode = true
						}
					}
				}
			case *ast.BinaryExpr:
				if e.Op == token.EQL || e.Op == token.NEQ {
					if c := constOf(e.X); c != nil {
						ops[c].decode = true
					}
					if c := constOf(e.Y); c != nil {
						ops[c].decode = true
					}
				}
			}
			return true
		})
	}
	var diags []Diagnostic
	ordered := make([]*types.Const, 0, len(ops))
	for c := range ops {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name() < ordered[j].Name() })
	for _, c := range ordered {
		u := ops[c]
		if u.decl == nil {
			continue // declared in another file shape we did not see
		}
		if !u.encode {
			diags = append(diags, diag(pkg, "wiresym", u.decl,
				"frame opcode %s is never encoded (not passed to any frame-writing call): a frame the peer can never receive", c.Name()))
		}
		if !u.decode {
			diags = append(diags, diag(pkg, "wiresym", u.decl,
				"frame opcode %s is never decoded (no switch case or == dispatch): a frame the peer can never act on", c.Name()))
		}
	}
	return diags
}

// wiresymPairs checks AppendTo/Parse pairing and that no payload codec
// consults a feature bit.
func wiresymPairs(pkg *Package) []Diagnostic {
	scope := pkg.Types.Scope()
	// funcDecls maps "T.AppendTo" and package function names to their
	// declarations.
	funcDecls := map[string]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv == nil {
				funcDecls[fd.Name.Name] = fd
				continue
			}
			if rt := recvTypeName(fd.Recv); rt != "" {
				funcDecls[rt+"."+fd.Name.Name] = fd
			}
		}
	}
	names := make([]string, 0, len(funcDecls))
	for name := range funcDecls {
		names = append(names, name)
	}
	sort.Strings(names)
	var diags []Diagnostic
	for _, name := range names {
		fd := funcDecls[name]
		if typeName, method, ok := strings.Cut(name, "."); ok {
			// Encode → decode: every AppendTo method needs its Parse.
			if method != "AppendTo" {
				continue
			}
			want := "Parse" + typeName
			if funcDecls[want] == nil {
				diags = append(diags, diag(pkg, "wiresym", fd.Name,
					"%s.AppendTo has no matching %s: an encoder with no decoder is dead wire format", typeName, want))
			}
		} else if x, ok := strings.CutPrefix(name, "Append"); ok && x != "" && ast.IsExported(name) {
			// Package-level Append<X> helpers need Parse<X>.
			want := "Parse" + x
			if funcDecls[want] == nil {
				diags = append(diags, diag(pkg, "wiresym", fd.Name,
					"%s has no matching %s: an encoder with no decoder is dead wire format", name, want))
			}
		} else if x, ok := strings.CutPrefix(name, "Parse"); ok && x != "" && ast.IsExported(name) {
			// Decode → encode: every Parse<X> over a type of this package
			// needs a writer for X; Parse helpers over non-frame inputs
			// stay legal.
			if _, isType := scope.Lookup(x).(*types.TypeName); isType &&
				funcDecls["Append"+x] == nil && funcDecls[x+".AppendTo"] == nil {
				diags = append(diags, diag(pkg, "wiresym", fd.Name,
					"%s has no matching encoder (Append%s or %s.AppendTo): a decoder with no encoder is dead wire format", name, x, x))
			}
		} else {
			continue
		}
		for _, bit := range featureBits(pkg, fd) {
			diags = append(diags, diag(pkg, "wiresym", fd.Name,
				"%s consults %s: a payload codec must be feature-blind — features select behaviour, never layout", name, bit))
		}
	}
	return diags
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := ast.Unparen(t).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// featureBits lists, sorted, the Feature* constants consulted in a
// function body.
func featureBits(pkg *Package, fd *ast.FuncDecl) []string {
	bits := map[string]bool{}
	if fd.Body == nil {
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !strings.HasPrefix(id.Name, "Feature") {
			return true
		}
		if _, ok := pkg.Info.Uses[id].(*types.Const); ok {
			bits[id.Name] = true
		}
		return true
	})
	out := make([]string, 0, len(bits))
	for k := range bits {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
