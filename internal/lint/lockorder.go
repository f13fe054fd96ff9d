package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockPkgs are the concurrency onion's layers: every mutex in the decode
// service's hot path lives in one of these, and a deadlock between any two
// of them stalls the whole daemon. The analyzer reasons per package — the
// packages share no exported mutexes, so cross-package cycles cannot form
// without an in-package edge appearing first.
var lockPkgs = map[string]bool{
	"internal/server": true,
	"internal/stream": true,
}

// Lockorder builds a per-package mutex-acquisition graph (mutex classes are
// (struct type, field) pairs or package-level variables, resolved through
// go/types) and flags two properties the million-decodes/s target cannot
// survive losing:
//
//   - acquisition-order cycles: lock class A is taken while B is held on
//     one path and B while A is held on another — the classic ABBA
//     deadlock, invisible to -race until the exact interleaving hits;
//   - a lock held across a blocking operation: a channel send/receive, a
//     select without default, a WaitGroup.Wait, a net.Conn / io stream
//     call, or a pooled decode — any of which turns one slow peer into a
//     stall for every goroutine queued on the mutex.
//
// Acquisition edges propagate transitively through same-package calls, so
// a helper that locks B is an edge source for every caller that holds A
// around it. Blocking-operation findings are reported only at the direct
// site (the justified cases — a write mutex serialising conn writes — are
// annotated where the blocking happens, not at every caller).
var Lockorder = &Analyzer{
	Name:  "lockorder",
	Doc:   "no mutex acquisition-order cycles and no lock held across a blocking operation in the service layers",
	Scope: lockPkgs,
	Run:   runLockorder,
}

// lockClass is one mutex identity: the *types.Var of the struct field or
// package-level/local variable the Lock call resolves to.
type lockClass struct {
	obj  types.Object
	name string // human label: "conn.wmu", "Server.mu", "poolsMu"
}

// lockEvent is one mutex operation in a function body, in source order.
type lockEvent struct {
	pos      token.Pos
	node     ast.Node
	class    *lockClass
	op       string // "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock"
	deferred bool
}

// lockEdge is one acquisition-order edge: to was acquired while from was
// held, at pos (inside fn).
type lockEdge struct {
	from, to *lockClass
	node     ast.Node
	fn       string
}

func runLockorder(pkg *Package) []Diagnostic {
	if !inScope(pkg, lockPkgs) {
		return nil
	}
	lo := &lockorderPass{
		pkg:     pkg,
		classes: map[types.Object]*lockClass{},
		summary: map[*types.Func]map[*lockClass]bool{},
		bodies:  map[*types.Func]*ast.FuncDecl{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				lo.bodies[obj] = fd
			}
		}
	}
	// Pass 1: per-function direct-acquisition summaries, then propagate
	// through same-package calls to a fixed point so helper-acquired locks
	// count as acquisitions at every (transitive) call site.
	for obj, fd := range lo.bodies {
		set := map[*lockClass]bool{}
		for _, ev := range lo.lockEvents(fd.Body) {
			if ev.op == "Lock" || ev.op == "RLock" {
				set[ev.class] = true
			}
		}
		lo.summary[obj] = set
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range lo.bodies {
			set := lo.summary[obj]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg.Info, call)
				if callee == nil {
					return true
				}
				for c := range lo.summary[callee] {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
				return true
			})
		}
	}
	// Pass 2: walk each function tracking the held set in source order,
	// recording acquisition edges and blocking operations under held locks.
	var diags []Diagnostic
	for _, fd := range sortedDecls(lo.bodies) {
		d2 := lo.walkFunc(fd)
		diags = append(diags, d2...)
	}
	// Cycle detection over the package's acquisition graph.
	diags = append(diags, lo.cycleDiags()...)
	return diags
}

type lockorderPass struct {
	pkg     *Package
	classes map[types.Object]*lockClass
	summary map[*types.Func]map[*lockClass]bool
	bodies  map[*types.Func]*ast.FuncDecl
	edges   []lockEdge
}

// sortedDecls returns the function declarations in file/position order so
// diagnostics are deterministic.
func sortedDecls(m map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(m))
	for _, fd := range m {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// classOf resolves the receiver of a Lock/Unlock-style call (x.mu.Lock())
// to a mutex class, or nil when the callee is not a sync.Mutex/RWMutex
// method.
func (lo *lockorderPass) classOf(call *ast.CallExpr) (*lockClass, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	f, ok := lo.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncLocker(f) {
		return nil, ""
	}
	// The mutex expression is sel.X: a field selector (x.mu), a bare
	// identifier (mu), or something fancier we name textually.
	obj, name := lo.mutexIdent(sel.X)
	if obj == nil {
		return nil, ""
	}
	c, ok2 := lo.classes[obj]
	if !ok2 {
		c = &lockClass{obj: obj, name: name}
		lo.classes[obj] = c
	}
	return c, op
}

// isSyncLocker reports whether f is a method of sync.Mutex or sync.RWMutex.
func isSyncLocker(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// mutexIdent resolves the mutex-valued expression to the object that
// identifies its class: the field object for x.mu (every instance of the
// struct shares one class), the variable object for a bare mu.
func (lo *lockorderPass) mutexIdent(x ast.Expr) (types.Object, string) {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := lo.pkg.Info.Uses[e]
		if obj == nil {
			obj = lo.pkg.Info.Defs[e]
		}
		if obj == nil {
			return nil, ""
		}
		return obj, e.Name
	case *ast.SelectorExpr:
		if s, ok := lo.pkg.Info.Selections[e]; ok {
			field := s.Obj()
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			label := field.Name()
			if named, ok := recv.(*types.Named); ok {
				label = named.Obj().Name() + "." + field.Name()
			}
			return field, label
		}
		// Package-qualified variable (pkg.Mu).
		obj := lo.pkg.Info.Uses[e.Sel]
		if obj != nil {
			return obj, e.Sel.Name
		}
	}
	return nil, ""
}

// lockEvents collects the body's mutex operations in source order. Events
// inside nested function literals belong to the literal, not the enclosing
// body (the literal runs later, under whatever locks its caller holds).
func (lo *lockorderPass) lockEvents(body *ast.BlockStmt) []lockEvent {
	var evs []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if c, op := lo.classOf(e.Call); c != nil {
				evs = append(evs, lockEvent{pos: e.Pos(), node: e, class: c, op: op, deferred: true})
			}
			return false
		case *ast.CallExpr:
			if c, op := lo.classOf(e); c != nil {
				evs = append(evs, lockEvent{pos: e.Pos(), node: e, class: c, op: op})
			}
		}
		return true
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// heldLock is one entry of the simulated held set.
type heldLock struct {
	class *lockClass
	node  ast.Node
	read  bool // RLock
}

// walkFunc simulates the function body's lock events in source order and
// reports blocking operations performed while a lock is held, plus records
// acquisition edges. The simulation is textual — it ignores branch
// structure — which under-approximates held regions around early unlocks
// and conditional locks; the analyzer prefers missing those to flooding
// every branch with speculative findings.
func (lo *lockorderPass) walkFunc(fd *ast.FuncDecl) []Diagnostic {
	evs := lo.lockEvents(fd.Body)
	if len(evs) == 0 {
		return nil
	}
	var diags []Diagnostic
	var held []heldLock
	drop := func(c *lockClass) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == c {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	holds := func(c *lockClass) bool {
		for _, h := range held {
			if h.class == c {
				return true
			}
		}
		return false
	}
	// Interleave lock events with blocking operations and same-package
	// calls, all in source order.
	type site struct {
		pos  token.Pos
		node ast.Node
		// what is the blocking-operation description; empty for lock events
		// and lock-acquiring calls.
		what string
		ev   *lockEvent
		call *types.Func // same-package callee with a non-empty summary
	}
	var sites []site
	for i := range evs {
		sites = append(sites, site{pos: evs[i].pos, node: evs[i].node, ev: &evs[i]})
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false // runs at exit, under whatever is held there
		case *ast.SendStmt:
			sites = append(sites, site{pos: e.Pos(), node: e, what: "channel send"})
			return true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				sites = append(sites, site{pos: e.Pos(), node: e, what: "channel receive"})
			}
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range e.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				sites = append(sites, site{pos: e.Pos(), node: e, what: "select without default"})
			}
			// Walk only the clause bodies: the comm statements themselves
			// are covered by the select verdict (non-blocking when
			// defaulted), so they must not double-report as sends/receives.
			for _, cl := range e.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, visit)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if t := lo.pkg.Info.Types[e.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					sites = append(sites, site{pos: e.Pos(), node: e, what: "range over a channel"})
				}
			}
			return true
		case *ast.CallExpr:
			if what := lo.blockingCall(e); what != "" {
				sites = append(sites, site{pos: e.Pos(), node: e, what: what})
				return true
			}
			if callee := calleeFunc(lo.pkg.Info, e); callee != nil {
				if sum := lo.summary[callee]; len(sum) > 0 {
					if c, _ := lo.classOf(e); c == nil { // not itself a Lock event
						sites = append(sites, site{pos: e.Pos(), node: e, call: callee})
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })

	fnName := fd.Name.Name
	for _, s := range sites {
		switch {
		case s.ev != nil:
			ev := s.ev
			switch ev.op {
			case "Lock", "RLock", "TryLock", "TryRLock":
				if !holds(ev.class) {
					for _, h := range held {
						lo.edges = append(lo.edges, lockEdge{from: h.class, to: ev.class, node: ev.node, fn: fnName})
					}
					held = append(held, heldLock{class: ev.class, node: ev.node, read: ev.op == "RLock" || ev.op == "TryRLock"})
				}
				if ev.deferred {
					// defer mu.Lock() is surely a bug, but not this
					// analyzer's: treat it as not held.
					drop(ev.class)
				}
			case "Unlock", "RUnlock":
				if !ev.deferred {
					drop(ev.class)
				}
				// A deferred unlock keeps the lock held to function end.
			}
		case s.call != nil:
			for _, h := range held {
				for c := range lo.summary[s.call] {
					if c != h.class {
						lo.edges = append(lo.edges, lockEdge{from: h.class, to: c, node: s.node, fn: fnName})
					}
				}
			}
		default:
			if len(held) > 0 {
				names := make([]string, len(held))
				for i, h := range held {
					names[i] = h.class.name
				}
				diags = append(diags, diag(lo.pkg, "lockorder", s.node,
					"%s while holding %s in %s: a blocked peer stalls every goroutine queued on the lock",
					s.what, strings.Join(names, ", "), fnName))
			}
		}
	}
	return diags
}

// blockingCall classifies a call expression as a blocking operation: stream
// I/O (a callee whose receiver or leading parameter is a net.Conn or io
// reader/writer), a WaitGroup/Cond wait, a sleep, or a pooled decode (a
// Decode method from one of the module's decoder packages — milliseconds of
// CPU the caller would serialise behind the lock).
func (lo *lockorderPass) blockingCall(call *ast.CallExpr) string {
	f := calleeFunc(lo.pkg.Info, call)
	if f == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	pkgPath := ""
	if f.Pkg() != nil {
		pkgPath = f.Pkg().Path()
	}
	// Sleeps and waits.
	if pkgPath == "time" && f.Name() == "Sleep" {
		return "time.Sleep"
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
			if (named.Obj().Name() == "WaitGroup" || named.Obj().Name() == "Cond") && f.Name() == "Wait" {
				return "sync." + named.Obj().Name() + ".Wait"
			}
		}
		// Stream I/O methods on net/io/bufio types or anything satisfying
		// net.Conn (reads and writes block on the peer).
		switch f.Name() {
		case "Read", "Write", "ReadByte", "WriteByte", "ReadFull", "Flush", "ReadFrom", "WriteTo":
			if isStreamType(recv.Type()) {
				return "net/io " + f.Name()
			}
		case "Decode", "decode":
			if pkgPath != "" && strings.HasPrefix(pkgPath, modulePrefix(lo.pkg)) {
				return "pooled decode (" + f.Name() + ")"
			}
			if f.Pkg() == lo.pkg.Types {
				return "pooled decode (" + f.Name() + ")"
			}
		}
	}
	// Package-level stream helpers: io.ReadFull / io.Copy, and any
	// same-module function whose first parameter is a reader, writer or
	// conn (WriteFrame, ReadFrame and friends).
	if pkgPath == "io" {
		switch f.Name() {
		case "ReadFull", "ReadAll", "Copy", "CopyN", "CopyBuffer":
			return "io." + f.Name()
		}
	}
	if params := sig.Params(); params.Len() > 0 && sig.Recv() == nil {
		if isStreamType(params.At(0).Type()) &&
			(f.Pkg() == lo.pkg.Types || strings.HasPrefix(pkgPath, modulePrefix(lo.pkg))) {
			return f.Name() + " (stream I/O)"
		}
	}
	return ""
}

// modulePrefix guesses the module path prefix of the package under
// analysis, so "same module" checks work under both the real module path
// and the fixture loader's synthetic paths.
func modulePrefix(pkg *Package) string {
	path := pkg.Types.Path()
	if i := strings.Index(path, "/"); i > 0 {
		return path[:i+1]
	}
	return path
}

// isStreamType reports whether t is net.Conn, an implementation of it, or
// an io reader/writer interface — the types whose Read/Write block on a
// peer.
func isStreamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named := namedOf(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "net":
				return true // net.Conn, net.TCPConn, ...
			case "io":
				switch obj.Name() {
				case "Reader", "Writer", "ReadWriter", "ReadCloser", "WriteCloser", "ReadWriteCloser":
					return true
				}
			case "bufio":
				return true
			}
		}
		// A named type that embeds/implements net.Conn (the repo's conn
		// struct embeds net.Conn).
		if iface := lookupNetConn(obj.Pkg()); iface != nil {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// lookupNetConn finds the net.Conn interface through any imported package's
// import graph (nil when net is not imported anywhere near this package).
func lookupNetConn(from *types.Package) *types.Interface {
	for _, imp := range flattenImports(from) {
		if imp.Path() == "net" {
			if obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
	}
	return nil
}

func flattenImports(pkg *types.Package) []*types.Package {
	if pkg == nil {
		return nil
	}
	seen := map[*types.Package]bool{pkg: true}
	queue := []*types.Package{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	out := make([]*types.Package, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	return out
}

// cycleDiags finds acquisition-order cycles in the recorded edge set and
// reports every edge that participates in one, at its acquisition site.
func (lo *lockorderPass) cycleDiags() []Diagnostic {
	// Adjacency over distinct class pairs.
	adj := map[*lockClass]map[*lockClass]bool{}
	for _, e := range lo.edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = map[*lockClass]bool{}
		}
		adj[e.from][e.to] = true
	}
	// reachable reports whether to is reachable from from.
	reachable := func(from, to *lockClass) bool {
		seen := map[*lockClass]bool{}
		stack := []*lockClass{from}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c == to {
				return true
			}
			if seen[c] {
				continue
			}
			seen[c] = true
			for n := range adj[c] {
				stack = append(stack, n)
			}
		}
		return false
	}
	var diags []Diagnostic
	seenPair := map[string]bool{}
	for _, e := range lo.edges {
		if e.from == e.to {
			continue
		}
		if !reachable(e.to, e.from) {
			continue
		}
		key := e.from.name + "→" + e.to.name + "@" + fmt.Sprint(lo.pkg.Fset.Position(e.node.Pos()))
		if seenPair[key] {
			continue
		}
		seenPair[key] = true
		diags = append(diags, diag(lo.pkg, "lockorder", e.node,
			"acquiring %s while holding %s in %s closes an acquisition-order cycle (%s is elsewhere held while %s is acquired): lock in one order everywhere",
			e.to.name, e.from.name, e.fn, e.to.name, e.from.name))
	}
	return diags
}
