package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadedModule is one type-checked load of the whole module, shared by the
// tests that need it: the load is most of their cost, and it is the same
// load each time.
type loadedModule struct {
	root   string
	loader *Loader // its source importer has every dependency cached
	pkgs   []*Package
	err    error
}

var (
	moduleOnce sync.Once
	module     loadedModule
)

// loadModule returns the shared load, making it on first use.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	moduleOnce.Do(func() {
		m := &module
		if m.root, m.err = FindModuleRoot("."); m.err != nil {
			return
		}
		m.loader = NewLoader()
		m.pkgs, m.err = m.loader.LoadModule(m.root)
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return &module
}

// TestLoadDirMatchesModuleWalk pins the two loading paths to each other:
// cmd/astrea-vet with explicit directory arguments must analyze exactly the
// package set `astrea-vet ./...` does. The test re-walks the module with
// the documented skip rules (testdata, hidden, underscore-prefixed) and
// loads every directory individually; the per-dir set and LoadModule's set
// must be identical.
func TestLoadDirMatchesModuleWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source, twice")
	}
	m := loadModule(t)
	root, loader := m.root, m.loader
	modPath, err := ModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}

	// The shared loader's source importer has every dependency cached, so
	// the per-dir pass re-checks only each target package.
	moduleSet := map[string]bool{}
	for _, p := range m.pkgs {
		moduleSet[p.Rel] = true
	}

	perDirSet := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != root &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		path := modPath
		if rel != "." {
			path = modPath + "/" + rel
		}
		pkg, err := loader.LoadDir(p, path, rel)
		if err != nil {
			return err
		}
		if pkg != nil {
			perDirSet[rel] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for rel := range moduleSet {
		if !perDirSet[rel] {
			t.Errorf("LoadModule found %s but the per-dir walk did not", rel)
		}
	}
	for rel := range perDirSet {
		if !moduleSet[rel] {
			t.Errorf("per-dir walk found %s but LoadModule did not", rel)
		}
	}
}

// TestScopeEntriesExist fails loudly on scope-list rot: every package an
// analyzer scopes on must exist in the module and contain non-test Go
// files. A package that is renamed or deleted without updating the scope
// list would otherwise silently shrink the analyzer's coverage to nothing.
func TestScopeEntriesExist(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Analyzers {
		for _, rel := range sortedScope(a.Scope) {
			ents, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(rel)))
			if err != nil {
				t.Errorf("analyzer %s scopes on %s, which does not exist: %v", a.Name, rel, err)
				continue
			}
			hasGo := false
			for _, e := range ents {
				if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
					hasGo = true
					break
				}
			}
			if !hasGo {
				t.Errorf("analyzer %s scopes on %s, which has no non-test Go files", a.Name, rel)
			}
		}
	}
}

// TestScopedAnalyzersHaveFixtures fails loudly when a scoped analyzer has
// no fixture coverage: each analyzer that declares a Scope must have at
// least one in-scope fixture load (dir named after the analyzer, rel inside
// the scope) exercising its positives, and at least one zero-expectation
// load of the same fixture at an out-of-scope rel proving the scoping.
func TestScopedAnalyzersHaveFixtures(t *testing.T) {
	for _, a := range Analyzers {
		if a.Scope == nil {
			continue // module-wide analyzer; scoping needs no fixture proof
		}
		inScope, scopeNeg := false, false
		for _, fx := range fixtureLoads {
			if fx.dir != a.Name {
				continue
			}
			if fx.zero && !a.Scope[fx.rel] {
				scopeNeg = true
			}
			if !fx.zero && a.Scope[fx.rel] {
				inScope = true
			}
		}
		if !inScope {
			t.Errorf("analyzer %s has a scope list but no in-scope fixture load named %q", a.Name, a.Name)
		}
		if !scopeNeg {
			t.Errorf("analyzer %s has a scope list but no out-of-scope (zero) fixture load named %q", a.Name, a.Name)
		}
	}
}

func sortedScope(scope map[string]bool) []string {
	rels := make([]string, 0, len(scope))
	for rel := range scope {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return rels
}
