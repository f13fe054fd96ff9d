package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureLoad is one harness entry: a testdata/src directory loaded under a
// module-relative path. The same directory can be loaded twice — once under
// an in-scope rel checked against its // want comments, once under an
// out-of-scope rel where every analyzer must stay silent.
type fixtureLoad struct {
	dir  string // directory under testdata/src
	rel  string // module-relative path the analyzers scope on
	zero bool   // expect zero diagnostics and ignore want comments
}

var fixtureLoads = []fixtureLoad{
	{dir: "determinism", rel: "internal/dem"},
	{dir: "determinism", rel: "internal/drift"},
	{dir: "determinism", rel: "internal/sparsemwpm"},
	{dir: "floateq", rel: "internal/sparsemwpm"},
	{dir: "floateq", rel: "internal/exactmatch"},
	{dir: "endian", rel: "internal/server"},
	{dir: "errwrap", rel: "internal/server"},
	{dir: "exhaustive", rel: "internal/compress"},
	{dir: "floateq", rel: "internal/blossom"},
	{dir: "gohygiene", rel: "internal/cluster"},
	{dir: "allowlist", rel: "internal/blossom"},
	{dir: "lockorder", rel: "internal/cluster"},
	{dir: "lockorder_allow", rel: "internal/cluster"},
	{dir: "hotalloc", rel: "internal/bitvec"},
	{dir: "hotalloc_allow", rel: "internal/bitvec"},
	{dir: "wiresym", rel: "internal/server"},
	{dir: "wiresym_allow", rel: "internal/server"},

	// Scope negatives: identical sources, out-of-scope rel.
	{dir: "determinism", rel: "internal/realtime", zero: true},
	{dir: "endian", rel: "internal/dem", zero: true},
	{dir: "errwrap_scope", rel: "internal/dem", zero: true},
	{dir: "floateq", rel: "internal/report", zero: true},
	{dir: "gohygiene", rel: "internal/realtime", zero: true},
	{dir: "lockorder", rel: "internal/report", zero: true},
	{dir: "hotalloc", rel: "internal/report", zero: true},
	{dir: "wiresym", rel: "internal/compress", zero: true},
}

// TestFixtures runs the full analyzer set over each fixture package and
// matches the diagnostics against the fixture's // want `regex` comments:
// every want must be hit by a diagnostic on its line, and every diagnostic
// must be claimed by a want. A `// want+1` comment applies to the next
// line, for findings that land on a comment line (malformed directives).
func TestFixtures(t *testing.T) {
	loader := NewLoader()
	for i, fx := range fixtureLoads {
		t.Run(fmt.Sprintf("%s@%s", fx.dir, fx.rel), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.dir)
			pkg, err := loader.LoadDir(dir, fmt.Sprintf("astreafix%d/%s", i, fx.dir), fx.rel)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			if pkg == nil {
				t.Fatalf("fixture %s has no Go files", dir)
			}
			diags := Apply(pkg, Analyzers)
			if fx.zero {
				for _, d := range diags {
					t.Errorf("out-of-scope load produced a diagnostic: %s", d)
				}
				return
			}
			checkWants(t, dir, diags)
		})
	}
}

// wantLine matches a // want or // want+1 marker; patterns follow in
// backquotes so they can contain double quotes.
var (
	wantLine    = regexp.MustCompile("// want(\\+1)? (.+)$")
	wantPattern = regexp.MustCompile("`([^`]+)`")
)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{} // "file.go:line" -> expectations
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(b), "\n") {
			m := wantLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := ln + 1 // lines are 1-based
			if m[1] == "+1" {
				target++
			}
			pats := wantPattern.FindAllStringSubmatch(m[2], -1)
			if len(pats) == 0 {
				t.Fatalf("%s:%d: want marker carries no backquoted pattern", e.Name(), ln+1)
			}
			key := fmt.Sprintf("%s:%d", e.Name(), target)
			for _, p := range pats {
				re, err := regexp.Compile(p[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), ln+1, p[1], err)
				}
				wants[key] = append(wants[key], &expectation{re: re, raw: p[1]})
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		text := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		claimed := false
		for _, w := range wants[key] {
			if w.re.MatchString(text) {
				w.matched = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: want `%s` matched no diagnostic", key, w.raw)
			}
		}
	}
}

// TestVetCleanTree holds the real module to zero findings: the same pass
// cmd/astrea-vet runs in CI, executed in-process over every package. A
// regression that introduces a finding (or an allow that stops suppressing
// anything) fails here before it reaches the CI lint job.
func TestVetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	m := loadModule(t)
	pkgs := m.pkgs
	// A walk that silently misses the tree would vacuously pass; the module
	// has far more packages than this floor.
	if len(pkgs) < 15 {
		t.Fatalf("LoadModule found only %d packages; walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range Apply(pkg, Analyzers) {
			t.Errorf("%s", d)
		}
	}
}
