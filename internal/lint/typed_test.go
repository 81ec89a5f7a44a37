package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadTemp writes files (name -> source) into a fresh temp module and
// loads it, giving each test an isolated package set.
func loadTemp(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmp.example\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, "tmp.example")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestTypeCheckConstantFolding: the typed pass must fold constants
// assembled from module-local declarations — the mechanism stepshape
// and costcharge lean on.
func TestTypeCheckConstantFolding(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"a/a.go": `package a

const Base = 1 << 3

const Name = "sim" + ".cost."
`,
		"b/b.go": `package b

import "tmp.example/a"

var V = a.Base * 2

var S = a.Name + "compute"
`,
	})
	TypeCheck(pkgs)
	var b *Package
	for _, p := range pkgs {
		if p.Name == "b" {
			b = p
		}
	}
	if b == nil || b.Info == nil {
		t.Fatal("package b not type-checked")
	}
	var intGot, strGot bool
	for _, file := range b.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 1 {
				return true
			}
			switch vs.Names[0].Name {
			case "V":
				if v, ok := constIntOf(b, vs.Values[0]); !ok || v != 16 {
					t.Errorf("constIntOf(a.Base * 2) = (%d, %v), want (16, true)", v, ok)
				}
				intGot = true
			case "S":
				if s, ok := constStringOf(b, vs.Values[0]); !ok || s != "sim.cost.compute" {
					t.Errorf("constStringOf(a.Name + ...) = (%q, %v), want (sim.cost.compute, true)", s, ok)
				}
				strGot = true
			}
			return true
		})
	}
	if !intGot || !strGot {
		t.Fatalf("did not reach both value specs (int %v, string %v)", intGot, strGot)
	}
}

// TestTypeCheckFakeImports: an out-of-module import resolves to a
// placeholder package, but the import reference itself still yields the
// real path through *types.PkgName — even behind an alias. That is the
// property detflow's time.Now / rand.Intn source detection rests on.
func TestTypeCheckFakeImports(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"c/c.go": `package c

import clock "time"

var T = clock.Now()
`,
	})
	TypeCheck(pkgs)
	p := pkgs[0]
	if p.Types == nil {
		t.Fatal("package not type-checked")
	}
	var resolved bool
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgSelCall(p, call)
			if !ok {
				t.Error("pkgSelCall did not resolve clock.Now()")
				return true
			}
			if path != "time" || name != "Now" {
				t.Errorf("pkgSelCall = (%q, %q), want (time, Now)", path, name)
			}
			resolved = true
			return true
		})
	}
	if !resolved {
		t.Fatal("no call expression found")
	}
}

// TestLoadBuildTags: files excluded by //go:build must not be loaded
// (their dead declarations would poison the typed pass), while files
// whose constraint is satisfied load normally.
func TestLoadBuildTags(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"d/keep.go": `package d

var Keep = 1
`,
		"d/gen.go": `//go:build ignore

package main

var Dropped = 2
`,
		"d/recent.go": `//go:build go1.1

package d

var Recent = 3
`,
	})
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1 (the ignore-tagged main must be dropped)", len(pkgs))
	}
	p := pkgs[0]
	if p.Name != "d" {
		t.Fatalf("loaded package %q, want d", p.Name)
	}
	var names []string
	for _, file := range p.Files {
		names = append(names, filepath.Base(p.Fset.Position(file.Pos()).Filename))
	}
	if len(names) != 2 {
		t.Fatalf("package d has files %v, want [gen.go excluded; keep.go recent.go kept]", names)
	}
}

// TestDirectives: a justified //lint:ignore on a nondeterminism source
// suppresses the finding that source would induce at its sink; a
// reason-less one is malformed and suppresses nothing; one that
// suppresses nothing is stale.
func TestDirectives(t *testing.T) {
	pkgs := loadTemp(t, map[string]string{
		"internal/e/e.go": `package e

import (
	"fmt"
	"time"
)

// Stamp is exempted at its source with a recorded justification.
func Stamp() int64 {
	//lint:ignore detflow test fixture justification
	return time.Now().UnixNano()
}

func Bare() int64 {
	//lint:ignore detflow
	return time.Now().UnixNano()
}

//lint:ignore detflow nothing here uses the clock
func Quiet() int { return 0 }

// Print is the sink both clock reads reach.
func Print() {
	fmt.Println(Stamp(), Bare(), Quiet())
}
`,
	})
	findings := Run(pkgs, []*Analyzer{DetFlow})

	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	// Expect: the Bare clock read reaching Print survives (its directive
	// is malformed), plus one malformed-directive and one stale-directive
	// hygiene finding. The Stamp finding must be suppressed.
	var detflow, malformed, stale int
	for _, f := range findings {
		switch {
		case f.Analyzer == "detflow" && strings.Contains(f.Message, "via Bare"):
			detflow++
		case f.Analyzer == "directive" && strings.Contains(f.Message, "malformed"):
			malformed++
		case f.Analyzer == "directive" && strings.Contains(f.Message, "stale"):
			stale++
		}
	}
	if len(findings) != 3 || detflow != 1 || malformed != 1 || stale != 1 {
		t.Errorf("findings:\n  %s\nwant one surviving detflow (via Bare), one malformed, one stale",
			strings.Join(got, "\n  "))
	}
}
