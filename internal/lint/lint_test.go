package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestModulePath(t *testing.T) {
	dir := t.TempDir()
	gomod := "// a comment\nmodule example.com/mymod\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ModulePath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != "example.com/mymod" {
		t.Errorf("ModulePath = %q, want example.com/mymod", got)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nested := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := FindModuleRoot(nested)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := filepath.EvalSymlinks(root)
	gotEval, _ := filepath.EvalSymlinks(got)
	if gotEval != want {
		t.Errorf("FindModuleRoot = %q, want %q", got, root)
	}
}

func TestImportName(t *testing.T) {
	src := `package p

import (
	"fmt"
	aliased "os"
	"repro/internal/dbsp"
)

var _ = fmt.Sprint
var _ = aliased.Getpid
var _ = dbsp.Log2
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, want string }{
		{"fmt", "fmt"},
		{"os", "aliased"},
		{"repro/internal/dbsp", "dbsp"}, // default name = last path element
		{"not/imported", ""},
	}
	for _, c := range cases {
		if got := importName(file, c.path); got != c.want {
			t.Errorf("importName(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

// TestLoadSkipsTestdataAndTests: the loader must exclude _test.go
// files and testdata trees — fixture code is intentionally bad and
// must never reach a real lint run.
func TestLoadSkipsTestdataAndTests(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modpath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, modpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if filepath.Base(pkg.Dir) == "testdata" {
			t.Errorf("loader picked up testdata package %s", pkg.Path)
		}
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			if len(name) > 8 && name[len(name)-8:] == "_test.go" {
				t.Errorf("loader picked up test file %s", name)
			}
		}
	}
}
