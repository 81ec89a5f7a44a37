// Command dbsplint runs the repo's custom static-analysis suite
// (internal/lint) over the module: the syntactic convention checks,
// the dbspvet typed pass that verifies D-BSP program shape, the
// dataflow analyzers (sharesafe, lockdiscipline, snapshotonly,
// bulkcharge) that prove the concurrency and bulk-charge disciplines
// over per-function control-flow graphs, and the interprocedural
// analyzers (detflow, floatfold) that follow nondeterminism and
// float64 folds across call chains to the byte-compared outputs.
// Findings print one per line as
//
//	file:line: analyzer: message
//
// and any finding makes the command exit with status 1, so CI can gate
// on it. Usage:
//
//	dbsplint [-list] [-json] [-only a,b | -skip a,b] ./...
//
// -json emits the findings as a JSON array on stdout (an empty run
// prints "[]"), for editor and tooling integration. -only restricts the
// run to the named analyzers; -skip runs all but the named ones; the
// two are mutually exclusive, and unknown analyzer names or a selection
// that leaves nothing to run are usage errors (exit 2).
//
// Patterns are directory trees: "./..." (or "dir/...") lints every
// package under the directory; a plain directory lints that tree too.
// Import paths are resolved against the enclosing module's go.mod.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// usageErr reports a flag-validation failure: the message, then the
// flag usage, then exit status 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "dbsplint: %s\n\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// fatal reports a runtime failure and exits with status 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbsplint: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// selectAnalyzers applies the -only/-skip filters. Unknown names in
// either list, and a selection that leaves no analyzer to run, are
// usage errors: a typo must not silently run (or skip) nothing.
func selectAnalyzers(all []*lint.Analyzer, only, skip string) []*lint.Analyzer {
	if only != "" && skip != "" {
		usageErr("-only and -skip are mutually exclusive")
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(flagName, csv string) map[string]bool {
		set := make(map[string]bool)
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				usageErr("%s: unknown analyzer %q (see -list)", flagName, name)
			}
			set[name] = true
		}
		return set
	}
	var selected []*lint.Analyzer
	switch {
	case only != "":
		want := parse("-only", only)
		for _, a := range all {
			if want[a.Name] {
				selected = append(selected, a)
			}
		}
	case skip != "":
		drop := parse("-skip", skip)
		for _, a := range all {
			if !drop[a.Name] {
				selected = append(selected, a)
			}
		}
	default:
		return all
	}
	if len(selected) == 0 {
		usageErr("-only/-skip selects no analyzer (see -list)")
	}
	return selected
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and the invariants they enforce")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	only := flag.String("only", "", "comma-separated analyzers to run (exclusive with -skip)")
	skip := flag.String("skip", "", "comma-separated analyzers to skip (exclusive with -only)")
	flag.Parse()

	analyzers := selectAnalyzers(lint.Analyzers(), *only, *skip)
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %-10s %s\n", a.Name, a.Layer, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		usageErr("no packages: run dbsplint ./...")
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	modRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal("%v", err)
	}
	modPath, err := lint.ModulePath(modRoot)
	if err != nil {
		fatal("%v", err)
	}
	pkgs, err := lint.Load(modRoot, modPath)
	if err != nil {
		fatal("%v", err)
	}

	// Resolve each pattern to an absolute directory prefix and keep the
	// packages under any of them.
	var roots []string
	for _, arg := range flag.Args() {
		dir := strings.TrimSuffix(arg, "...")
		dir = strings.TrimSuffix(dir, string(filepath.Separator))
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			fatal("%v", err)
		}
		if _, err := os.Stat(abs); err != nil {
			usageErr("bad pattern %q: %v", arg, err)
		}
		roots = append(roots, abs)
	}
	var selected []*lint.Package
	for _, pkg := range pkgs {
		for _, root := range roots {
			if pkg.Dir == root || strings.HasPrefix(pkg.Dir, root+string(filepath.Separator)) {
				selected = append(selected, pkg)
				break
			}
		}
	}

	findings := lint.Run(selected, analyzers)
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			rel, err := filepath.Rel(cwd, f.Pos.Filename)
			if err != nil || strings.HasPrefix(rel, "..") {
				rel = f.Pos.Filename
			}
			out = append(out, jsonFinding{
				File:     filepath.ToSlash(rel),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
		if len(findings) > 0 {
			os.Exit(1) //lint:ignore exitdiscipline findings already reported on stdout as JSON; the fatal helper would add a stderr line tooling does not expect
		}
		return
	}
	for _, f := range findings {
		rel, err := filepath.Rel(cwd, f.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = f.Pos.Filename
		}
		fmt.Printf("%s:%d: %s: %s\n", rel, f.Pos.Line, f.Analyzer, f.Message)
	}
	if n := len(findings); n > 0 {
		fatal("%d finding(s) in %d package(s)", n, len(selected))
	}
}
