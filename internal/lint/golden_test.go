package lint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// goldenWant is the exact diagnostic set the fixture tree under
// testdata/src must produce — one deliberately bad construct per
// analyzer (plus compliant siblings that must stay silent). Any
// analyzer regression shows up as a missing or changed line.
var goldenWant = []string{
	"cmd/badexit/main.go:13: exitdiscipline: log.Fatal exits without the usage/exit-code discipline; use the fatal helper (exit 1) or usageErr (exit 2) instead",
	"cmd/badexit/main.go:16: exitdiscipline: os.Exit outside the usageErr/fatal helpers; route flag-validation failures through usageErr (exit 2) and runtime failures through fatal (exit 1)",
	"cmd/badexit/main.go:25: exitdiscipline: usageErr must exit with status 2, got os.Exit(1)",
	"internal/badbulk/badbulk.go:14: bulkcharge: per-word Read on a unit-stride address inside a +1 loop charges per word — use ReadRange to charge the interval in O(segments)",
	"internal/badbulk/badbulk.go:23: bulkcharge: per-word Write on a unit-stride address inside a +1 loop charges per word — use WriteRange to charge the interval in O(segments)",
	"internal/badbulk/badbulk.go:31: bulkcharge: per-word Read on a unit-stride address inside a +1 loop charges per word — use ReadRange to charge the interval in O(segments)",
	"internal/badbulk/badbulk.go:39: bulkcharge: per-word SwapWords on a unit-stride address inside a +1 loop charges per word — use SwapRange to charge the interval in O(segments)",
	`internal/badconfine/badconfine.go:14: stepconfine: Run closure writes captured variable "total"; processors execute concurrently, so writes to enclosing-scope state race (keep per-processor state in the Ctx, or aggregate after the run)`,
	`internal/badconfine/badconfine.go:26: stepconfine: Run closure writes captured variable "log"; processors execute concurrently, so writes to enclosing-scope state race (keep per-processor state in the Ctx, or aggregate after the run)`,
	"internal/baddetflow/baddetflow.go:35: detflow: argument to Emit is tainted by map-iteration order (baddetflow.go:31) and reaches printed output inside it (baddetflow.go:22): nondeterminism in output breaks the byte-identical sweep contract",
	"internal/baddetflow/baddetflow.go:58: detflow: value tainted by a wall-clock reading (baddetflow.go:53) via Uptime reaches printed output: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/baddetflow/baddetflow.go:68: detflow: argument to LogCost is tainted by a wall-clock reading (baddetflow.go:53) via Uptime and reaches printed output inside it (baddetflow.go:63): nondeterminism in output breaks the byte-identical sweep contract",
	"internal/baddetflow/baddetflow.go:80: detflow: argument to LogPair is tainted by map-iteration order (baddetflow.go:79) and reaches printed output inside it (baddetflow.go:73): nondeterminism in output breaks the byte-identical sweep contract",
	"internal/baddetflow/baddetflow.go:80: detflow: call to LogPair, which emits output (fmt.Printf at baddetflow.go:73), inside a map range: records land in randomized iteration order; iterate sorted keys instead",
	"internal/baddetflow/baddetflow.go:93: detflow: value tainted by select scheduling order (baddetflow.go:89) reaches an error string (golden files compare these): nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/badfold/badfold.go:17: detflow: value tainted by map-iteration order (badfold.go:16) reaches a float64 cost accumulation: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	`internal/badfold/badfold.go:17: floatfold: float64 accumulation into "sum" inside a map-range body: iteration order is randomized, so this fold can reassociate run to run; fold over a sorted order or collect per-key partials (engineLoop is the sanctioned single-chain fold)`,
	`internal/badfold/badfold.go:51: floatfold: float64 accumulation into captured "total" from a goroutine: workers fold in completion order, which reassociates the sum; accumulate per-worker partials and merge them in a fixed order`,
	`internal/badfold/badfold.go:55: floatfold: float64 accumulation into captured "total" from a goroutine: workers fold in completion order, which reassociates the sum; accumulate per-worker partials and merge them in a fixed order`,
	"internal/badfold/badfold.go:92: floatfold: go importInto: the callee accumulates float64 cost (badfold.go:85) into caller-visible state, and goroutines complete in scheduling order; merge per-worker partials in a fixed order instead",
	`internal/badfold/badfold.go:100: floatfold: goroutine calls Add, which accumulates float64 cost (metrics.go:59), on captured "c": partials fold in completion order, which reassociates the sum; merge per-worker partials in a fixed order instead`,
	"internal/badlock/badlock.go:20: lockdiscipline: \"count\" is annotated `guarded by mu` but t.mu is not held here — lock it first or move the access into a *Locked helper",
	"internal/badlock/badlock.go:29: lockdiscipline: \"names\" is annotated `guarded by mu` but t.mu is not held here — lock it first or move the access into a *Locked helper",
	"internal/badlock/badlock.go:40: lockdiscipline: \"count\" is annotated `guarded by mu` but t.mu is not held here — lock it first or move the access into a *Locked helper",
	"internal/badlock/badlock.go:46: lockdiscipline: sumLocked assumes t.mu held (the *Locked convention) but it is not held at this call",
	`internal/badpanic/badpanic.go:13: panicmsg: panic message "boom with no prefix" must start with the package prefix "badpanic: "`,
	`internal/badpanic/badpanic.go:16: panicmsg: panic argument must be a "badpanic: "-prefixed message (string literal, "badpanic: " + ..., or fmt.Sprintf/Errorf with a prefixed format); got a value the linter cannot see a prefix in`,
	`internal/badpanic/badpanic.go:19: panicmsg: panic message "other: wrong prefix %d" must start with the package prefix "badpanic: "`,
	`internal/badseed/badseed.go:20: directive: malformed //lint:ignore: want "//lint:ignore <analyzer> <reason>" — the reason is mandatory`,
	"internal/badseed/badseed.go:38: detflow: value tainted by map-iteration order (badseed.go:37) reaches printed output: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/badseed/badseed.go:45: detflow: value tainted by map-iteration order (badseed.go:44) reaches a dbsp message send: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/badseed/badseed.go:79: detflow: value tainted by a wall-clock reading (badseed.go:21) via Stamp reaches printed output: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/badseed/badseed.go:80: detflow: value tainted by a global math/rand draw (badseed.go:26) via Draw reaches printed output: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	"internal/badseed/badseed.go:82: detflow: value tainted by map-iteration order (badseed.go:53) via Keys reaches printed output: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
	`internal/badshare/badshare.go:32: sharesafe: "jobs" was captured by a goroutine's closure at line 26; writing it afterwards races with the receiving goroutine — hand off a copy, or synchronize before reusing it`,
	`internal/badshare/badshare.go:40: sharesafe: "buf" was sent over a channel at line 39; writing through it afterwards races with the receiving goroutine — hand off a copy, or synchronize before reusing it`,
	`internal/badshare/badshare.go:48: sharesafe: "scale" was captured by a closure sent over a channel at line 47; writing it afterwards races with the receiving goroutine — hand off a copy, or synchronize before reusing it`,
	`internal/badshare/badshare.go:55: sharesafe: "view" was handed to a goroutine at line 54; appending to it in place afterwards races with the receiving goroutine — hand off a copy, or synchronize before reusing it`,
	"internal/obs/metrics.go:48: snapshotonly: obs.Add mutates observability state but is reachable from an obshttp handler — handlers must stay snapshot-only (the static form of TestServeLiveObservability's contract)",
	"internal/obs/obshttp/handlers.go:26: snapshotonly: obs.Add mutates observability state but is reachable from an obshttp handler — handlers must stay snapshot-only (the static form of TestServeLiveObservability's contract)",
	"internal/obs/obshttp/handlers.go:45: snapshotonly: obs.Reset mutates observability state but is reachable from an obshttp handler — handlers must stay snapshot-only (the static form of TestServeLiveObservability's contract)",
	"internal/obs/sink.go:11: nilguard: exported method (*Sink).Emit must begin with a nil-receiver guard (`if s == nil`) so disabled instrumentation stays free",
	"internal/progs/progs.go:19: stepshape: Program.Steps literal must end with a Label: 0 superstep (global barrier, paper Section 2); last superstep has Label: 2",
	"internal/progs/progs.go:26: stepshape: Program V = 12 is not a positive power of two; the D-BSP cluster hierarchy needs V = 2^k (paper Section 2)",
	"internal/progs/progs.go:37: stepshape: superstep label 4 exceeds log2(V) = 3 for V = 8; no such cluster level exists (paper Section 2)",
	"internal/progs/progs.go:47: stepshape: superstep label -1 is negative; labels index the cluster hierarchy and must lie in [0, log2 V]",
	"internal/progs/progs.go:58: stepshape: TransposeRoute 2x4 does not cover the label-1 cluster: M1*M2 = 8, cluster size is 4 (the BT riffle routing of paper Section 6 needs the exact factorization)",
}

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "fixture.example")
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return pkgs
}

func TestGoldenFixtures(t *testing.T) {
	root, _ := filepath.Abs(filepath.Join("testdata", "src"))
	findings := Run(loadFixtures(t), Analyzers())

	var got []string
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d: %s: %s",
			filepath.ToSlash(rel), f.Pos.Line, f.Analyzer, f.Message))
	}

	for i := 0; i < len(got) || i < len(goldenWant); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing finding:\n  want %s", goldenWant[i])
		case i >= len(goldenWant):
			t.Errorf("unexpected finding:\n  got  %s", got[i])
		case got[i] != goldenWant[i]:
			t.Errorf("finding %d:\n  got  %s\n  want %s", i, got[i], goldenWant[i])
		}
	}
}

// TestGoldenEveryAnalyzerFires guards the fixture tree itself: each
// analyzer must report at least one fixture line that no other
// analyzer reports. An analyzer that finds nothing (removed, or its Run
// silently broken) fails, and so does one whose every seeded bug
// another analyzer already catches — an analyzer earns its place in
// the suite with a bug only it flags.
func TestGoldenEveryAnalyzerFires(t *testing.T) {
	analyzers := Analyzers()
	byLine := map[string]map[string]bool{}
	for _, f := range Run(loadFixtures(t), analyzers) {
		if f.Analyzer == "directive" {
			continue // directive hygiene findings belong to no analyzer
		}
		line := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if byLine[line] == nil {
			byLine[line] = map[string]bool{}
		}
		byLine[line][f.Analyzer] = true
	}
	own := map[string]bool{}
	for _, names := range byLine {
		if len(names) == 1 {
			for name := range names {
				own[name] = true
			}
		}
	}
	for _, a := range analyzers {
		if !own[a.Name] {
			t.Errorf("analyzer %s reports no fixture line that no other analyzer reports", a.Name)
		}
	}
}

// TestRepoIsClean is the self-hosting check: the repository's own
// packages must produce zero findings, mirroring the CI gate.
func TestRepoIsClean(t *testing.T) {
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
	for _, f := range Run(pkgs, Analyzers()) {
		t.Errorf("repo finding: %s", f)
	}
}
