#!/usr/bin/env bash
# Determinism gate: the tables cmd/experiments prints must be byte-identical
# to the region committed in EXPERIMENTS.md. Any model drift — a charge
# reordered, a float folded differently, an extra access — shows up here as
# a diff long before it shows up as a wrong conclusion.
#
# Usage: scripts/check_experiments.sh [extra experiments flags...]
# (from anywhere inside the repo). Extra flags are passed through to the
# binary — e.g. `-serve 127.0.0.1:0 -cost-profile /tmp/cost.folded` proves
# the observability layer leaves the tables byte-identical.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp) out=$(mktemp) body=$(mktemp)
trap 'rm -f "$bin" "$out" "$body"' EXIT

go build -o "$bin" ./cmd/experiments
"$bin" -workers=1 "$@" >"$out"

# Drop the two-line generated header ("# Experiment tables (generated …)"
# plus the blank line after it); the date changes per run. Everything after
# it must appear verbatim — as one contiguous byte range — in EXPERIMENTS.md.
tail -n +3 "$out" >"$body"

python3 - "$body" EXPERIMENTS.md <<'PYEOF'
import sys

body = open(sys.argv[1], "rb").read()
doc = open(sys.argv[2], "rb").read()
off = doc.find(body)
if off < 0:
    sys.stderr.write(
        "determinism gate FAILED: cmd/experiments output is not a byte-for-byte\n"
        "substring of EXPERIMENTS.md. Either a change drifted the cost model\n"
        "(fix the change) or the tables were intentionally regenerated\n"
        "(update EXPERIMENTS.md in the same commit).\n"
    )
    sys.exit(1)
print(f"determinism gate OK: {len(body)} bytes match EXPERIMENTS.md at offset {off}")
PYEOF

# Sweep-contract determinism: the engine's schedule-independence tests
# (error reporting, duplicate-ID rejection, ordered streaming) must hold
# at every worker count — the same contract the dbspd service builds its
# result cache on.
go test -run 'TestContract' -count=1 ./internal/sweep/

# Dry-run finding counts: the full dbsplint suite over the module, folded
# to a per-analyzer tally over the full roster (-list), zeros included —
# so both a new finding and a silently vanished analyzer are visible.
# Every count must be zero — any finding here means a change landed
# without fixing or //lint:ignore-justifying it.
lintbin=$(mktemp) lintout=$(mktemp) lintroster=$(mktemp)
trap 'rm -f "$bin" "$out" "$body" "$lintbin" "$lintout" "$lintroster"' EXIT
go build -o "$lintbin" ./cmd/dbsplint
"$lintbin" -list >"$lintroster"
lint_status=0
"$lintbin" -json ./... >"$lintout" || lint_status=$?
python3 - "$lintout" "$lint_status" "$lintroster" <<'PYEOF'
import collections, json, sys

findings = json.load(open(sys.argv[1]))
roster = [line.split()[0] for line in open(sys.argv[3]) if line.strip()]
counts = collections.Counter(f["analyzer"] for f in findings)
for name in roster:
    print(f"lint findings: {name}: {counts.pop(name, 0)}")
for name, n in sorted(counts.items()):  # findings from off-roster analyzers: impossible, but never hide
    print(f"lint findings: {name}: {n}")
print(f"lint findings: total: {len(findings)} across {len(roster)} analyzers")
if findings or sys.argv[2] != "0":
    sys.stderr.write("lint gate FAILED: fix the findings above or justify each with //lint:ignore <analyzer> <reason>\n")
    sys.exit(1)
if len(roster) < 11:
    sys.stderr.write(f"lint gate FAILED: -list shows {len(roster)} analyzers, expected at least 11 — did an analyzer fall off the roster?\n")
    sys.exit(1)
PYEOF
