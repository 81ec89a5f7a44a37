#!/usr/bin/env bash
# Lint smoke: the full dbsplint suite — syntactic checks, the dbspvet
# typed pass, the dataflow analyzer (lockdiscipline), and the
# interprocedural determinism vet (detflow, floatfold) — must run clean
# over the module, and fast. The wall-clock budget (5s, build
# excluded) guards the analysis layers: CFG construction and fixpoint
# solving run per function, the call graph and summary fixpoint per
# module, and a superlinear regression in either would make per-push
# linting unusable long before it made it wrong. The suite measured
# 0.63-1.08s on 2 vCPUs (Intel Xeon, eight runs), so the budget leaves
# over 4x headroom for slower CI runners.
#
# Usage: scripts/lint_smoke.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

budget_s=5
bin=$(mktemp) out=$(mktemp)
trap 'rm -f "$bin" "$out"' EXIT

go build -o "$bin" ./cmd/dbsplint

start=$(date +%s%N)
if ! "$bin" ./... >"$out" 2>&1; then
  cat "$out" >&2
  echo "lint smoke FAILED: dbsplint reported findings (fix them or add //lint:ignore <analyzer> <reason>)" >&2
  exit 1
fi
elapsed_ns=$(( $(date +%s%N) - start ))
elapsed_ms=$(( elapsed_ns / 1000000 ))

if [ -s "$out" ]; then
  cat "$out" >&2
  echo "lint smoke FAILED: clean exit but unexpected output" >&2
  exit 1
fi
if [ "$elapsed_ms" -ge $(( budget_s * 1000 )) ]; then
  echo "lint smoke FAILED: suite took ${elapsed_ms}ms, budget is ${budget_s}s" >&2
  exit 1
fi
echo "lint smoke OK: full suite clean in ${elapsed_ms}ms (budget ${budget_s}s)"
