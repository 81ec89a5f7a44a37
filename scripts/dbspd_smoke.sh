#!/usr/bin/env bash
# Service smoke: start the dbspd daemon, submit an experiment program
# over the HTTP API, and require its streamed JSONL to match what
# cmd/experiments writes for the same selection — byte for byte after
# masking the documented run-varying start_ms/wall_ms fields. Then
# prove the result cache (resubmission answers cached:true with the
# exact bytes of the first response), scrape /metrics and
# /debug/progress, and require a clean exit 0 on SIGTERM. This is the
# shell-level twin of cmd/dbspd's TestDaemonMatchesExperimentsCLI.
#
# Usage: scripts/dbspd_smoke.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/dbspd" ./cmd/dbspd
go build -o "$workdir/experiments" ./cmd/experiments

# Reference bytes from the CLI: same program, seed and flags the
# service submission below uses.
"$workdir/experiments" -quick -only=E01,E02 -seed=5 -keep-going \
  -jsonl="$workdir/ref.jsonl" >/dev/null 2>&1

"$workdir/dbspd" -listen=127.0.0.1:0 -tenant-quota=2 -max-sweeps=2 \
  2>"$workdir/errlog" &
pid=$!

# The bound address is announced on stderr before the API is up... the
# announcement precedes Serve, so poll /healthz too.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's,.*serving on http://,,p' "$workdir/errlog" | head -n1)
  if [ -n "$addr" ] && curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  addr=""
  kill -0 "$pid" 2>/dev/null || { cat "$workdir/errlog" >&2; echo "dbspd smoke FAILED: daemon died before serving" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "dbspd smoke FAILED: no serving line on stderr" >&2; exit 1; }

# Submit the program; the reply carries the job id.
curl -fsS -X POST "http://$addr/api/v1/jobs" \
  -d '{"ids":["E01","E02"],"quick":true,"seed":5}' >"$workdir/submit1.json"
job=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$workdir/submit1.json")

# The results endpoint streams until the sweep finishes; -N avoids
# curl buffering the chunked body.
curl -fsS -N "http://$addr/api/v1/jobs/$job/results" >"$workdir/svc.jsonl"

# Status must report the job done with every line accounted for.
curl -fsS "http://$addr/api/v1/jobs/$job" | grep -q '"state": "done"' \
  || { echo "dbspd smoke FAILED: job not done after results drained" >&2; exit 1; }

# Byte-compare service vs CLI, masking only the run-varying timing
# fields — identical normalization on both sides.
mask() {
  python3 - "$1" <<'PYEOF'
import json, sys
for line in open(sys.argv[1]):
    rec = json.loads(line)
    rec.pop("start_ms", None)
    rec["wall_ms"] = 0
    print(json.dumps(rec, sort_keys=True))
PYEOF
}
mask "$workdir/svc.jsonl" >"$workdir/svc.masked"
mask "$workdir/ref.jsonl" >"$workdir/ref.masked"
diff -u "$workdir/ref.masked" "$workdir/svc.masked" \
  || { echo "dbspd smoke FAILED: service JSONL differs from cmd/experiments" >&2; exit 1; }

# Resubmission: a cache hit, byte-identical to the first response with
# no masking at all.
curl -fsS -X POST "http://$addr/api/v1/jobs" \
  -d '{"ids":["E01","E02"],"quick":true,"seed":5}' >"$workdir/submit2.json"
grep -q '"cached": true' "$workdir/submit2.json" \
  || { cat "$workdir/submit2.json" >&2; echo "dbspd smoke FAILED: resubmission not served from cache" >&2; exit 1; }
job2=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$workdir/submit2.json")
curl -fsS -N "http://$addr/api/v1/jobs/$job2/results" >"$workdir/svc2.jsonl"
cmp "$workdir/svc.jsonl" "$workdir/svc2.jsonl" \
  || { echo "dbspd smoke FAILED: cached stream not byte-identical to first run" >&2; exit 1; }

# Observability surface: scheduler (with its retention and cache-budget
# families) + engine + cost-cache families on /metrics, the scheduler
# source on /debug/progress.
curl -fsS "http://$addr/metrics" >"$workdir/metrics"
for want in 'serve_jobs_submitted' 'serve_cache_hits 1' 'serve_jobs_evicted' 'serve_cache_bytes' \
  'serve_cache_evictions' '# TYPE sweep_jobs_started counter' 'cost_compile_cache_entries'; do
  grep -qF "$want" "$workdir/metrics" \
    || { echo "dbspd smoke FAILED: /metrics missing '$want'" >&2; exit 1; }
done
curl -fsS "http://$addr/debug/progress" | grep -q '"scheduler"' \
  || { echo "dbspd smoke FAILED: /debug/progress missing scheduler source" >&2; exit 1; }

# Graceful shutdown: SIGTERM must exit 0.
kill -TERM "$pid"
wait "$pid" || { cat "$workdir/errlog" >&2; echo "dbspd smoke FAILED: nonzero exit after SIGTERM" >&2; exit 1; }
pid=""
grep -q "shutting down" "$workdir/errlog" \
  || { echo "dbspd smoke FAILED: no shutdown announcement" >&2; exit 1; }
echo "dbspd smoke OK: byte-identical JSONL vs CLI, cache hit byte-identical, metrics scraped, clean SIGTERM exit at $addr"
