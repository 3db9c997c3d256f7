#!/usr/bin/env bash
# serve_smoke.sh — boot lpserved, prove the serving loop end to end, and
# assert a clean SIGTERM drain:
#   1. build and start the daemon on an ephemeral port
#   2. /healthz answers live and /readyz answers ready with its slots
#   3. one analyze job round-trips with a 200
#   4. three concurrent POST /v1/jobs round-trip, each with its own result
#   5. SIGTERM lands while three more are in flight: each request is still
#      answered with its own disposition and the daemon exits 0
#   6. the daemon reports its drain ("drained clean=…")
# Used by `make serve-smoke` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=serve-smoke
source "$(dirname "$0")/smoke_lib.sh"
smoke_init
srvlog="$workdir/lpserved.log"
smoke_track_log "$srvlog"

echo "serve-smoke: building lpserved"
go build -o "$workdir/lpserved" ./cmd/lpserved

# A small slice unit so the job finishes in seconds; tiny
# drain deadline so shutdown is snappy.
"$workdir/lpserved" -addr 127.0.0.1:0 -slice 2000 \
    -drain-deadline 10s >"$srvlog" 2>&1 &
pid=$!
smoke_track_pid "$pid"

# The daemon prints "listening on http://<addr>" once bound.
base=$(wait_for_addr "$srvlog" "$pid")
echo "serve-smoke: daemon up at $base (pid $pid)"

live=$(curl -fsS "$base/healthz")
[[ "$live" == '{"status":"ok"}' ]] || fail "/healthz is not bare liveness: $live"
ready=$(curl -fsS "$base/readyz")
echo "$ready" | grep -Eq '^\{"ready":true,"slots":[1-9][0-9]*\}$' || fail "/readyz not ready with its slots: $ready"

echo "serve-smoke: submitting analyze job"
job=$(curl -fsS -m 120 -H 'Content-Type: application/json' \
    -d '{"class":"analyze","app":"npb-cg","input":"test","threads":4}' \
    "$base/v1/jobs")
echo "$job" | grep -q '"summary"' || fail "job did not return a summary: $job"
echo "$job" | grep -q 'looppoints' || fail "unexpected job payload: $job"
echo "serve-smoke: job ok: $job"

stats=$(curl -fsS "$base/v1/stats")
echo "$stats" | grep -q '"completed":1' || fail "/v1/stats does not count the job: $stats"

# post_job <id> <app> <outfile>: one POST /v1/jobs in the background. The
# body lands in <outfile> whatever the status (a drained or canceled job
# answers 503 with a typed outcome, which is still an answer).
post_job() {
    curl -sS -m 180 -H 'Content-Type: application/json' \
        -d "{\"id\":\"$1\",\"class\":\"analyze\",\"app\":\"$2\",\"input\":\"test\",\"threads\":4}" \
        "$base/v1/jobs" >"$3" &
}

echo "serve-smoke: submitting 3 concurrent jobs"
curlpids=()
for spec in conc-0:npb-cg conc-1:npb-cg conc-2:npb-ft; do
    post_job "${spec%%:*}" "${spec##*:}" "$workdir/${spec%%:*}.json"
    curlpids+=($!)
done
for cp in "${curlpids[@]}"; do
    wait "$cp" || fail "concurrent job request failed outright"
done
for id in conc-0 conc-1 conc-2; do
    out=$(cat "$workdir/$id.json")
    echo "$out" | grep -q "\"id\":\"$id\"" || fail "job $id did not get its own result: $out"
    echo "$out" | grep -q '"summary"' || fail "job $id did not succeed: $out"
done
echo "serve-smoke: concurrent jobs ok"

stats=$(curl -fsS "$base/v1/stats")
echo "$stats" | grep -q '"completed":4' || fail "/v1/stats does not count the concurrent jobs: $stats"

echo "serve-smoke: sending SIGTERM with 3 jobs in flight"
# Launch three cold (un-memoized) workloads and drain while they are in
# flight. Whatever the race — finished, flushed as drained, or canceled
# mid-run — each request must be answered with a disposition of its own
# and the daemon must exit 0.
curlpids=()
for spec in drain-0:npb-bt drain-1:npb-lu drain-2:npb-sp; do
    post_job "${spec%%:*}" "${spec##*:}" "$workdir/${spec%%:*}.json"
    curlpids+=($!)
done
# Signal only once the server has admitted all three, so the drain
# genuinely races in-flight requests rather than their connects.
for _ in $(seq 1 100); do
    curl -fsS -m 5 "$base/v1/stats" 2>/dev/null | grep -q '"admitted":7' && break
    sleep 0.05
done
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[[ "$rc" -eq 0 ]] || fail "daemon exited $rc after SIGTERM, want 0"
for cp in "${curlpids[@]}"; do
    wait "$cp" || fail "mid-drain job request failed outright"
done
for id in drain-0 drain-1 drain-2; do
    out=$(cat "$workdir/$id.json")
    echo "$out" | grep -Eq '"summary"|"outcome":"(drained|canceled|shed_drain)"' || \
        fail "mid-drain job $id got no disposition: $out"
done
echo "serve-smoke: every mid-drain job was answered"
grep -q 'drained clean=' "$srvlog" || fail "daemon did not report its drain"
pid=""

echo "serve-smoke: PASS"
