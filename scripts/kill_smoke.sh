#!/usr/bin/env bash
# kill_smoke.sh — the crash-only worker drill: SIGKILL a worker mid-job
# and prove the restart resumes from durable progress instead of
# recomputing, with a byte-identical result:
#   1. build lpserved; run the reference job on a worker WITHOUT
#      -progress-dir and keep its (volatile-field-stripped) response
#   2. boot a worker WITH -progress-dir, submit the same job, poll
#      /v1/stats until its recovery point is durable, then kill -9 the worker
#   3. restart a worker over the same progress dir, resubmit the job:
#      the response must be byte-identical to the reference and
#      /v1/stats must show recoveries >= 1 with recovery_steps_saved > 0
#   4. the per-request log line must carry the progress delta fields
#   5. pending-checkpoint leg: hand a worker a drain checkpoint at boot
#      and assert it resubmits the job, moves the file aside, and
#      completes the work
# Used by `make kill-smoke` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=kill-smoke
source "$(dirname "$0")/smoke_lib.sh"
smoke_init

JOB='{"class":"analyze","app":"npb-ft","input":"test","threads":4}'
progdir="$workdir/progress"

echo "kill-smoke: building lpserved"
go build -o "$workdir/lpserved" ./cmd/lpserved

# start_worker <name> <extra flags...>: boots one lpserved, sets
# WORKER_BASE/WORKER_PID. (No command substitution around the body — the
# pid bookkeeping must land in this shell, not a subshell.)
start_worker() {
    local name=$1 log="$workdir/$1.log"
    shift
    smoke_track_log "$log"
    "$workdir/lpserved" -addr 127.0.0.1:0 -quick -slice 2000 -input test \
        -drain-deadline 5s "$@" >"$log" 2>&1 &
    WORKER_PID=$!
    disown "$WORKER_PID" # workers die by SIGKILL; keep bash from reporting it
    smoke_track_pid "$WORKER_PID"
    WORKER_BASE=$(wait_for_addr "$log" "$WORKER_PID")
    WORKER_LOG=$log
}

# normalize: strip the per-run volatile fields (server-minted id, queue
# wait, run time, attempts) so responses compare byte-for-byte on the
# deterministic payload alone.
normalize() {
    sed -E 's/"id":"[^"]*",?//; s/"queue_wait_ms":[0-9]+,?//; s/"run_ms":[0-9]+,?//; s/"attempts":[0-9]+,?//'
}

# stat_field <json> <field>: extract one numeric counter from /v1/stats.
stat_field() {
    echo "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p"
}

echo "kill-smoke: reference run (no progress dir)"
start_worker ref -pending ""
curl -fsS -m 300 -H 'Content-Type: application/json' -d "$JOB" \
    "$WORKER_BASE/v1/jobs" | normalize >"$workdir/ref.json"
grep -q 'looppoints' "$workdir/ref.json" || fail "reference job failed: $(cat "$workdir/ref.json")"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: booting durable worker (progress dir $progdir)"
start_worker victim -pending "" -progress-dir "$progdir"
victim_base=$WORKER_BASE; victim_pid=$WORKER_PID

echo "kill-smoke: submitting job, waiting for its recovery point, then kill -9"
curl -fsS -m 300 -H 'Content-Type: application/json' -d "$JOB" \
    "$victim_base/v1/jobs" >/dev/null 2>&1 &
curlpid=$!
saves=""
stats=""
for _ in $(seq 1 600); do
    stats=$(curl -fsS -m 5 "$victim_base/v1/stats" 2>/dev/null) || true
    saves=$(stat_field "${stats:-}" progress_saves)
    [[ -n "$saves" && "$saves" -ge 1 ]] && break
    kill -0 "$victim_pid" 2>/dev/null || fail "victim worker died on its own"
    sleep 0.02
done
[[ -n "$saves" && "$saves" -ge 1 ]] || fail "no recovery point was saved before the job finished"
kill -KILL "$victim_pid" 2>/dev/null || true
wait "$curlpid" 2>/dev/null || true
echo "kill-smoke: killed the worker after $saves durable save(s)"
ls "$progdir" | grep -q '\.graph$' || fail "progress dir holds no recovery point after the kill"

echo "kill-smoke: restarting over the same progress dir and resubmitting"
start_worker survivor -pending "" -progress-dir "$progdir"
surv_log=$WORKER_LOG
curl -fsS -m 300 -H 'Content-Type: application/json' -d "$JOB" \
    "$WORKER_BASE/v1/jobs" | normalize >"$workdir/resumed.json"
diff -u "$workdir/ref.json" "$workdir/resumed.json" || \
    fail "post-crash result is not byte-identical to the uninterrupted reference"
stats=$(curl -fsS -m 5 "$WORKER_BASE/v1/stats")
recoveries=$(stat_field "$stats" recoveries)
steps=$(stat_field "$stats" recovery_steps_saved)
[[ -n "$recoveries" && "$recoveries" -ge 1 ]] || fail "restart did not recover durable progress: $stats"
[[ -n "$steps" && "$steps" -gt 0 ]] || fail "recovery saved no steps: $stats"
grep -q 'outcome=ok.*progress_saves=' "$surv_log" || \
    fail "per-request log line is missing the progress delta fields"
echo "kill-smoke: crash recovery verified (recoveries=$recoveries steps_saved=$steps)"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: pending-checkpoint resubmission leg"
pending="$workdir/pending.jsonl"
printf '{"state":"queued","job":%s}\n' "$JOB" >"$pending"
start_worker resubmitter -pending "$pending" -progress-dir "$progdir"
grep -q 'resubmitted=1' "$WORKER_LOG" || fail "boot did not resubmit the pending job"
[[ ! -e "$pending" ]] || fail "consumed pending checkpoint was not moved aside"
[[ -e "$pending.resubmitted" ]] || fail "pending checkpoint was not renamed to .resubmitted"
stats=""
done_n=""
for _ in $(seq 1 600); do
    stats=$(curl -fsS -m 5 "$WORKER_BASE/v1/stats" 2>/dev/null) || true
    done_n=$(stat_field "${stats:-}" completed)
    [[ -n "$done_n" && "$done_n" -ge 1 ]] && break
    kill -0 "$WORKER_PID" 2>/dev/null || fail "resubmitter worker died"
    sleep 0.05
done
[[ -n "$done_n" && "$done_n" -ge 1 ]] || fail "resubmitted job never completed: ${stats:-}"
resub=$(stat_field "$stats" resubmitted)
[[ "$resub" == "1" ]] || fail "stats resubmitted=$resub, want 1: $stats"
echo "kill-smoke: pending checkpoint resubmitted and completed"

echo "kill-smoke: PASS"
