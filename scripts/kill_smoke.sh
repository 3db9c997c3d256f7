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
#   5. SIGTERM leg: boot a durable worker over a fresh progress dir with a
#      drain deadline shorter than the job, submit a ref-input job (the
#      test-input one above ends within milliseconds, before any poll can
#      see its save), SIGTERM the worker once its recovery point is
#      durable, and assert it exits 0; a restart over the same dir answers
#      the resubmitted job byte-identically to an uninterrupted run with
#      recoveries >= 1 — a stop comes back exactly the way a crash does
# Used by `make kill-smoke` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=kill-smoke
source "$(dirname "$0")/smoke_lib.sh"
smoke_init

JOB='{"class":"analyze","app":"npb-ft","input":"test","threads":4}'
# The SIGTERM leg's job: its recording is saved ~0.3 s in, and the BBV
# pass, selection and region sweep after the save outlast the drain
# deadline, so the stop lands mid-job.
STOP_JOB='{"class":"report","app":"npb-ft","input":"ref","threads":4}'
progdir="$workdir/progress"

echo "kill-smoke: building lpserved"
go build -o "$workdir/lpserved" ./cmd/lpserved

# boot_worker <name> <extra flags...>: boots one lpserved, sets
# WORKER_BASE/WORKER_PID/WORKER_LOG; later flags override earlier ones.
# (No command substitution around the body — the pid bookkeeping must
# land in this shell, not a subshell.)
boot_worker() {
    local name=$1 log="$workdir/$1.log"
    shift
    smoke_track_log "$log"
    "$workdir/lpserved" -addr 127.0.0.1:0 -slice 2000 \
        -drain-deadline 5s "$@" >"$log" 2>&1 &
    WORKER_PID=$!
    smoke_track_pid "$WORKER_PID"
    WORKER_BASE=$(wait_for_addr "$log" "$WORKER_PID")
    WORKER_LOG=$log
}

# start_worker: boot_worker for a worker that dies by SIGKILL, disowned
# so bash does not report the kill.
start_worker() {
    boot_worker "$@"
    disown "$WORKER_PID"
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

# await_save <base> <pid>: poll /v1/stats until the running job's recovery
# point is durable (progress_saves >= 1); sets SAVES.
await_save() {
    local stats=""
    SAVES=""
    for _ in $(seq 1 600); do
        stats=$(curl -fsS -m 5 "$1/v1/stats" 2>/dev/null) || true
        SAVES=$(stat_field "${stats:-}" progress_saves)
        [[ -n "$SAVES" && "$SAVES" -ge 1 ]] && return
        kill -0 "$2" 2>/dev/null || fail "worker died on its own"
        sleep 0.02
    done
    fail "no recovery point was saved before the job finished"
}

# run_job <name> <job> <extra flags...>: boot a worker, run the job to
# its normalized response in $workdir/<name>.json, and leave the worker up.
run_job() {
    local name=$1 job=$2
    shift 2
    start_worker "$name" "$@"
    curl -fsS -m 300 -H 'Content-Type: application/json' -d "$job" \
        "$WORKER_BASE/v1/jobs" | normalize >"$workdir/$name.json"
    grep -q 'looppoints' "$workdir/$name.json" || fail "$name: job failed: $(cat "$workdir/$name.json")"
}

# resume_and_compare <name> <job> <reference name> <progress dir> <extra
# flags...>: restart a worker over the dir, resubmit the job, and require
# the reference bytes and a recovery.
resume_and_compare() {
    local name=$1 job=$2 ref=$3 dir=$4
    shift 4
    run_job "$name" "$job" -progress-dir "$dir" "$@"
    diff -u "$workdir/$ref.json" "$workdir/$name.json" || \
        fail "$name: resumed result is not byte-identical to the uninterrupted reference"
    STATS=$(curl -fsS -m 5 "$WORKER_BASE/v1/stats")
    RECOVERIES=$(stat_field "$STATS" recoveries)
    [[ -n "$RECOVERIES" && "$RECOVERIES" -ge 1 ]] || fail "$name: restart did not recover durable progress: $STATS"
}

echo "kill-smoke: reference run (no progress dir)"
run_job ref "$JOB"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: booting durable worker (progress dir $progdir)"
start_worker victim -progress-dir "$progdir"
victim_base=$WORKER_BASE; victim_pid=$WORKER_PID

echo "kill-smoke: submitting job, waiting for its recovery point, then kill -9"
curl -fsS -m 300 -H 'Content-Type: application/json' -d "$JOB" \
    "$victim_base/v1/jobs" >/dev/null 2>&1 &
curlpid=$!
await_save "$victim_base" "$victim_pid"
kill -KILL "$victim_pid" 2>/dev/null || true
wait "$curlpid" 2>/dev/null || true
echo "kill-smoke: killed the worker after $SAVES durable save(s)"
ls "$progdir" | grep -q '\.log$' || fail "progress dir holds no recovery point after the kill"

echo "kill-smoke: restarting over the same progress dir and resubmitting"
resume_and_compare survivor "$JOB" ref "$progdir"
steps=$(stat_field "$STATS" recovery_steps_saved)
[[ -n "$steps" && "$steps" -gt 0 ]] || fail "recovery saved no steps: $STATS"
grep -q 'outcome=ok.*progress_saves=' "$WORKER_LOG" || \
    fail "per-request log line is missing the progress delta fields"
echo "kill-smoke: crash recovery verified (recoveries=$RECOVERIES steps_saved=$steps)"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: SIGTERM leg: reference run of the ref-input job"
run_job stopref "$STOP_JOB"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: SIGTERM once its recovery point is durable (drain deadline 10ms)"
termdir="$workdir/progress-term"
boot_worker stopped -drain-deadline 10ms -progress-dir "$termdir"
stop_pid=$WORKER_PID
curl -sS -m 300 -H 'Content-Type: application/json' -d "$STOP_JOB" \
    "$WORKER_BASE/v1/jobs" >"$workdir/stopped.json" 2>/dev/null &
curlpid=$!
await_save "$WORKER_BASE" "$stop_pid"
kill -TERM "$stop_pid"
rc=0
wait "$stop_pid" || rc=$?
[[ "$rc" -eq 0 ]] || fail "worker exited $rc after SIGTERM, want 0"
wait "$curlpid" || true
grep -q 'drained clean=' "$WORKER_LOG" || fail "stopped worker did not report its drain"
answer=$(cat "$workdir/stopped.json")
echo "$answer" | grep -Eq '"summary"|"outcome":"(drained|canceled)"' || \
    fail "the job in flight at SIGTERM got no disposition: $answer"
echo "kill-smoke: stopped after $SAVES durable save(s), exit 0, the job answered: $answer"

echo "kill-smoke: restarting over the same progress dir and resubmitting"
resume_and_compare restarted "$STOP_JOB" stopref "$termdir"
echo "kill-smoke: stop recovery verified (recoveries=$RECOVERIES)"
kill -KILL "$WORKER_PID" 2>/dev/null || true

echo "kill-smoke: PASS"
