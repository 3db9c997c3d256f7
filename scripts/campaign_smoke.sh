#!/usr/bin/env bash
# campaign_smoke.sh — the campaign fabric end to end, with a real worker
# kill:
#   1. build lpserved + lpcoord, boot 2 two-slot workers on OS-assigned
#      ports
#   2. run a 6-job NPB campaign through the coordinator with a journal
#      and result cache, SIGKILLing one worker mid-flight
#   3. assert the campaign completes, exits 0, every job reports, and the
#      start line shows the slots the coordinator learned (slots 2+2)
#   4. run the same campaign on a fresh single worker and assert the two
#      reports are byte-identical — fleet shape, kills, and retries must
#      not leak into the output
#   5. re-run with the same journal/cache and assert zero dispatches:
#      every job resolves from the content-addressed cache
# Used by `make campaign-smoke` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=campaign-smoke
source "$(dirname "$0")/smoke_lib.sh"
smoke_init

APPS="npb-cg,npb-ft,npb-is,npb-mg,npb-lu,npb-bt"

echo "campaign-smoke: building lpserved and lpcoord"
go build -o "$workdir/lpserved" ./cmd/lpserved
go build -o "$workdir/lpcoord" ./cmd/lpcoord

# start_worker <name>: boots one lpserved, sets WORKER_BASE/WORKER_PID.
# Every worker shares one -progress-dir, so a job leased from a killed
# worker resumes from the victim's saved recording and region results on
# its replacement instead of starting over.
# (No command substitution around the body — the pid bookkeeping must
# land in this shell, not a subshell.)
start_worker() {
    local name=$1 log="$workdir/$1.log"
    smoke_track_log "$log"
    "$workdir/lpserved" -addr 127.0.0.1:0 -slice 2000 \
        -max-inflight 2 -drain-deadline 5s -progress-dir "$workdir/progress" \
        >"$log" 2>&1 &
    WORKER_PID=$!
    disown "$WORKER_PID" # workers die by SIGKILL; keep bash from reporting it
    smoke_track_pid "$WORKER_PID"
    WORKER_BASE=$(wait_for_addr "$log" "$WORKER_PID")
}

start_worker worker0; w0=$WORKER_BASE
start_worker worker1; w1=$WORKER_BASE; w1pid=$WORKER_PID
echo "campaign-smoke: fleet up at $w0 $w1"

coordlog="$workdir/lpcoord.log"
smoke_track_log "$coordlog"
run_coord() { # run_coord <out> <workers> <extra flags...>
    local out=$1 workers=$2
    shift 2
    "$workdir/lpcoord" -workers "$workers" \
        -apps "$APPS" -class analyze -input test -threads 4 \
        -tag smoke -lease 60s -request-timeout 300s -seed 7 \
        -out "$out" "$@" 2>>"$coordlog"
}

echo "campaign-smoke: launching 6-job campaign across 2 workers"
run_coord "$workdir/report_fleet.txt" "$w0,$w1" \
    -resume "$workdir/campaign.jsonl" -cache "$workdir/cache" -v &
coordpid=$!
smoke_track_pid "$coordpid"

# SIGKILL worker1 once the campaign is genuinely in flight: the fabric
# must absorb the crash by rerouting its leased jobs to worker0.
for _ in $(seq 1 200); do
    grep -q 'campaign "smoke": 6 jobs' "$coordlog" 2>/dev/null && break
    kill -0 "$coordpid" 2>/dev/null || break
    sleep 0.05
done
sleep 1
kill -KILL "$w1pid" 2>/dev/null || true
echo "campaign-smoke: killed worker1 mid-flight"

rc=0
wait "$coordpid" || rc=$?
[[ "$rc" -eq 0 ]] || fail "lpcoord exited $rc with a worker killed mid-flight, want 0"
# The coordinator keeps as many claims in flight to a worker as its
# /readyz advertises, and names the learned counts on its start line.
grep -q 'campaign "smoke": 6 jobs across 2 workers (slots 2+2)' "$coordlog" || \
    fail "start line does not show the workers' learned slots: $(grep 'campaign "smoke"' "$coordlog" | head -1)"
grep -q 'failed=0' "$coordlog" || fail "campaign reported failed jobs"
[[ $(wc -l <"$workdir/report_fleet.txt") -eq 7 ]] || \
    fail "fleet report should have 1 header + 6 job lines: $(cat "$workdir/report_fleet.txt")"
# The coordinator folds the fleet's /v1/stats durable-progress counters
# into its stats line; with a shared -progress-dir the surviving worker
# must have saved recovery points.
fleet_stats=$(grep 'campaign stats:' "$coordlog" | tail -1)
echo "$fleet_stats" | grep -q 'progress_saves=[1-9]' || \
    fail "fleet stats line missing durable-progress saves: $fleet_stats"
echo "$fleet_stats" | grep -q 'recovery_steps_saved=' || \
    fail "fleet stats line missing recovery counters: $fleet_stats"
echo "campaign-smoke: campaign survived the worker kill"

echo "campaign-smoke: rerunning on a single fresh worker for the reference report"
start_worker worker2; w2=$WORKER_BASE
run_coord "$workdir/report_single.txt" "$w2" || fail "single-worker campaign failed"
diff -u "$workdir/report_single.txt" "$workdir/report_fleet.txt" || \
    fail "fleet report is not byte-identical to the single-node report"
echo "campaign-smoke: fleet and single-node reports are byte-identical"

echo "campaign-smoke: resuming the finished campaign (must re-simulate nothing)"
run_coord "$workdir/report_resume.txt" "$w0" \
    -resume "$workdir/campaign.jsonl" -cache "$workdir/cache" || \
    fail "resume run failed"
stats=$(grep 'campaign stats:' "$coordlog" | tail -1)
echo "$stats" | grep -q 'dispatched=0' || fail "resume re-dispatched work: $stats"
echo "$stats" | grep -q 'cache_hits=6' || fail "resume did not hit the cache for all 6 jobs: $stats"
cmp -s "$workdir/report_resume.txt" "$workdir/report_fleet.txt" || \
    fail "resumed report diverges from the original"
echo "campaign-smoke: resume served all 6 jobs from the cache"

echo "campaign-smoke: PASS"
