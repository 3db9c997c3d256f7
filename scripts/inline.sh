#!/usr/bin/env bash
# The inlining gate (make inline): builds the timing loop's packages with
# -gcflags=-m and fails unless every function scripts/inline_required.txt
# names is reported "can inline". The loop's speed rests on these calls
# being inlined (a call spills the loop's live state), and an edit that
# takes one over the inliner's budget changes no result, so only this gate
# sees it. Needs only the Go toolchain; the go build cache replays the
# compiler's report, so a warm run takes seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

required=scripts/inline_required.txt
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# "internal/timing/cache.go:136:6: can inline (*Cache).repeat" -> timing.(*Cache).repeat
go build -gcflags=-m ./internal/exec ./internal/timing 2>&1 |
	sed -nE 's|^internal/([a-z]+)/[^:]+:[0-9]+:[0-9]+: can inline ([^ ]+).*$|\1.\2|p' |
	sort -u > "$out/inlinable"
awk -F'\t' '!/^#/ && NF { print $1 }' "$required" | sort -u > "$out/required"

status=0
while read -r fn; do
	echo "inline: $fn does not inline (gone, renamed, or over the inliner's budget: go build -gcflags=-m=2 says why)"
	status=1
done < <(comm -23 "$out/required" "$out/inlinable")
awk -F'\t' '!/^#/ && NF && $2 == "" { print "inline: " $1 " has no reason"; bad = 1 } END { exit bad }' "$required" || status=1
if [ "$status" = 0 ]; then
	echo "inline: all $(wc -l < "$out/required") required functions inline"
fi
exit $status
