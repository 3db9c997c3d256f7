#!/usr/bin/env bash
# The portability gate (make portable): cross-builds every command for the
# back ends that fuse x*y + z into one multiply-add (arm64, ppc64le, s390x,
# riscv64; amd64 never does) and fails if `go tool objdump` finds a fused
# multiply-add or multiply-subtract in a looppoint/ function that
# scripts/portable_exempt.txt does not name. A fused operation rounds once
# where the source rounds twice, so such a function can compute other bits
# on those hosts than on amd64; an explicit float64(...) conversion of the
# product keeps the compiler from fusing it. The table may only shrink: an
# entry that no longer fuses on any of the four back ends fails the gate
# too. Needs only the Go toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

exempt=scripts/portable_exempt.txt
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Fused multiply-add mnemonics as go tool objdump prints them:
# arm64/riscv64 FMADDD..FNMSUBS, ppc64le FMADD..FNMSUBS, s390x MADBR/MSDBR
# (and their short, storage and vector forms).
fused='^(FN?M(ADD|SUB)[DS]?|M[AS][DE]BR?|WFN?M[AS]DB|VFN?M[AS])$'

for arch in arm64 ppc64le s390x riscv64; do
	for cmd in cmd/*/; do
		bin="$out/$(basename "$cmd")-$arch"
		GOOS=linux GOARCH=$arch CGO_ENABLED=0 go build -o "$bin" "./$cmd"
		go tool objdump -s '^looppoint/' "$bin" | awk -v arch="$arch" -v re="$fused" '
			/^TEXT / { sym = $2; sub(/\(SB\)$/, "", sym); next }
			$4 ~ re { print sym "\t" arch }'
	done
done | sort -u > "$out/found"

# found: symbol <tab> arch, one line per (symbol, arch) that fuses.
cut -f1 "$out/found" | sort -u > "$out/symbols"
awk -F'\t' '!/^#/ && NF { print $1 }' "$exempt" | sort -u > "$out/exempt"

status=0
while read -r sym; do
	arches=$(awk -F'\t' -v s="$sym" '$1 == s { printf "%s%s", sep, $2; sep = "," }' "$out/found")
	echo "portable: $sym fuses a multiply-add on $arches: write the product as float64(x*y), or exempt it with a reason in $exempt"
	status=1
done < <(comm -23 "$out/symbols" "$out/exempt")
while read -r sym; do
	echo "portable: exemption $sym is stale: it fuses nothing on any back end; delete the entry"
	status=1
done < <(comm -13 "$out/symbols" "$out/exempt")
awk -F'\t' '!/^#/ && NF && $2 == "" { print "portable: exemption " $1 " has no reason"; bad = 1 } END { exit bad }' "$exempt" || status=1
if [ "$status" = 0 ]; then
	echo "portable: $(wc -l < "$out/exempt") exempt functions fuse; nothing else does"
fi
exit $status
