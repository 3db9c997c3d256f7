#!/bin/sh
# Names deleted with the code behind them stay gone, tests included.
# scripts/gone.txt holds one per line: a grep basic regular expression,
# a tab, and the PR that removed it. Prints every match and exits 1 if
# there is one (2 if grep itself fails).
#
#	sh scripts/gone.sh
cd "$(dirname "$0")/.." || exit 2
cut -f1 scripts/gone.txt | grep -rn -f - \
	--include='*.go' --include='*.sh' --include=Makefile --include=README.md \
	cmd internal examples scripts looppoint.go Makefile README.md
case $? in
0) echo "gone.sh: a name listed in scripts/gone.txt is back" >&2; exit 1 ;;
1) exit 0 ;;
*) exit 2 ;;
esac
