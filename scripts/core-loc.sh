#!/bin/sh
# core-loc.sh — print the tracked size numbers of ROADMAP open item 3: for
# internal/core, internal/consensus, internal/queue, internal/obsolete,
# internal/relcheck, internal/check, internal/obs, internal/transport,
# internal/fd and internal/ubq the total
# lines, and non-blank non-comment lines, of the package's non-test .go
# files; how many fields `type Engine struct` declares (names separated
# by commas count one each, comments are skipped); and how many methods
# the non-test files of internal/core declare on Engine.
#
# With --check the numbers are a ratchet: the ten non-blank non-comment
# counts and the Engine field and method counts are compared against the
# ceilings in scripts/core-loc.max, and the script exits non-zero if any
# rose above its ceiling (or has none). A change that must grow a number raises its ceiling
# in the same diff, where the growth is reviewed; a change that shrinks one
# is told the new number to lower the ceiling to.
set -eu

cd "$(dirname "$0")/.."

check=false
case "${1-}" in
--check) check=true ;;
"") ;;
*)
	echo "usage: $0 [--check]" >&2
	exit 2
	;;
esac

measured=""
for pkg in internal/core internal/consensus internal/queue internal/obsolete internal/relcheck internal/check internal/obs internal/transport internal/fd internal/ubq; do
	# shellcheck disable=SC2046
	set -- $(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	total=$(cat "$@" | wc -l)
	code=$(cat "$@" | grep -cvE '^[[:space:]]*(//|$)')
	echo "$pkg non-test: $# files, $total lines, $code non-blank non-comment"
	measured="$measured$pkg $code
"
done

fields=$(awk '
	/^type Engine struct/ { on = 1; next }
	on && /^}/ { print n; exit }
	on {
		sub(/\/\/.*/, "")
		if (NF == 0) next
		for (i = 1; i < NF && $i ~ /,$/; i++) ;
		n += i
	}
' internal/core/engine.go)
# shellcheck disable=SC2046
methods=$(cat $(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -cE '^func \([[:alnum:]_]+ \*?Engine\) ')
echo "internal/core Engine: $fields fields, $methods methods"
measured="${measured}Engine $fields
Engine-methods $methods"

$check || exit 0

status=0
while read -r name got; do
	ceiling=$(awk -v n="$name" '$1 == n { print $2 }' scripts/core-loc.max)
	if [ -z "$ceiling" ]; then
		echo "core-loc: no ceiling for $name in scripts/core-loc.max" >&2
		status=1
	elif [ "$got" -gt "$ceiling" ]; then
		echo "core-loc: $name is $got, above its ceiling $ceiling in scripts/core-loc.max" >&2
		status=1
	elif [ "$got" -lt "$ceiling" ]; then
		echo "core-loc: $name is $got, below its ceiling $ceiling: lower scripts/core-loc.max to lock it in"
	fi
done <<EOF
$measured
EOF
exit "$status"
