#!/bin/sh
# core-loc.sh — print the tracked size numbers of ROADMAP open item 3: for
# internal/core, internal/queue, internal/obsolete, internal/relcheck,
# internal/obs and internal/transport the total lines, and non-blank
# non-comment lines, of the package's non-test .go files; and how many
# fields `type Engine struct` declares (names separated by commas count one
# each, comments are skipped). Print only: the targets live in ROADMAP.md,
# and each PR records before/after in CHANGES.md.
set -eu

cd "$(dirname "$0")/.."

for pkg in internal/core internal/queue internal/obsolete internal/relcheck internal/obs internal/transport; do
	# shellcheck disable=SC2046
	set -- $(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	total=$(cat "$@" | wc -l)
	code=$(cat "$@" | grep -cvE '^[[:space:]]*(//|$)')
	echo "$pkg non-test: $# files, $total lines, $code non-blank non-comment"
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
echo "internal/core Engine: $fields fields"
