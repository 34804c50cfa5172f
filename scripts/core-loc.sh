#!/bin/sh
# core-loc.sh — print the two tracked size numbers for internal/core
# (ROADMAP open item 3), internal/queue, internal/obsolete, internal/relcheck,
# internal/obs and internal/transport: total lines, and non-blank non-comment
# lines, of the package's non-test .go files. Print only: the
# target lives in ROADMAP.md, and each PR records before/after in CHANGES.md.
set -eu

cd "$(dirname "$0")/.."

for pkg in internal/core internal/queue internal/obsolete internal/relcheck internal/obs internal/transport; do
	# shellcheck disable=SC2046
	set -- $(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	total=$(cat "$@" | wc -l)
	code=$(cat "$@" | grep -cvE '^[[:space:]]*(//|$)')
	echo "$pkg non-test: $# files, $total lines, $code non-blank non-comment"
done
