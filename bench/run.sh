#!/usr/bin/env bash
# The SVS benchmark. Run from the repository root:
#
#   bench/run.sh                      four workloads untraced, then traced + ladder
#   bench/run.sh --quick              2 windows of 1 s per workload, end to end only
#   bench/run.sh --aa 5               noise protocol: two interleaved sets of 5 full runs
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one run; its last line is the JSON result
#
# Everything the build and the runs write stays inside the checkout:
# the binary, Go's build cache and temp files under .bench_build/, results
# and spans under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOTOOLCHAIN=local GOPROXY=off # the benchmark needs nothing from the network

# bench/ is a module of its own (bench/go.mod) that replaces the parent
# module by path; without the parent's sources this build fails and the
# script exits non-zero before printing any result.
(cd bench && go build -o "$build/svsbench" .)

# The commit is part of the machine context recorded with every result; the
# driver's checkout is not a git repository.
BENCH_COMMIT=unknown
if command -v git >/dev/null && git rev-parse --short HEAD >/dev/null 2>&1; then
	BENCH_COMMIT=$(git rev-parse --short HEAD)
	git diff --quiet HEAD -- 2>/dev/null || BENCH_COMMIT=$BENCH_COMMIT-dirty
fi
export BENCH_COMMIT

exec "$build/svsbench" "$@"
