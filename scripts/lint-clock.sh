#!/bin/sh
# lint-clock.sh — enforce the injectable-clock rule: runtime code in the
# protocol packages must go through obs.Clock (internal/obs), never the
# wall clock directly. Otherwise the deterministic fake-clock tests (and
# any future discrete-event harness) silently stop covering the timers
# they were written for.
#
# Scope: non-test .go files of internal/fd, internal/consensus,
# internal/core and internal/transport (paced-link delays must run on the
# injected clock so delay fault injection is deterministic under
# obs.Fake). Tests are exempt — they are free to use real time for
# deadlines and polling.
set -eu

cd "$(dirname "$0")/.."

PKGS="internal/fd internal/consensus internal/core internal/transport"
PATTERN='time\.Now\(|time\.NewTicker\(|time\.NewTimer\(|time\.After\(|time\.Since\(|time\.Tick\('

found=0
for pkg in $PKGS; do
    # shellcheck disable=SC2046
    hits=$(grep -nE "$PATTERN" $(find "$pkg" -name '*.go' ! -name '*_test.go') /dev/null || true)
    if [ -n "$hits" ]; then
        echo "$hits"
        found=1
    fi
done

if [ "$found" -ne 0 ]; then
    echo "" >&2
    echo "lint-clock: direct wall-clock use in protocol runtime code." >&2
    echo "Use the injected obs.Clock (Config.Obs / HeartbeatOptions.Obs) instead," >&2
    echo "so fake-clock tests keep control of every timer." >&2
    exit 1
fi

# Protocol time reaches the view-change value only as the time of a step
# event: in internal/core the engine loop's wake timer (engine.go) is the
# one timer, and no file but engine.go arms a timer or a ticker.
# shellcheck disable=SC2046
hits=$(grep -nE 'NewTimer\(|NewTicker\(' $(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go' ! -name engine.go) /dev/null || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "" >&2
    echo "lint-clock: a timer or ticker in internal/core outside engine.go." >&2
    echo "Record when the duty is due in viewState and run it on a tick (wake)." >&2
    exit 1
fi
echo "lint-clock: OK (no direct time.Now/NewTicker/NewTimer/After/Since/Tick in $PKGS;"
echo "            internal/core arms timers in engine.go only)"
