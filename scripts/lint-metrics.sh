#!/bin/sh
# lint-metrics.sh — enforce "one bump per counted event": the engine and the
# wire transports count in their own plain counters (core.Stats,
# transport.TCPStats, transport.DropStats) and a registry reads those when
# it is scraped (obs.Registry.AddSource; README "Observability"). A field
# or variable of type *obs.Counter or *obs.Gauge in these files is the
# second counter system growing back, one convenient Inc() at a time.
# Histograms are fine: they carry what a plain counter cannot.
#
# Scope: non-test .go files of internal/core, and the data-path files of
# internal/transport (faults.go keeps its instruments: it has no facade
# twin on a hot path).
set -eu

cd "$(dirname "$0")/.."

# shellcheck disable=SC2046
hits=$(grep -nE '\*obs\.(Counter|Gauge)\b' \
    $(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go') \
    internal/transport/tcpnet.go internal/transport/inboxes.go internal/transport/memnet.go \
    /dev/null || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "" >&2
    echo "lint-metrics: an obs counter or gauge beside the Stats facades." >&2
    echo "Count the event in Stats/TCPStats/DropStats and add a row to the export table instead." >&2
    exit 1
fi
echo "lint-metrics: OK (no *obs.Counter / *obs.Gauge in internal/core or the transport data path)"
