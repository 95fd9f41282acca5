#!/usr/bin/env bash
# benchmark/repeat.sh N [run.sh flags...]
#
# Runs the whole benchmark N times back to back at one seed, keeps each
# run's JSON under benchmark/baseline/run<i>/, and prints every
# end-to-end metric's quartile spread (what the driver judges) and
# relative range against its bound in BENCHMARK.json; model metrics must
# be bit-identical. The summary is written to
# benchmark/baseline/ranges.json: the measured ranges, committed beside
# the bounds. Exits non-zero when a spread leaves its bound or a model
# metric moves.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [run.sh flags...]}"
shift
case "$n" in ''|*[!0-9]*|0) echo "repeat.sh: N must be a positive integer" >&2; exit 2 ;; esac

rm -rf "$here/baseline"
dirs=()
for i in $(seq 1 "$n"); do
    echo "=== repeat $i of $n ==="
    rm -rf "$here/out"
    "$here/run.sh" "$@"
    mkdir -p "$here/baseline/run$i"
    cp "$here"/out/*.e2e.json "$here"/out/*.layers.json "$here/baseline/run$i/"
    dirs+=("$here/baseline/run$i")
done
"${CARGO_TARGET_DIR:-$here/target}/release/hieras-benchmark" summarize \
    "$here/../BENCHMARK.json" "$here/baseline/ranges.json" "${dirs[@]}"
