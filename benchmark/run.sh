#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke] [--chrome-trace] [--seconds S]
#       every workload, each in its own process (so peak_rss_bytes is per
#       workload), untraced then traced; prints every metric by name with
#       its unit; per-run JSON and traces land in benchmark/out/.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the driver's JSON result
#       (this is the `command` of BENCHMARK.json).
#
# Exits non-zero when the build fails, an output check fails, or
# benchmark/Cargo.toml names a dependency that is not a path dependency.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The repo's zero-dependency rule, which scripts/verify.sh cannot see
# from outside the benchmark's paths: every dependency line must be a
# path dependency.
bad="$(awk '
    /^\[/ { in_deps = ($0 ~ /dependencies/) ; next }
    in_deps && NF && $0 !~ /^[[:space:]]*#/ && $0 !~ /path[[:space:]]*=/ { print FILENAME ":" FNR ": " $0 }
' "$here/Cargo.toml")"
if [ -n "$bad" ]; then
    echo "benchmark/Cargo.toml gained a non-path dependency:" >&2
    echo "$bad" >&2
    exit 3
fi

# A relative CARGO_TARGET_DIR (the driver sets .bench_build) is relative
# to the caller's directory, which this script never leaves.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/hieras-benchmark"

# Provenance. The checkout may not be a git repository; never look for
# one above it.
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$(dirname "$here")")" \
    git -C "$here" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
prov=(--out "$here/out" --git-sha "$sha" --rustc "$(rustc --version)")

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@" "${prov[@]}"
    fi
done

status=0
for workload in replay_paper10k scale_labels100k serve_churn5k serve_hot5k; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" "${prov[@]}" | grep -v '^{"correct"' || status=1
        echo
    done
done
if [ "$status" -ne 0 ]; then
    echo "benchmark: an output check failed" >&2
fi
exit "$status"
