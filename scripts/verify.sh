#!/usr/bin/env sh
# Canonical CI entry point: builds the workspace (warnings are
# errors), runs every test, and runs every experiment driver and every
# example once end to end — all offline, no network, no external
# crates. Run from the repository root:
#
#   scripts/verify.sh
#
# CI asserts, the benchmark times. Every invariant is a `cargo test`
# (the root `tests/` carry the backbone identities, so tier-1 sees
# them); every timing comparison is `benchmark/`'s, made on paired
# parent/change runs. Nothing below reads a number out of an artifact:
# a driver or example passes by exiting 0. HIERAS_THREADS=n pins the executor
# width of the driver step; no step depends on it.
set -eu

cd "$(dirname "$0")/.."

echo "==> zero-dependency audit: crate manifests reference only workspace crates"
# Every entry of every table whose name ends in `dependencies]` —
# [dependencies], [dev-dependencies], [build-dependencies] and their
# [target.'cfg(...)'.…] forms — in every crate manifest must be a
# workspace hieras-* crate (`foo.workspace = true` or
# `foo = { workspace = true, ... }`). Anything else — a version
# requirement, a git/registry source — is an external dependency and
# fails CI before the build can try to touch the network. So does
# every one-dependency table ([dependencies.rand] and the like): no
# manifest here uses that form.
bad=$(awk '
    /^\[/ {
        in_wsdeps = ($0 ~ /^\[workspace\.dependencies\]/)
        in_deps = !in_wsdeps && ($0 ~ /^\[[^]]*dependencies\]/)
        if ($0 ~ /^\[[^]]*dependencies\.[^]]*\]/)
            printf "%s: %s\n", FILENAME, $0
    }
    in_deps && /^[A-Za-z0-9_.-]+[[:space:]]*=/ {
        name = $1
        sub(/[[:space:]]*=.*/, "", name)
        sub(/\..*/, "", name)  # hieras-rt.workspace = true
        if (name !~ /^hieras-/ || $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
            printf "%s: %s\n", FILENAME, $0
    }
    # The workspace table itself may only hold hieras-* path deps —
    # no version, git, or registry sources to resolve remotely.
    in_wsdeps && /^[A-Za-z0-9_.-]+[[:space:]]*=/ {
        if ($1 !~ /^hieras-/ || $0 !~ /path[[:space:]]*=/ || $0 ~ /version|git|registry/)
            printf "%s: %s\n", FILENAME, $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "external dependency detected:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> tier 1: release build (deny warnings)"
RUSTFLAGS="-D warnings" cargo build --workspace --release

echo "==> tier 1: workspace tests"
cargo test -q --workspace

echo "==> allocation gate at 5 k and 50 k peers (release; ignored in debug)"
# tests/epoch_alloc.rs runs 2 k / 20 k in tier 1; these sizes take
# minutes unoptimised.
cargo test -q --release --offline --test epoch_alloc -- --ignored

echo "==> lint: clippy's default set over every target (deny warnings)"
# Test targets too: a rustc warning there (an unused import, say)
# passes the release build above.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> docs: rustdoc over every crate (deny warnings)"
# Broken or private intra-doc links are rustdoc warnings, which no
# build or lint step above sees.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> drivers: one quick figures run; a non-zero exit fails CI"
ts=target/timeseries
trace=target/churn_trace
./target/release/figures all churn scale live \
    --timeseries-out "$ts.jsonl" --trace-out "$trace.jsonl" > /dev/null

echo "==> telemetry streams: validate, render, diff, convert"
for stream in "$ts.jsonl" "$ts.live.jsonl" "$ts.slow.jsonl"; do
    ./target/release/hieras-timeline --check "$stream"
done
./target/release/hieras-timeline "$ts.jsonl" > target/timeline.txt
./target/release/hieras-timeline --compare "$ts.jsonl" "$ts.live.jsonl" > target/timeline_compare.txt
./target/release/hieras-timeline --chrome-trace "$ts.slow.jsonl" "$ts.slow.chrome.json"
./target/release/hieras-timeline --chrome-trace "$trace.jsonl" "$trace.chrome.json"
# Hostile input is rejected (exit 1), not a crash: a line nested
# 100 000 deep (a stack overflow would abort, exit 134) and a window
# whose latency histogram has min > max (a quantile panic, exit 101).
deep=target/deep_nesting.jsonl
head -c 100000 /dev/zero | tr '\0' '[' > "$deep"
minmax=target/min_over_max.jsonl
{
    echo '{"schema":"hieras.timeseries/v1","mode":"sim","window_ms":1000}'
    echo '{"window":0,"lookups":1,"failures":0,"retries":0,"p50_ms":1,"p95_ms":1,"p99_ms":1,"p999_ms":1,"latency_ms":{"counts":[0,1],"total":1,"sum":1,"min":5,"max":3},"health":{"counters":{},"gauges":{},"hists":{}}}'
} > "$minmax"
for bad in "$deep" "$minmax"; do
    rc=0
    ./target/release/hieras-timeline --check "$bad" 2> /dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "hieras-timeline --check on $bad exited $rc, want 1" >&2
        exit 1
    fi
done

echo "==> examples: each runs once; a non-zero exit fails CI"
RUSTFLAGS="-D warnings" cargo build --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    ./target/release/examples/"$name" > /dev/null
done

echo "==> frozen benchmark: builds against these crates, passes its output checks"
# benchmark/ is its own workspace — the root test run never compiles
# it. Its checks (brute-force owners, live == deterministic ==
# full-rebuild digest, staged pipeline == engine) fail on stderr.
# It runs last: building it rewrites the tracked benchmark/Cargo.lock,
# and every figures record above stamps `git_sha` with `-dirty` once a
# tracked file is modified.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > target/benchmark_smoke.txt

echo "==> size: crate source lines outside the unit tests (informational, not a gate)"
# Non-blank, non-`//` lines of every crates/*/src .rs file, each file
# cut at its `#[cfg(test)]` + `mod tests` pair: the one line count
# CHANGES.md and ROADMAP.md quote.
lines=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { done = 0; held = 0 }
    done { next }
    held {
        held = 0
        if ($0 ~ /^[[:space:]]*mod tests/) { done = 1; next }
        n++
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
' {} +)
echo "crate source lines (non-blank, non-//, above mod tests): $lines"

echo "==> verify OK"
