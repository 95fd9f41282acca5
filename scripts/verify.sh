#!/usr/bin/env sh
# Canonical CI entry point: builds the workspace (warnings are
# errors), runs every test, and exercises every benchmark harness end
# to end — all offline, no network, no external crates. Run from the
# repository root:
#
#   scripts/verify.sh
#
# HIERAS_THREADS=n pins the executor width for the bench steps.
set -eu

cd "$(dirname "$0")/.."

echo "==> zero-dependency audit: crate manifests reference only workspace crates"
# Every [dependencies]/[dev-dependencies] entry in every crate manifest
# must be a workspace hieras-* crate (`foo.workspace = true` or
# `foo = { workspace = true, ... }`). Anything else — a version
# requirement, a git/registry source — is an external dependency and
# fails CI before the build can try to touch the network.
bad=$(awk '
    /^\[/ {
        in_deps = ($0 ~ /^\[(dev-|build-)?dependencies\]/)
        in_wsdeps = ($0 ~ /^\[workspace\.dependencies\]/)
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

echo "==> frozen benchmark: builds against these crates, passes its output checks"
# benchmark/ is its own workspace — the root test run never compiles
# it. Its checks (brute-force owners, live == deterministic ==
# full-rebuild digest, staged pipeline == engine) fail on stderr.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > target/benchmark_smoke.txt

echo "==> bench smoke: replay, 500 peers, 2000 requests, obs on"
./target/release/bench_replay --smoke --obs --trace-out target/replay_trace.jsonl
# The span/instant trace must convert to Chrome trace-event JSON
# (about:tracing / Perfetto) through the scripts/trace2chrome viewer
# path.
scripts/trace2chrome target/replay_trace.jsonl target/replay_trace.chrome.json
if ! grep -q '"traceEvents"' target/replay_trace.chrome.json; then
    echo "trace2chrome produced no traceEvents array" >&2
    exit 1
fi
echo "trace2chrome: replay trace converts to Chrome trace-event JSON"

echo "==> bench smoke: churn, 120 nodes, 4 departure scenarios"
./target/release/churn --smoke
# The correlated-failure scenario must actually cut a domain: its row
# rides next to the independent-death mixes precisely so the two are
# comparable, and a domain row that killed nobody measured nothing.
if ! grep -q '"scenario": "domain"' BENCH_churn.json; then
    echo "no domain-failure scenario in BENCH_churn.json" >&2
    exit 1
fi
domain_killed=$(awk -F': ' '/"domain_killed"/ { v = $2; sub(/,.*/, "", v); if (v + 0 > m) m = v + 0 } END { print m + 0 }' BENCH_churn.json)
if [ "$domain_killed" -lt 2 ]; then
    echo "domain-failure scenario killed $domain_killed nodes (need >= 2)" >&2
    exit 1
fi
echo "domain-failure scenario killed $domain_killed co-located nodes at one instant"

echo "==> bench smoke: scale, 500 peers, 2000 requests + regression gates"
./target/release/bench_scale --smoke
# The smoke sweep runs the rows AND labels oracle backends; labels are
# exact, so the binary records whether the labels-backend routing
# metrics came out byte-identical to rows. Any false is a correctness
# bug, and at least one comparison must actually have happened.
if grep -q '"metrics_match_rows": false' BENCH_scale.json; then
    echo "labels-backend routing metrics diverged from the rows backend" >&2
    exit 1
fi
if ! grep -q '"metrics_match_rows": true' BENCH_scale.json; then
    echo "no labels-vs-rows identity comparison ran in the scale smoke" >&2
    exit 1
fi
echo "labels-backend metrics byte-identical to rows"
# Fail if the smoke replay regressed more than 2x against the
# checked-in budget (scripts/scale_budget_ns, measured on the CI box).
# The first size entry is the rows backend, matching the budget's
# provenance.
budget=$(cat scripts/scale_budget_ns)
median=$(awk -F': ' '/"median_ns_per_lookup"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_scale.json)
awk -v m="$median" -v b="$budget" 'BEGIN {
    if (m + 0 > 2 * b) {
        printf "scale smoke regressed: median %.1f ns/lookup > 2x budget %.1f\n", m, b
        exit 1
    }
    printf "scale smoke median %.1f ns/lookup within 2x budget %.1f\n", m, b
}'
# Same 2x gate for the hub-label build itself (first label_stats
# build_ms in the smoke output vs scripts/label_budget_ms).
label_budget=$(cat scripts/label_budget_ms)
label_ms=$(awk -F': ' '
    /"label_stats": \{/ { in_labels = 1 }
    in_labels && /"build_ms"/ { v = $2; sub(/,.*/, "", v); print v; exit }
' BENCH_scale.json)
if [ -z "$label_ms" ]; then
    echo "no label_stats.build_ms found in the scale smoke output" >&2
    exit 1
fi
awk -v m="$label_ms" -v b="$label_budget" 'BEGIN {
    if (m + 0 > 2 * b) {
        printf "label build regressed: %.1f ms > 2x budget %.1f\n", m, b
        exit 1
    }
    printf "label build %.1f ms within 2x budget %.1f\n", m, b
}'
# Peak-RSS gate: the largest high-water mark any smoke run reported
# must stay under the checked-in budget (scripts/rss_budget_bytes —
# the full sweep's 1M-peer allowance, so the smoke has huge headroom
# and a leak that blows it is a real leak).
rss_budget=$(cat scripts/rss_budget_bytes)
rss_max=$(awk -F': ' '/"peak_rss_bytes"/ { v = $2; sub(/,.*/, "", v); if (v + 0 > m) m = v + 0 } END { print m + 0 }' BENCH_scale.json)
awk -v m="$rss_max" -v b="$rss_budget" 'BEGIN {
    if (m > b) {
        printf "peak RSS over budget: %.0f bytes > %.0f\n", m, b
        exit 1
    }
    printf "peak RSS %.1f MB within budget %.1f MB\n", m / 1048576, b / 1048576
}'
# Label query-time gate: the smoke sweep times rows first, labels
# second. The memoized label merge must stay within 1.5x of the O(1)
# row lookup (target: 1.2x) or the million-peer backend has lost its
# flat-lookup property.
labels_median=$(awk -F': ' '/"median_ns_per_lookup"/ { v = $2; sub(/,.*/, "", v); n++; if (n == 2) { print v; exit } }' BENCH_scale.json)
if [ -z "$labels_median" ]; then
    echo "no labels-backend median in the scale smoke output" >&2
    exit 1
fi
awk -v r="$median" -v l="$labels_median" 'BEGIN {
    if (l + 0 > 1.5 * r) {
        printf "label queries too slow: %.1f ns vs rows %.1f ns (%.2fx > 1.5x)\n", l, r, l / r
        exit 1
    }
    printf "label queries %.1f ns vs rows %.1f ns (%.2fx, gate 1.5x)\n", l, r, l / r
}'

echo "==> bench smoke: live serving, 500 peers under churn, obs on"
./target/release/bench_live --smoke --obs --timeseries-out target/timeseries.jsonl
# Throughput gate: the quiesced serving path (the first
# median_ns_per_lookup in the file) must stay within 2x of the
# checked-in budget (scripts/live_budget_ns, measured on the CI box).
live_budget=$(cat scripts/live_budget_ns)
live_median=$(awk -F': ' '/"median_ns_per_lookup"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_live.json)
awk -v m="$live_median" -v b="$live_budget" 'BEGIN {
    if (m + 0 > 2 * b) {
        printf "live smoke regressed: quiesced median %.1f ns/lookup > 2x budget %.1f\n", m, b
        exit 1
    }
    printf "live smoke quiesced median %.1f ns/lookup within 2x budget %.1f\n", m, b
}'

echo "==> incremental maintenance: delta identity + publish-latency gates"
# The bench replays the same deterministic schedule twice — delta
# rebuilds off, then on — and records whether both runs published
# byte-identical snapshots (routing metrics AND the chained snapshot
# digest). The binary asserts it too; the grep keeps the artifact
# honest.
if ! grep -q '"delta_identity": true' BENCH_live.json; then
    echo "delta rebuilds were not byte-identical to full rebuilds" >&2
    exit 1
fi
echo "delta rebuilds byte-identical to full rebuilds"
# Publish-latency gate: at smoke sizes (tiny per-epoch ring turnover)
# the incremental publish p50 must come in at or under the checked-in
# fraction of the full-rebuild p50 (scripts/incremental_publish_ratio:
# twice the ratio measured when the delta path last changed — 0.14 to
# 0.18 over six smoke runs at PR 14 — so a delta path that goes back
# to rebuilding its seek index per bucket, 0.32 then, fails here).
ratio_budget=$(cat scripts/incremental_publish_ratio)
ratio=$(awk -F': ' '/"incremental_publish_ratio"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_live.json)
if [ -z "$ratio" ]; then
    echo "no incremental_publish_ratio in BENCH_live.json" >&2
    exit 1
fi
awk -v r="$ratio" -v b="$ratio_budget" 'BEGIN {
    if (r + 0 > b + 0) {
        printf "incremental publish too slow: p50 at %.2fx of a full rebuild (budget %.2fx)\n", r, b
        exit 1
    }
    printf "incremental publish p50 at %.2fx of a full rebuild (budget %.2fx)\n", r, b
}'

echo "==> lookup cache: identity, hit-rate and hot-key latency gates"
# The skew sweep replays every workload through the serving path with
# the hot-key cache off and on. Cache off, the snapshot serving path
# must be the replay path: every uncached run (the uniform one is the
# quiesced baseline's stream) byte-identical to hieras-sim's replay of
# the same workload. The cached runs must have re-verified every hit
# against the authoritative route — both recorded by the binary, kept
# honest here.
if ! grep -q '"cache_off_identity": true' BENCH_live.json; then
    echo "a cache-off run was not byte-identical to the replay" >&2
    exit 1
fi
if ! grep -q '"cache_verified": true' BENCH_live.json; then
    echo "cached sweep did not run in verify mode" >&2
    exit 1
fi
echo "cache off is a no-op; every cached hit re-verified against the route"
# Hit-rate floor: under the Zipf(0.99) smoke workload the
# frequency-sketch admission must capture at least the checked-in
# fraction of lookups (scripts/cache_hit_floor).
hit_floor=$(cat scripts/cache_hit_floor)
hit_rate=$(awk -F': ' '/"zipf_smoke_hit_rate"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_live.json)
if [ -z "$hit_rate" ]; then
    echo "no zipf_smoke_hit_rate in BENCH_live.json" >&2
    exit 1
fi
awk -v h="$hit_rate" -v f="$hit_floor" 'BEGIN {
    if (h + 0 < f + 0) {
        printf "cache hit rate %.3f under the Zipf(0.99) smoke floor %.3f\n", h, f
        exit 1
    }
    printf "cache hit rate %.3f over the Zipf(0.99) floor %.3f\n", h, f
}'
# Hot-key latency gate: the cached hot-key p50 must come in at or
# under the checked-in fraction of the uncached hot-key p50
# (scripts/cached_latency_ratio — 0.5 means "at least 2x faster").
cache_ratio_budget=$(cat scripts/cached_latency_ratio)
cache_ratio=$(awk -F': ' '/"cached_hot_p50_ratio"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_live.json)
if [ -z "$cache_ratio" ]; then
    echo "no cached_hot_p50_ratio in BENCH_live.json" >&2
    exit 1
fi
awk -v r="$cache_ratio" -v b="$cache_ratio_budget" 'BEGIN {
    if (r + 0 > b + 0) {
        printf "cached hot-key p50 at %.2fx of uncached (budget %.2fx)\n", r, b
        exit 1
    }
    printf "cached hot-key p50 at %.2fx of uncached (budget %.2fx)\n", r, b
}'

echo "==> telemetry: windowed time-series gates"
# Both streams (deterministic sim windows, free-running wall windows)
# must parse back through hieras_rt::FromJson and re-serialize
# byte-identically — hieras-timeline --check is that round trip.
./target/release/hieras-timeline --check target/timeseries.jsonl
./target/release/hieras-timeline --check target/timeseries.live.jsonl
# And render: the table and the diff must both produce output (the
# diff doubles as the demo of `--compare`).
./target/release/hieras-timeline target/timeseries.jsonl | head -n 4
compare_lines=$(./target/release/hieras-timeline --compare \
    target/timeseries.jsonl target/timeseries.live.jsonl | wc -l)
if [ "$compare_lines" -lt 4 ]; then
    echo "hieras-timeline --compare produced no per-window rows" >&2
    exit 1
fi
echo "hieras-timeline --compare rendered $compare_lines lines"
# The flight recorder's slow-lookup trace is a regular hieras-obs
# span stream: it must convert through the Chrome viewer path too.
scripts/trace2chrome target/timeseries.slow.jsonl target/timeseries.slow.chrome.json
grep -q '"traceEvents"' target/timeseries.slow.chrome.json
# Epoch-health gauges must actually appear in the free-running
# windows: a live run that published snapshots but recorded no age or
# backlog gauges has lost the maintenance side of the ledger.
for gauge in serve.epoch.snapshot_age_ms serve.epoch.retired_backlog serve.epoch.reader_lag; do
    if ! grep -q "\"$gauge\"" target/timeseries.live.jsonl; then
        echo "free-running windows carry no $gauge gauge" >&2
        exit 1
    fi
done
echo "epoch-health gauges present in the free-running windows"
# Window density: the free-running run must populate at least one
# window per wall second (the bench cuts 250 ms windows, so this has
# 4x headroom), and at least one window overall.
live_windows=$(awk -F': ' '/"timeseries_windows"/ { v = $2; sub(/,.*/, "", v); w = v } END { print w + 0 }' BENCH_live.json)
live_wall_ns=$(awk -F': ' '/"wall_ns"/ { v = $2; sub(/,.*/, "", v); w = v } END { print w + 0 }' BENCH_live.json)
awk -v w="$live_windows" -v ns="$live_wall_ns" 'BEGIN {
    need = int(ns / 1e9); if (need < 1) need = 1
    if (w < need) {
        printf "live run populated %d windows over %.1f s (need >= %d)\n", w, ns / 1e9, need
        exit 1
    }
    printf "live run populated %d windows over %.1f s wall\n", w, ns / 1e9
}'
# Telemetry overhead gate: the quiesced per-lookup cost with telemetry
# on (fastest rep) must stay within the checked-in budget
# (scripts/telemetry_overhead_pct) of the telemetry-off fastest rep.
# bench_live times that pair on a one-thread executor at any
# HIERAS_THREADS — on a wider one par_fold's thread spawn outweighs a
# 2 000-request rep and the gate measured the scheduler.
overhead_budget=$(cat scripts/telemetry_overhead_pct)
overhead=$(awk -F': ' '/"telemetry_overhead_pct"/ { v = $2; sub(/,.*/, "", v); print v; exit }' BENCH_live.json)
awk -v o="$overhead" -v b="$overhead_budget" 'BEGIN {
    if (o + 0 > b + 0) {
        printf "telemetry overhead %.1f%% exceeds the %.1f%% budget\n", o, b
        exit 1
    }
    printf "telemetry overhead %.1f%% within the %.1f%% budget\n", o, b
}'

echo "==> verify OK"
