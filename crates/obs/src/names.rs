//! Canonical metric names shared across the workspace.
//!
//! The latency-oracle backends, the serving engine, and the bench
//! harness all publish into a [`crate::Registry`] under these keys.
//! Centralizing the strings keeps producers (`hieras-sim`) and
//! consumers (`hieras-bench`, `scripts/verify.sh`, dashboards) from
//! drifting apart: a typo becomes a compile error instead of a metric
//! that silently never reconciles.
//!
//! Naming scheme: `<subsystem>.<metric>`. Counters count events,
//! gauges snapshot state, histograms end in the unit they observe.

/// Rows resident in the rows backend (gauge).
pub const LATENCY_CACHE_RESIDENT_ROWS: &str = "latency_cache.resident_rows";
/// Resident rows built by a full-graph Dijkstra (gauge).
pub const LATENCY_CACHE_ROWS_SEARCHED: &str = "latency_cache.rows_searched";
/// Resident rows composed through a bridge: a cell-local table plus
/// the delay to the bridge parent, whose row answers for the rest
/// (gauge).
pub const LATENCY_CACHE_ROWS_COMPOSED: &str = "latency_cache.rows_composed";
/// Bytes of distance entries the resident rows hold (gauge).
pub const LATENCY_CACHE_BYTES: &str = "latency_cache.bytes";

/// Hub count of the label index (gauge).
pub const LATENCY_LABELS_HUBS: &str = "latency_labels.hubs";
/// Total label entries across all nodes (gauge).
pub const LATENCY_LABELS_ENTRIES: &str = "latency_labels.entries";
/// Mean label length in thousandths of an entry (gauge; the registry
/// holds integers, so 2.5 entries/node is published as 2500).
pub const LATENCY_LABELS_AVG_LEN_MILLI: &str = "latency_labels.avg_len_milli";
/// Longest per-node label list (gauge).
pub const LATENCY_LABELS_MAX_LEN: &str = "latency_labels.max_len";
/// Wall-clock label construction time, whole ms (gauge).
pub const LATENCY_LABELS_BUILD_MS: &str = "latency_labels.build_ms";
/// Queries answered by label merge (counter).
pub const LATENCY_LABELS_QUERIES: &str = "latency_labels.queries";
/// Bytes held by the label arrays (gauge).
pub const LATENCY_LABELS_BYTES: &str = "latency_labels.bytes";

/// Label queries answered from the per-thread memo (counter).
pub const LABEL_MEMO_HITS: &str = "label_memo.hits";
/// Label queries that fell through to a label merge (counter).
pub const LABEL_MEMO_MISSES: &str = "label_memo.misses";

/// Packed rings across all hierarchy layers (gauge).
pub const RING_ARENA_RINGS: &str = "ring_arena.rings";
/// Member slots across all packed rings (gauge).
pub const RING_ARENA_MEMBER_SLOTS: &str = "ring_arena.member_slots";
/// Bytes held by the packed routing state (gauge).
pub const RING_ARENA_BYTES: &str = "ring_arena.bytes";

/// Snapshots published by the serving maintenance thread (counter).
pub const SERVE_EPOCHS_PUBLISHED: &str = "serve.epochs_published";
/// Retired snapshots reclaimed after every reader advanced (counter).
pub const SERVE_SNAPSHOTS_RECLAIMED: &str = "serve.snapshots_reclaimed";
/// Peak retired-but-unreclaimed snapshot count (gauge).
pub const SERVE_RECLAIM_LAG_PEAK: &str = "serve.reclaim_lag_peak";
/// Epochs-behind-published per lookup — the stale-read window
/// (histogram).
pub const SERVE_STALE_EPOCHS: &str = "serve.stale_epochs";
/// Lookups completed per reader thread (histogram over readers).
pub const SERVE_READER_LOOKUPS: &str = "serve.reader_lookups";
/// Total lookups served (counter).
pub const SERVE_LOOKUPS: &str = "serve.lookups";
/// Join events applied to the serving membership (counter).
pub const SERVE_JOINS: &str = "serve.joins";
/// Graceful leaves applied to the serving membership (counter).
pub const SERVE_LEAVES: &str = "serve.leaves";
/// Silent failures applied to the serving membership (counter).
pub const SERVE_FAILS: &str = "serve.fails";
/// Peers whose landmark order changed at a re-bin epoch (counter).
pub const SERVE_REBINNED: &str = "serve.rebinned_peers";

// Reader-side hot-key result cache (`serve.cache.*`): run totals in
// the run registry, per-window activity in each telemetry window's
// health registry.

/// Lookups answered from a cached owner (counter).
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";
/// Lookups that fell through to a full route (counter).
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";
/// Cache entries written — fresh fills and admission-gated
/// displacements (counter).
pub const SERVE_CACHE_ADMITS: &str = "serve.cache.admits";
/// Wholesale cache invalidations, one per snapshot-checksum change a
/// reader observed (counter).
pub const SERVE_CACHE_INVALIDATIONS: &str = "serve.cache.invalidations";
/// Cache hits inside the window (per-window health counter).
pub const SERVE_CACHE_WINDOW_HITS: &str = "serve.cache.window.hits";
/// Cache probes inside the window, hits + misses (per-window health
/// counter).
pub const SERVE_CACHE_WINDOW_LOOKUPS: &str = "serve.cache.window.lookups";
/// Window hit rate in parts per million — derived from the window
/// counters when the report is assembled (per-window health gauge).
pub const SERVE_CACHE_HIT_RATE_PPM: &str = "serve.cache.window.hit_rate_ppm";

// Per-window epoch-health block (`serve.epoch.*`): published into a
// window's health registry by the serving maintenance path, so every
// telemetry window carries the maintenance activity that ran inside
// it. Counters count events within the window; gauges snapshot state
// as of the window (max-merged across producers).

/// Snapshots published inside the window (counter).
pub const SERVE_EPOCH_PUBLISHED: &str = "serve.epoch.published";
/// Join events applied inside the window (counter).
pub const SERVE_EPOCH_JOINS: &str = "serve.epoch.joins";
/// Graceful leaves applied inside the window (counter).
pub const SERVE_EPOCH_LEAVES: &str = "serve.epoch.leaves";
/// Silent failures applied inside the window (counter).
pub const SERVE_EPOCH_FAILS: &str = "serve.epoch.fails";
/// Peers re-binned into a new landmark order inside the window
/// (counter).
pub const SERVE_EPOCH_REBINNED: &str = "serve.epoch.rebinned";
/// Age of the published snapshot on the maintenance clock, ms (gauge).
pub const SERVE_EPOCH_SNAPSHOT_AGE_MS: &str = "serve.epoch.snapshot_age_ms";
/// Retired-but-unreclaimed snapshot backlog (gauge).
pub const SERVE_EPOCH_RETIRED_BACKLOG: &str = "serve.epoch.retired_backlog";
/// Worst reader pin lag seen this window, epochs behind published
/// (gauge).
pub const SERVE_EPOCH_READER_LAG: &str = "serve.epoch.reader_lag";
/// Wall-clock snapshot publish latency (rebuild + swap), µs
/// (histogram; free-running windows only — wall durations would break
/// deterministic identity).
pub const SERVE_EPOCH_PUBLISH_US: &str = "serve.epoch.publish_us";
/// Wall-clock hierarchy rebuild duration, µs (histogram; free-running
/// windows only).
pub const SERVE_EPOCH_REBUILD_US: &str = "serve.epoch.rebuild_us";
/// Wall-clock re-bin pass duration, µs (histogram; free-running
/// windows only).
pub const SERVE_EPOCH_REBIN_US: &str = "serve.epoch.rebin_us";
/// Snapshots rebuilt incrementally from the churn delta inside the
/// window (counter).
pub const SERVE_EPOCH_DELTA_REBUILDS: &str = "serve.epoch.delta_rebuilds";
/// Snapshots rebuilt from scratch inside the window — the maintainer's
/// fallback when a churn batch touches too many rings (counter).
pub const SERVE_EPOCH_FULL_REBUILDS: &str = "serve.epoch.full_rebuilds";
/// Arena-buffer withdrawals served by the maintainer's recycling pool
/// (counter).
pub const SERVE_EPOCH_ARENA_REUSED: &str = "serve.epoch.arena_reuse.reused";
/// Retired arena buffers deposited for reuse (counter).
pub const SERVE_EPOCH_ARENA_RETURNED: &str = "serve.epoch.arena_reuse.returned";
/// Retired arena buffers dropped because the pool was full (counter).
pub const SERVE_EPOCH_ARENA_DROPPED: &str = "serve.epoch.arena_reuse.dropped";

/// Populated telemetry windows at end of run (gauge).
pub const TELEMETRY_WINDOWS: &str = "telemetry.windows";
/// Flight-recorded slow lookups kept across all windows (counter).
pub const TELEMETRY_SLOW_LOOKUPS: &str = "telemetry.slow_lookups";
/// Windows that breached the SLO (counter).
pub const TELEMETRY_SLO_BREACHES: &str = "telemetry.slo_breaches";
