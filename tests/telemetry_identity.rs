//! Identities of the windowed-telemetry layer.
//!
//! Three contracts the time-series artifacts stand on:
//!
//! 1. **Zero perturbation** — enabling telemetry leaves the
//!    deterministic routing metrics byte-identical to a
//!    telemetry-off run; the windowed stream itself is bit-identical
//!    (as JSONL text) at 1, 2 and 8 executor lanes.
//! 2. **Exact reconciliation** — the per-window histograms and health
//!    counters are a partition of the run totals: window lookups sum
//!    to the registry's `serve.lookups`, merged window latency
//!    histograms equal one rebuilt from every routing sample, and the
//!    `serve.epoch.*` window counters sum to their run-level `serve.*`
//!    twins. Windows are a reslicing of the truth, not a sampling.
//! 3. **Flight-recorder fidelity** — every captured slow lookup's hop
//!    milliseconds sum to its recorded latency, and the slowest
//!    capture is the run's true maximum latency.
//! 4. **Both streams are whole** — the sim-windowed stream survives
//!    its JSONL wire format byte for byte; wall windows exist, carry
//!    the maintainer's and the readers' epoch-health gauges, and both
//!    the wall stream and its slow-lookup trace survive their JSONL
//!    wire formats byte for byte (what `hieras-timeline --check` and
//!    `--chrome-trace` read).

use hieras::obs::{names, LogHistogram, TimeSeriesReport, Tracer};
use hieras::rt::{Executor, ToJson};
use hieras::serve::{CacheConfig, ServeConfig, ServeEngine, TelemetryConfig};
use hieras::sim::{ChurnConfig, Experiment, ExperimentConfig, Lifetime, WorkloadModel};

fn world(telemetry: TelemetryConfig) -> (Experiment, ServeConfig) {
    let mut cfg = ExperimentConfig::paper(150, 7);
    cfg.requests = 1500;
    let exp = Experiment::build(cfg);
    let serve = ServeConfig {
        churn: ChurnConfig {
            initial_nodes: 130,
            arrivals: 20,
            inter_arrival: Lifetime::Fixed { ms: 400 },
            lifetime: Lifetime::Exponential { mean_ms: 60_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: 25_000,
            seed: 0x1eaf,
        },
        readers: 2,
        events_per_epoch: 2,
        lookups_per_epoch: 300,
        refresh_batch: 32,
        seed: 0x5eed,
        rebin_every: 6,
        rebin_noise: 0.3,
        telemetry,
        delta_max_ring_fraction: 0.35,
        batched: false,
        pace: 0.0,
        cache: CacheConfig::off(),
        workload: WorkloadModel::Uniform,
    };
    (exp, serve)
}

#[test]
fn windowed_stream_is_bit_identical_at_1_2_and_8_readers() {
    let (exp, cfg) = world(TelemetryConfig::on());
    let engine = ServeEngine::new(&exp, cfg);
    let base = engine.run_deterministic(&Executor::new(1));
    let base_ts = base.timeseries.as_ref().expect("telemetry is on");
    let base_jsonl = base_ts.to_jsonl();
    assert!(base_ts.window_count() >= 2, "the horizon spans several sim windows");
    for width in [2usize, 8] {
        let r = engine.run_deterministic(&Executor::new(width));
        let ts = r.timeseries.as_ref().expect("telemetry is on");
        assert_eq!(
            ts.to_jsonl(),
            base_jsonl,
            "windowed JSONL diverged at {width} readers"
        );
        assert_eq!(
            r.registry, base.registry,
            "registry (incl. telemetry.* rollups) diverged at {width} readers"
        );
    }
}

#[test]
fn telemetry_leaves_deterministic_routing_metrics_untouched() {
    let (exp, cfg) = world(TelemetryConfig::off());
    let engine_off = ServeEngine::new(&exp, cfg);
    let mut on = cfg;
    on.telemetry = TelemetryConfig::on();
    let engine_on = ServeEngine::new(&exp, on);
    let exec = Executor::new(2);
    let off = engine_off.run_deterministic(&exec);
    let with = engine_on.run_deterministic(&exec);
    assert!(off.timeseries.is_none(), "off run emits no time series");
    assert_eq!(with.metrics, off.metrics, "telemetry must not perturb routing");
    assert_eq!(with.lookups, off.lookups);
    assert_eq!(with.epochs.published, off.epochs.published);
}

#[test]
fn windows_partition_the_run_exactly() {
    let (exp, cfg) = world(TelemetryConfig::on());
    let engine = ServeEngine::new(&exp, cfg);
    let r = engine.run_deterministic(&Executor::new(2));
    let ts = r.timeseries.as_ref().expect("telemetry is on");

    // Lookup counts: windows sum to the run total and the registry.
    let windowed: u64 = ts.windows.iter().map(|w| w.lookups).sum();
    assert_eq!(windowed, r.lookups, "window lookups partition the run");
    assert_eq!(windowed, r.registry.counter(names::SERVE_LOOKUPS));

    // Latency: the merged window histograms equal one rebuilt from
    // every routing sample's 1-ms bucket — same values, not just the
    // same count.
    let mut merged = LogHistogram::default();
    for w in &ts.windows {
        merged.merge(&w.latency);
    }
    let mut from_samples = LogHistogram::default();
    let hist = &r.metrics.latency_hist;
    for ms in 0..=hist.max_value() {
        for _ in 0..hist.count(ms) {
            from_samples.record(ms as u64);
        }
    }
    assert_eq!(merged, from_samples, "windowed latency is a reslicing of the samples");

    // Epoch health: serve.epoch.* window counters sum to their
    // run-level serve.* twins.
    let health_sum = |name: &str| -> u64 {
        ts.windows.iter().map(|w| w.health.counter(name)).sum()
    };
    for (window_name, run_name) in [
        (names::SERVE_EPOCH_PUBLISHED, names::SERVE_EPOCHS_PUBLISHED),
        (names::SERVE_EPOCH_JOINS, names::SERVE_JOINS),
        (names::SERVE_EPOCH_LEAVES, names::SERVE_LEAVES),
        (names::SERVE_EPOCH_FAILS, names::SERVE_FAILS),
        (names::SERVE_EPOCH_REBINNED, names::SERVE_REBINNED),
    ] {
        assert_eq!(
            health_sum(window_name),
            r.registry.counter(run_name),
            "{window_name} must sum to {run_name}"
        );
    }

    // Run-level rollups match the report.
    assert_eq!(
        r.registry.gauge(names::TELEMETRY_WINDOWS),
        Some(ts.window_count() as i64)
    );
    assert_eq!(r.registry.counter(names::TELEMETRY_SLOW_LOOKUPS), ts.slow.len() as u64);
}

#[test]
fn flight_recorder_captures_reconcile_with_the_samples() {
    let (exp, cfg) = world(TelemetryConfig::on());
    let engine = ServeEngine::new(&exp, cfg);
    let r = engine.run_deterministic(&Executor::new(2));
    let ts = r.timeseries.as_ref().expect("telemetry is on");
    assert!(!ts.slow.is_empty(), "the recorder must capture something");
    for rec in &ts.slow {
        let hop_ms: u64 = rec.path.iter().map(|h| u64::from(h.ms)).sum();
        assert_eq!(
            hop_ms, rec.latency_ms,
            "captured hop milliseconds must sum to the recorded latency"
        );
    }
    // Per-window top-K keeps every window's slowest lookup, so the
    // global maximum latency is necessarily among the captures.
    let slowest = ts.slow.iter().map(|s| s.latency_ms).max().unwrap();
    let true_max = r.metrics.latency_hist.max_value() as u64;
    assert_eq!(slowest, true_max, "the run's worst lookup is on tape");
}

#[test]
fn sim_windowed_stream_round_trips() {
    let (exp, cfg) = world(TelemetryConfig::on());
    let r = ServeEngine::new(&exp, cfg).run_deterministic(&Executor::new(2));
    let ts = r.timeseries.as_ref().expect("telemetry is on");
    assert_eq!(ts.meta.mode, "sim");
    assert!(ts.window_count() > 1, "the horizon spans several sim windows");
    let jsonl = ts.to_jsonl();
    let back = TimeSeriesReport::parse_jsonl(&jsonl).expect("stream parses");
    assert_eq!(back.to_jsonl(), jsonl, "sim-window JSONL round-trips byte-identically");
}

#[test]
fn free_running_stream_carries_epoch_health_and_round_trips() {
    let (exp, cfg) = world(TelemetryConfig::on());
    let live = ServeEngine::new(&exp, cfg).run_live();
    let ts = live.timeseries.as_ref().expect("telemetry is on");
    assert_eq!(ts.meta.mode, "wall");
    assert!(ts.window_count() >= 1, "a live run populates at least one wall window");
    // A run that published snapshots but recorded no age, backlog or
    // lag gauge has lost the maintenance side of the ledger.
    for gauge in [
        names::SERVE_EPOCH_SNAPSHOT_AGE_MS,
        names::SERVE_EPOCH_RETIRED_BACKLOG,
        names::SERVE_EPOCH_READER_LAG,
    ] {
        assert!(
            ts.windows.iter().any(|w| w.health.gauge(gauge).is_some()),
            "free-running windows carry no {gauge} gauge"
        );
    }
    let jsonl = ts.to_jsonl();
    let back = TimeSeriesReport::parse_jsonl(&jsonl).expect("stream parses");
    assert_eq!(back.to_jsonl(), jsonl, "wall-window JSONL round-trips byte-identically");
    let slow = ts.slow_trace().to_jsonl();
    assert!(!slow.is_empty(), "the recorder must capture something");
    let events = Tracer::parse_jsonl(&slow).expect("slow trace parses");
    let again: String = events.iter().map(|e| e.to_json().dump() + "\n").collect();
    assert_eq!(again, slow, "the flight-recorder trace round-trips byte-identically");
}
