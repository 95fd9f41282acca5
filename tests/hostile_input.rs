//! Hostile input never panics the artifact parsers.
//!
//! A seeded mutation fuzz: start from a valid `figures live` stream —
//! the deterministic run's windows (what `--timeseries-out` writes) and
//! its flight-recorder trace (the `.slow.jsonl` sibling) — and cut,
//! flip, splice and bracket-bomb it a few thousand ways. Every case goes
//! to `Json::parse`, `TimeSeriesReport::parse_jsonl` and
//! `Tracer::parse_jsonl`, and each must answer `Ok` or `Err`: a panic
//! (an overflow, an out-of-range index, a stack overflow through deep
//! nesting) fails the case, and the case is named.

use hieras::obs::{TimeSeriesReport, Tracer};
use hieras::rt::{Executor, Json, Rng};
use hieras::serve::{CacheConfig, ServeConfig, ServeEngine, TelemetryConfig};
use hieras::sim::{ChurnConfig, Experiment, ExperimentConfig, Lifetime, WorkloadModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: usize = 10_000;

/// The first lines of a small live run's window stream and of its
/// flight-recorder trace.
fn corpus() -> [String; 2] {
    let mut cfg = ExperimentConfig::paper(150, 7);
    cfg.requests = 600;
    let exp = Experiment::build(cfg);
    let serve = ServeConfig {
        churn: ChurnConfig {
            initial_nodes: 130,
            arrivals: 20,
            inter_arrival: Lifetime::Fixed { ms: 400 },
            lifetime: Lifetime::Exponential { mean_ms: 60_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: 8_000,
            seed: 0x1eaf,
        },
        readers: 2,
        events_per_epoch: 2,
        lookups_per_epoch: 300,
        refresh_batch: 32,
        seed: 0x5eed,
        rebin_every: 6,
        rebin_noise: 0.3,
        telemetry: TelemetryConfig::on(),
        delta_max_ring_fraction: 0.35,
        batched: false,
        pace: 0.0,
        cache: CacheConfig::off(),
        workload: WorkloadModel::Uniform,
    };
    let r = ServeEngine::new(&exp, serve).run_deterministic(&Executor::new(1));
    let ts = r.timeseries.expect("telemetry is on");
    let head = |text: String| text.lines().take(4).map(|l| format!("{l}\n")).collect::<String>();
    let windows = head(ts.to_jsonl());
    let slow = head(ts.slow_trace().to_jsonl());
    assert!(TimeSeriesReport::parse_jsonl(&windows).is_ok(), "the window stream is valid");
    assert!(Tracer::parse_jsonl(&slow).is_ok_and(|e| !e.is_empty()), "the trace is valid");
    [windows, slow]
}

/// One to three mutations of `seed`: a truncation, a byte flip, a byte
/// overwritten by a JSON token, a repeated slice, an extreme number
/// spliced in, or a run of opening brackets (up to 300 deep, sometimes
/// 5 000).
fn mutate(seed: &str, rng: &mut Rng) -> String {
    const TOKENS: &[u8] = b"{}[]\":,-+.0123456789eEtfn\\ \n";
    const NUMBERS: [&str; 6] =
        ["18446744073709551615", "9223372036854775808", "-1", "1e400", "-0.5", "0"];
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.random_range(1usize..=3) {
        let at = rng.random_range(0..=bytes.len());
        match rng.random_range(0u32..6) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= rng.random_range(1u8..=255),
            2 if at < bytes.len() => bytes[at] = *rng.choose(TOKENS).expect("tokens"),
            3 => {
                let end = rng.random_range(at..=bytes.len().min(at + 200));
                let slice = bytes[at..end].to_vec();
                let copies = rng.random_range(1usize..4);
                bytes.splice(at..at, slice.iter().copied().cycle().take(slice.len() * copies));
            }
            4 => {
                let number = rng.choose(&NUMBERS).expect("numbers").bytes();
                bytes.splice(at..at, number);
            }
            _ => {
                let deep =
                    if rng.random_range(0u32..10) == 0 { 5_000 } else { rng.random_range(1usize..300) };
                let bracket = *rng.choose(b"[{").expect("brackets");
                bytes.splice(at..at, std::iter::repeat_n(bracket, deep));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_live_streams_never_panic_the_parsers() {
    let corpus = corpus();
    let mut rng = Rng::seed_from_u64(0xf022);
    let mut rejected = 0usize;
    for case in 0..CASES {
        let text = mutate(&corpus[case % corpus.len()], &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            [
                Json::parse(&text).is_err(),
                TimeSeriesReport::parse_jsonl(&text).is_err(),
                Tracer::parse_jsonl(&text).is_err(),
            ]
        }));
        match outcome {
            Ok(errs) => rejected += errs.iter().filter(|&&e| e).count(),
            Err(_) => panic!("case {case} panicked a parser on:\n{}", text.escape_debug()),
        }
    }
    // Every parser sees every case; most mutations break the document.
    assert!(rejected > CASES, "the mutations must mostly produce invalid input ({rejected})");
}
