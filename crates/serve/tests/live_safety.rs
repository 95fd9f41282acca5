//! Snapshot-safety stress tests over real routing state.
//!
//! The unit tests in `epoch.rs` hammer the reclamation protocol with
//! tiny integer snapshots; here they are full `ServeSnapshot`s
//! — multi-ring HIERAS hierarchies — and the readers are the real
//! free-running serving loop. Two invariants under fire:
//!
//! 1. no reader ever adopts a torn snapshot (epoch checksum holds on
//!    every adoption, while the maintainer publishes as fast as the
//!    schedule allows);
//! 2. reclamation never frees a snapshot a parked reader still pins,
//!    and frees everything once that reader is gone.

use hieras_rt::Executor;
use hieras_serve::{epoch_pair, ServeConfig, ServeEngine, ServeSnapshot, TelemetryConfig};
use hieras_sim::{ChurnConfig, Experiment, ExperimentConfig, Lifetime};

fn world(nodes: usize) -> Experiment {
    let mut cfg = ExperimentConfig::paper(nodes, 23);
    cfg.requests = 100;
    Experiment::build(cfg)
}

/// Free-running readers against a maintainer publishing one epoch per
/// event: the highest snapshot-flip rate the schedule can produce. The
/// serving loop itself asserts the checksum on every adoption, so this
/// test failing means a reader saw a mix of two epochs.
#[test]
fn free_running_readers_never_adopt_a_torn_snapshot() {
    let exp = world(120);
    let engine = ServeEngine::new(
        &exp,
        ServeConfig {
            churn: ChurnConfig {
                initial_nodes: 100,
                arrivals: 20,
                inter_arrival: Lifetime::Fixed { ms: 150 },
                lifetime: Lifetime::Exponential { mean_ms: 30_000.0 },
                graceful_fraction: 0.5,
                horizon_ms: 15_000,
                seed: 0xdead,
            },
            readers: 3,
            // One event per epoch: publish at the maximum rate.
            events_per_epoch: 1,
            lookups_per_epoch: 32,
            // Tiny batches: readers refresh (and re-verify) constantly.
            refresh_batch: 4,
            seed: 0xbeef,
            rebin_every: 5,
            rebin_noise: 0.3,
            // Telemetry on under fire: wall windows + flight captures
            // must survive the same stress the lookups do.
            telemetry: TelemetryConfig::on(),
            // Delta path on: the stress covers the incremental
            // maintainer. (`batched` is inert — any value serves the
            // same way.)
            delta_max_ring_fraction: 0.5,
            batched: true,
            pace: 0.0,
            cache: hieras_serve::CacheConfig::off(),
            workload: hieras_sim::WorkloadModel::Uniform,
        },
    );
    let r = engine.run_live();
    assert!(r.epochs.published > 20, "the schedule must actually flip snapshots");
    assert!(r.lookups > 0, "readers must have served");
    // Readers all dropped before the final reclaim: full accounting.
    assert_eq!(r.epochs.retired, 0, "no reader left — nothing may stay retired");
    assert_eq!(r.epochs.reclaimed, r.epochs.published, "every epoch reclaims exactly once");
    assert!(r.turnover > 0.05, "stress scenario must churn >5% of the overlay");
    // The wall-clock time series assembled under stress is coherent.
    let ts = r.timeseries.expect("telemetry was on");
    assert_eq!(ts.meta.mode, "wall");
    assert_eq!(ts.total_lookups(), r.lookups, "every lookup lands in exactly one window");
    for s in &ts.slow {
        let sum: u64 = s.path.iter().map(|h| u64::from(h.ms)).sum();
        assert_eq!(sum, s.latency_ms, "flight-recorded paths reconcile under churn");
    }
}

/// `run_live` starts the maintainer only once every reader thread is
/// running, and a reader checks the stop flag after a batch, not before
/// its first: even on a schedule the maintainer drains before a
/// spawned thread gets its first time slice, every reader serves at
/// least one full batch. The world is quick `figures live`'s, unpaced;
/// its 60 s horizon (where, before the start-up barrier, 4 release
/// runs in 10 ended with a reader that had served nothing) is cut to
/// 3 s so the race is just as sure to bite an unoptimised build.
#[test]
fn every_live_reader_serves_at_least_one_batch() {
    const SEED: u64 = 20030415;
    let mut world = ExperimentConfig::paper(500, SEED);
    world.requests = 2000;
    let exp = Experiment::build(world);
    let cfg = ServeConfig {
        churn: ChurnConfig {
            initial_nodes: 450,
            arrivals: 50,
            inter_arrival: Lifetime::Fixed { ms: 1_000 },
            lifetime: Lifetime::Exponential { mean_ms: 300_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: 3_000,
            seed: SEED,
        },
        readers: 4,
        events_per_epoch: 4,
        lookups_per_epoch: 2000,
        refresh_batch: 64,
        seed: SEED ^ 0xb1e5_5e1f,
        rebin_every: 8,
        rebin_noise: 0.2,
        telemetry: TelemetryConfig::on(),
        delta_max_ring_fraction: 0.6,
        batched: false,
        pace: 0.0,
        cache: hieras_serve::CacheConfig::off(),
        workload: hieras_sim::WorkloadModel::Uniform,
    };
    let engine = ServeEngine::new(&exp, cfg);
    for run in 0..25 {
        let r = engine.run_live();
        assert!(
            r.lookups >= (cfg.readers * cfg.refresh_batch) as u64,
            "run {run}: {} lookups from {} readers — one started after the maintainer finished",
            r.lookups,
            cfg.readers
        );
        let per_reader = r
            .registry
            .hist(hieras_obs::names::SERVE_READER_LOOKUPS)
            .expect("every reader reports its lookups");
        assert_eq!(per_reader.total(), cfg.readers as u64);
        assert!(per_reader.min() >= cfg.refresh_batch as u64, "run {run}: a reader served no batch");
    }
}

/// A parked reader pins its snapshot — and only that one — through
/// arbitrarily many publications; dropping the reader releases it.
#[test]
fn reclamation_never_frees_a_pinned_snapshot() {
    const PUBLISHES: usize = 12;
    let exp = world(40);
    let exec = Executor::new(1);
    let snap_at = |epoch: u64, live_n: u32| {
        let members: Vec<u32> = (0..live_n).collect();
        let oracle = exp
            .subset_hieras_on(&exec, &members, None, None)
            .expect("prefix memberships are valid subsets");
        ServeSnapshot::new(epoch, oracle, members.into())
    };

    let (mut pb, handle) = epoch_pair(snap_at(0, 40));
    let parked = handle.reader();
    for i in 1..=PUBLISHES {
        // Shrinking membership: every epoch is a distinct hierarchy.
        pb.publish(snap_at(i as u64, 40 - i as u32));
        // Epoch 0 stays; the snapshot just replaced had no reader.
        assert_eq!(pb.reclaim(), usize::from(i > 1), "publish {i}: only epoch 0 is pinned");
    }
    let s = pb.stats();
    assert_eq!(s.retired, 1, "only the parked reader's snapshot waits");
    assert_eq!(s.lag_peak, 2);
    // The parked reader's world is still whole and still epoch 0's.
    assert_eq!(parked.lag(), PUBLISHES as u64);
    assert!(parked.snapshot().value.verify(0), "pinned snapshot decayed while parked");
    assert_eq!(parked.snapshot().value.live_count(), 40);

    drop(parked);
    assert_eq!(pb.reclaim(), 1, "no reader left — epoch 0 reclaims");
    assert_eq!(pb.stats().retired, 0);
    assert_eq!(pb.stats().reclaimed, PUBLISHES as u64, "every replaced snapshot, exactly once");

    // A reader minted now starts at the newest snapshot, not epoch 0.
    let fresh = handle.reader();
    assert_eq!(fresh.snapshot().epoch, PUBLISHES as u64);
    assert!(fresh.snapshot().value.verify(PUBLISHES as u64));
    assert_eq!(fresh.snapshot().value.live_count(), 40 - PUBLISHES);
}
