//! Single-writer snapshot publication, in safe Rust.
//!
//! One maintenance thread owns a [`Publisher`]; any number of reader
//! threads own [`Reader`]s minted from the shared [`EpochHandle`].
//! The publisher installs immutable snapshots ([`Versioned`]) under a
//! monotonically increasing epoch; each reader holds an `Arc` of the
//! snapshot it is currently routing against. That `Arc` is the whole
//! reclamation protocol: the publisher keeps replaced snapshots on a
//! private retired list and takes one back ([`Publisher::reclaim_with`])
//! exactly when `Arc::try_unwrap` says nobody else holds it. "No
//! snapshot is freed while a reader holds it" is therefore `Arc`'s
//! guarantee, not a protocol of this module, and the only state shared
//! between threads is the published-epoch counter and the
//! current-snapshot slot. A parked reader costs the one snapshot it
//! holds (surfaced by the `serve.reclaim_lag_peak` gauge), never the
//! younger ones retired behind it.
//!
//! Hot paths:
//! - a reader that is up to date pays one `Acquire` load and a compare
//!   per [`Reader::refresh`]; lookups themselves touch no atomics.
//! - the current-snapshot slot is locked only on publish, on a refresh
//!   that adopts, and when a reader is minted — never per lookup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot tagged with the epoch it was published under.
#[derive(Debug)]
pub struct Versioned<T> {
    /// Publication epoch: 0 for the initial snapshot, then +1 per
    /// [`Publisher::publish`].
    pub epoch: u64,
    /// The immutable snapshot payload.
    pub value: T,
}

#[derive(Debug)]
struct Shared<T> {
    /// Latest published epoch (readers poll this without locking).
    published: AtomicU64,
    /// The latest snapshot. Locked only on publish / adopting refresh
    /// / reader minting — transitions, never per lookup.
    current: Mutex<Arc<Versioned<T>>>,
}

/// Counters the publisher accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs published (excluding the initial epoch 0).
    pub published: u64,
    /// Retired snapshots taken back from the retired list.
    pub reclaimed: u64,
    /// Retired snapshots some reader still holds.
    pub retired: usize,
    /// Peak size of the retired list — the reclaim lag high-water mark.
    pub lag_peak: usize,
}

/// The single writer: publishes snapshots and reclaims retired ones.
#[derive(Debug)]
pub struct Publisher<T> {
    shared: Arc<Shared<T>>,
    /// Snapshots replaced but possibly still read. Publisher-private:
    /// exactly one maintenance thread exists by construction.
    retired: Vec<Arc<Versioned<T>>>,
    reclaimed: u64,
    lag_peak: usize,
}

impl<T> Publisher<T> {
    /// Installs `value` as the next epoch and retires the previous
    /// snapshot. Returns the new epoch. Readers observe the flip via
    /// the published-epoch counter; in-flight lookups keep routing
    /// against whatever snapshot they hold.
    pub fn publish(&mut self, value: T) -> u64 {
        let epoch = self.shared.published.load(Ordering::Relaxed) + 1;
        let next = Arc::new(Versioned { epoch, value });
        let old = {
            let mut cur = self.shared.current.lock().expect("reader panicked mid-refresh");
            std::mem::replace(&mut *cur, next)
        };
        self.retired.push(old);
        self.lag_peak = self.lag_peak.max(self.retired.len());
        // Release: a reader that observes the new epoch must also
        // observe the snapshot swap above.
        self.shared.published.store(epoch, Ordering::Release);
        epoch
    }

    /// Drops every retired snapshot no reader holds any more, and
    /// returns how many were reclaimed. A reader parked on an old epoch
    /// keeps that epoch's snapshot alive and nothing else.
    pub fn reclaim(&mut self) -> usize {
        self.reclaim_with(|_| {})
    }

    /// [`Publisher::reclaim`], but hands each reclaimed snapshot over
    /// to `salvage` instead of dropping it — the hook the serving
    /// maintainer uses to recycle retired ring arenas into its
    /// free-list. A retired snapshot is reclaimed iff this publisher
    /// holds the last reference to it; one a reader still holds (or is
    /// releasing at this instant) stays retired for a later call.
    pub fn reclaim_with(&mut self, mut salvage: impl FnMut(T)) -> usize {
        let before = self.retired.len();
        for snap in std::mem::take(&mut self.retired) {
            match Arc::try_unwrap(snap) {
                Ok(v) => salvage(v.value),
                Err(held) => self.retired.push(held),
            }
        }
        let freed = before - self.retired.len();
        self.reclaimed += freed as u64;
        freed
    }

    /// The latest published epoch.
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.shared.published.load(Ordering::Acquire)
    }

    /// Lifetime counters (published / reclaimed / retired / lag peak).
    #[must_use]
    pub fn stats(&self) -> EpochStats {
        EpochStats {
            published: self.published_epoch(),
            reclaimed: self.reclaimed,
            retired: self.retired.len(),
            lag_peak: self.lag_peak,
        }
    }
}

/// Cloneable capability to mint [`Reader`]s and poll the epoch.
#[derive(Debug)]
pub struct EpochHandle<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for EpochHandle<T> {
    fn clone(&self) -> Self {
        EpochHandle { shared: Arc::clone(&self.shared) }
    }
}

impl<T> EpochHandle<T> {
    /// Mints a new reader holding the current snapshot.
    #[must_use]
    pub fn reader(&self) -> Reader<T> {
        let cached =
            Arc::clone(&self.shared.current.lock().expect("publisher panicked mid-publish"));
        Reader { shared: Arc::clone(&self.shared), cached }
    }

    /// The latest published epoch.
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.shared.published.load(Ordering::Acquire)
    }
}

/// One reader thread's view: the snapshot it holds.
#[derive(Debug)]
pub struct Reader<T> {
    shared: Arc<Shared<T>>,
    cached: Arc<Versioned<T>>,
}

impl<T> Reader<T> {
    /// Adopts the latest snapshot if one was published since the last
    /// refresh, returning its epoch; `None` when already current (the
    /// hot path: one atomic load and a compare). Replacing the cached
    /// `Arc` releases the snapshot held until now.
    pub fn refresh(&mut self) -> Option<u64> {
        if self.shared.published.load(Ordering::Acquire) == self.cached.epoch {
            return None;
        }
        self.cached =
            Arc::clone(&self.shared.current.lock().expect("publisher panicked mid-publish"));
        Some(self.cached.epoch)
    }

    /// The held snapshot. Borrow-tied to the reader, so it cannot
    /// outlive a refresh that would release it.
    #[must_use]
    pub fn snapshot(&self) -> &Versioned<T> {
        &self.cached
    }

    /// The latest published epoch (may be ahead of the held one).
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.shared.published.load(Ordering::Acquire)
    }

    /// How many epochs behind the published snapshot this reader is —
    /// the stale-read window of its next lookup.
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.published_epoch().saturating_sub(self.cached.epoch)
    }
}

/// Creates the publisher/handle pair with `initial` at epoch 0.
#[must_use]
pub fn epoch_pair<T>(initial: T) -> (Publisher<T>, EpochHandle<T>) {
    let shared = Arc::new(Shared {
        published: AtomicU64::new(0),
        current: Mutex::new(Arc::new(Versioned { epoch: 0, value: initial })),
    });
    (
        Publisher { shared: Arc::clone(&shared), retired: Vec::new(), reclaimed: 0, lag_peak: 0 },
        EpochHandle { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_reader_holds_its_snapshot_until_it_refreshes_or_drops() {
        let (mut pb, handle) = epoch_pair(10u64);
        let mut fast = handle.reader();
        let slow = handle.reader();
        assert_eq!(fast.snapshot().value, 10);
        assert_eq!(pb.publish(20), 1);
        // Epoch 0 is held by both readers.
        assert_eq!(pb.reclaim(), 0);
        assert_eq!(fast.refresh(), Some(1));
        assert_eq!(fast.snapshot().value, 20);
        assert_eq!(fast.refresh(), None, "second refresh is a no-op");
        assert_eq!(pb.reclaim(), 0, "`slow` still holds epoch 0");
        assert_eq!(pb.publish(30), 2);
        assert_eq!(pb.reclaim(), 0, "epoch 1 is `fast`'s now");
        assert_eq!(pb.stats().retired, 2);
        // `slow` still reads epoch 0 unharmed.
        assert_eq!(slow.snapshot().value, 10);
        assert_eq!(slow.lag(), 2);
        assert_eq!(fast.refresh(), Some(2));
        assert_eq!(pb.reclaim(), 1, "refreshing released epoch 1");
        drop(slow);
        assert_eq!(pb.reclaim(), 1, "dropping the laggard releases epoch 0");
        let s = pb.stats();
        assert_eq!((s.published, s.reclaimed, s.retired, s.lag_peak), (2, 2, 0, 2));
    }

    #[test]
    fn an_unheld_younger_snapshot_is_reclaimed_past_a_held_older_one() {
        let (mut pb, handle) = epoch_pair(0u32);
        let parked = handle.reader();
        pb.publish(1);
        pb.publish(2);
        // Retired: epoch 0 (held by `parked`) and epoch 1 (held by nobody).
        let mut salvaged = Vec::new();
        assert_eq!(pb.reclaim_with(|v| salvaged.push(v)), 1);
        assert_eq!(salvaged, vec![1], "the younger snapshot came back");
        assert_eq!(pb.stats().retired, 1);
        assert_eq!(parked.snapshot().value, 0, "the held one is untouched");
        drop(parked);
        assert_eq!(pb.reclaim_with(|v| salvaged.push(v)), 1);
        assert_eq!(salvaged, vec![1, 0]);
    }

    #[test]
    fn reclaim_with_no_readers_frees_everything() {
        let (mut pb, handle) = epoch_pair(0u32);
        for v in 1..=5 {
            pb.publish(v);
        }
        assert_eq!(pb.reclaim(), 5);
        assert_eq!(pb.stats().lag_peak, 5);
        // A reader minted now starts at the latest epoch.
        let r = handle.reader();
        assert_eq!(r.snapshot().epoch, 5);
        assert_eq!(r.lag(), 0);
    }

    #[test]
    fn reclaim_with_salvages_sole_owner_snapshots() {
        let (mut pb, _handle) = epoch_pair(0u32);
        for v in 1..=3 {
            pb.publish(v);
        }
        let mut salvaged = Vec::new();
        assert_eq!(pb.reclaim_with(|v| salvaged.push(v)), 3);
        assert_eq!(salvaged, vec![0, 1, 2], "every retired payload came back");
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_epoch() {
        // Snapshots carry (epoch, epoch * K): any mix of two snapshots
        // breaks the invariant. Free-running readers check it while
        // the publisher flips as fast as it can.
        const K: u64 = 0x9e37_79b9;
        let (mut pb, handle) = epoch_pair((0u64, 0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop;
            for _ in 0..4 {
                let mut r = handle.reader();
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        r.refresh();
                        let v = r.snapshot();
                        assert_eq!(v.value.0, v.epoch, "snapshot/epoch mismatch");
                        assert_eq!(v.value.1, v.epoch.wrapping_mul(K), "torn payload");
                        assert!(v.epoch >= last, "epoch went backwards");
                        last = v.epoch;
                    }
                });
            }
            for e in 1..=2_000u64 {
                pb.publish((e, e.wrapping_mul(K)));
                if e % 64 == 0 {
                    pb.reclaim();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        pb.reclaim();
        let s = pb.stats();
        assert_eq!(s.published, 2_000);
        assert_eq!(s.reclaimed, 2_000, "all readers gone — everything reclaims");
    }
}
