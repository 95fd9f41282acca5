//! Deterministic parallel executor.
//!
//! The replay loop folds per-request samples into `Metrics`, and the
//! merged result must be **bit-identical regardless of thread count**
//! (its latency fold is order-dependent). rayon's `fold`/`reduce` does
//! not promise that: its reduction tree depends on work stealing.
//!
//! This executor does. The index range is split into fixed-size chunks
//! — the chunk size never depends on the thread count — and workers
//! claim chunks dynamically off a shared atomic counter. Each chunk is
//! folded sequentially into its own accumulator, and accumulators are
//! merged into the result **sequentially in chunk order**: whichever
//! worker finishes the next unmerged chunk merges it and every later
//! chunk already waiting. The merge sequence is therefore a pure
//! function of `(len, chunk_size)`: running with 1, 2 or 64 threads
//! produces the same bytes. A chunk's accumulator lives only until its
//! predecessors are merged, not until the last chunk finishes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A scoped-thread pool-less executor: threads are spawned per call,
/// which is fine for the coarse-grained work here (thousands of
/// lookups or Dijkstra rows per chunk, calls lasting milliseconds to
/// minutes).
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// An executor with [`Executor::default_threads`] workers.
    fn default() -> Self {
        Executor::new(Self::default_threads())
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor { threads: threads.max(1) }
    }

    /// The worker count the default executor uses: the
    /// `HIERAS_THREADS` environment variable if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    #[must_use]
    pub fn default_threads() -> usize {
        static CACHED: OnceLock<usize> = OnceLock::new();
        *CACHED.get_or_init(|| {
            if let Ok(v) = std::env::var("HIERAS_THREADS") {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n > 0 {
                        return n;
                    }
                }
            }
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// Number of worker threads this executor runs.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Folds `0..len` into one accumulator, deterministically.
    ///
    /// * `chunk` — indices per chunk. Pick it per call site and keep it
    ///   fixed: it defines the merge structure, so changing it changes
    ///   which (identical-value, differently-ordered) result you get.
    /// * `init` — a fresh accumulator (called once per chunk plus once
    ///   for the merge seed).
    /// * `fold` — folds index `i` into the chunk accumulator.
    /// * `merge` — combines two accumulators; applied left-to-right in
    ///   ascending chunk order, by the worker that finishes the next
    ///   chunk in that order.
    ///
    /// # Panics
    /// Panics if `chunk == 0` or a worker thread panicked.
    pub fn par_fold<A, I, F, M>(&self, len: usize, chunk: usize, init: I, fold: F, merge: M) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let n_chunks = len.div_ceil(chunk);
        // The result so far, how many chunks it holds, and finished
        // chunks still waiting for an earlier one.
        let waiting: Vec<Option<A>> = (0..n_chunks).map(|_| None).collect();
        let state = Mutex::new((Some(init()), 0usize, waiting));
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n_chunks.max(1));

        let run = |_worker: usize| {
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk;
                let hi = (lo + chunk).min(len);
                let mut acc = init();
                for i in lo..hi {
                    fold(&mut acc, i);
                }
                let mut guard = state.lock().expect("no merge panicked");
                let (out, merged, waiting) = &mut *guard;
                waiting[c] = Some(acc);
                while let Some(part) = waiting.get_mut(*merged).and_then(Option::take) {
                    *out = Some(merge(out.take().expect("the result is always put back"), part));
                    *merged += 1;
                }
            }
        };

        if workers <= 1 {
            run(0);
        } else {
            let run = &run;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || run(w));
                }
            });
        }

        let (out, merged, _) = state.into_inner().expect("no merge panicked");
        assert_eq!(merged, n_chunks, "every chunk merged");
        out.expect("the result is always put back")
    }

    /// Runs `f(i)` for every `i in 0..len` across the workers, in
    /// chunks of `chunk`. No ordering guarantee between calls — use it
    /// only for order-independent effects (e.g. filling `OnceLock`
    /// slots keyed by `i`).
    ///
    /// # Panics
    /// Panics if `chunk == 0` or a worker thread panicked.
    pub fn par_for_each<F>(&self, len: usize, chunk: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.par_fold(len, chunk, || (), |(), i| f(i), |(), ()| ());
    }

    /// Fills `out[i] = f(i)` for every index, in parallel.
    ///
    /// The value of each element is a pure function of its index, so
    /// the result is bit-identical at any thread count — this is the
    /// primitive the parallel finger-table builds rely on. Workers
    /// produce per-chunk vectors that the deterministic merge
    /// concatenates in ascending chunk order (one transient copy of
    /// `out`; no `unsafe`, in keeping with the crate-wide
    /// `forbid(unsafe_code)`).
    ///
    /// # Panics
    /// Panics if `chunk == 0` or a worker thread panicked.
    pub fn par_fill<T, F>(&self, out: &mut [T], chunk: usize, f: F)
    where
        T: Clone + Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let merged = self.par_fold(
            out.len(),
            chunk,
            Vec::new,
            |acc, i| acc.push(f(i)),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        out.clone_from_slice(&merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn fold_samples(threads: usize, len: usize, chunk: usize) -> Vec<usize> {
        Executor::new(threads).par_fold(
            len,
            chunk,
            Vec::new,
            |acc, i| acc.push(i * 7),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }

    #[test]
    fn par_fold_is_bit_identical_across_thread_counts() {
        let base = fold_samples(1, 10_007, 64);
        for threads in [2, 3, 8, 32] {
            assert_eq!(fold_samples(threads, 10_007, 64), base, "{threads} threads diverged");
        }
        // And the order is simply ascending: chunk order == index order.
        assert!(base.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(base.len(), 10_007);
    }

    #[test]
    fn par_fold_handles_edge_sizes() {
        assert_eq!(fold_samples(4, 0, 16), Vec::<usize>::new());
        assert_eq!(fold_samples(4, 1, 16), vec![0]);
        assert_eq!(fold_samples(4, 16, 16), (0..16).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(fold_samples(4, 17, 16).len(), 17);
    }

    #[test]
    fn par_for_each_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        Executor::new(8).par_for_each(5000, 37, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_sequential() {
        let par = Executor::new(6).par_fold(
            100_000,
            256,
            || 0u64,
            |acc, i| *acc += i as u64,
            |a, b| a + b,
        );
        assert_eq!(par, (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn a_merged_chunk_is_dropped_before_the_next_one_starts() {
        struct Acc<'a>(&'a AtomicUsize);
        impl Drop for Acc<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let init = || {
            peak.fetch_max(live.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
            Acc(&live)
        };
        let out = Executor::new(1).par_fold(10_000, 16, init, |_, _| {}, |a, _| a);
        assert_eq!(peak.load(Ordering::Relaxed), 2, "the result and one chunk, not all 625");
        drop(out);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn threads_clamped_to_at_least_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(Executor::default_threads() >= 1);
    }

    #[test]
    fn par_fill_matches_serial_at_any_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut want = vec![0u64; 10_007];
        for (i, w) in want.iter_mut().enumerate() {
            *w = f(i);
        }
        for threads in [1, 2, 8, 32] {
            let mut got = vec![0u64; 10_007];
            Executor::new(threads).par_fill(&mut got, 61, f);
            assert_eq!(got, want, "{threads} threads diverged");
        }
    }

    #[test]
    fn par_fill_handles_empty_and_tiny() {
        let mut empty: [u32; 0] = [];
        Executor::new(4).par_fill(&mut empty, 8, |i| i as u32);
        let mut one = [99u32];
        Executor::new(4).par_fill(&mut one, 8, |i| i as u32);
        assert_eq!(one, [0]);
    }
}
