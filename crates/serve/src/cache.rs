//! Popularity-aware hot-key result cache for the serve reader path.
//!
//! Real DHT traffic is Zipf-skewed: a handful of keys draw a large
//! share of lookups (DistHash replicates popular objects for exactly
//! this reason). A reader that remembers "key → owner" for those keys
//! answers them with a single direct hop instead of a multi-layer
//! route — and because the latency oracle speaks shortest-path RTTs,
//! the direct hop never costs more than the routed path.
//!
//! The design is a per-reader, allocation-free (on the lookup path)
//! **direct-mapped + small-LRU hybrid**:
//!
//! * A power-of-two array of direct-mapped slots indexed by a hash of
//!   the key — one probe, no pointer chasing.
//! * A small LRU victim array catching keys a slot collision would
//!   otherwise thrash — linear probe over a handful of entries,
//!   move-to-front on hit.
//! * A byte-wide frequency sketch gating **admission**: a key only
//!   displaces a live entry once it has been seen at least
//!   `ADMIT_MIN` times (and at least as often as the incumbent), so a
//!   uniform scan cannot evict the hot head. The sketch halves itself
//!   periodically, aging out stale popularity.
//!
//! The geometry is fixed — 1024 direct slots, a 16-entry LRU, a
//! 4096-counter sketch halved every 8192 inserts; [`CacheConfig`]
//! only switches the cache on and picks the verification mode.
//!
//! **Staleness is impossible by construction.** Every entry is tagged
//! with the [`crate::ServeSnapshot`] checksum it was learned under —
//! the checksum binds the epoch *and* the live membership — and a
//! probe only hits on a tag match against the snapshot currently
//! pinned by the reader. An epoch advance therefore invalidates the
//! whole cache wholesale: no entry learned before a publish can
//! answer after it. [`CacheConfig::verify`] additionally re-routes
//! every hit and asserts the cached owner (and its lowest-layer ring)
//! against the authoritative route — the mode the stale-hit tests and
//! the bench's `cache_verified` flag run under.

use hieras_rt::splitmix64;

/// log2 of the direct-mapped slot count.
const SLOTS_POW: u32 = 10;
/// Entries in the LRU victim array.
const LRU_LEN: usize = 16;
/// Sightings (sketch estimate) a key needs before it may displace a
/// live entry. Fresh or stale slots are filled unconditionally.
const ADMIT_MIN: u8 = 2;
/// log2 of the frequency-sketch counter count.
const SKETCH_POW: u32 = 12;
/// Inserts between sketch halvings (popularity aging).
const HALVE_EVERY: u32 = 8192;

/// Knobs of the reader-side lookup cache. `off()` (the default) keeps
/// every serving path byte-identical to the pre-cache engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch. Disabled, the cache allocates nothing and the
    /// lookup path takes one predictable branch.
    pub enabled: bool,
    /// Re-route every hit and assert the cached owner equals the
    /// authoritative one — the correctness-proof mode.
    pub verify: bool,
}

impl CacheConfig {
    /// Cache disabled (the default).
    #[must_use]
    pub fn off() -> Self {
        CacheConfig { enabled: false, verify: false }
    }

    /// Cache enabled.
    #[must_use]
    pub fn on() -> Self {
        CacheConfig { enabled: true, ..CacheConfig::off() }
    }

    /// The same configuration with hit verification on.
    #[must_use]
    pub fn verified(mut self) -> Self {
        self.verify = true;
        self
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::off()
    }
}

/// Hit/miss/admission counters of one cache (merged across chunks or
/// readers by the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a live entry.
    pub hits: u64,
    /// Probes that fell through to a full route.
    pub misses: u64,
    /// Entries written (fresh fills and displacements).
    pub admits: u64,
    /// Wholesale invalidations — one per snapshot-checksum change.
    pub invalidations: u64,
}

impl CacheStats {
    /// Element-wise sum.
    #[must_use]
    pub fn merged(self, o: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            admits: self.admits + o.admits,
            invalidations: self.invalidations + o.invalidations,
        }
    }

    /// Hits over probes, 0.0 when nothing was probed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached answer: the key, the owner it routed to, the owner's
/// lowest-layer ring, all bound to the snapshot checksum the route ran
/// under. `tag == 0` doubles as "empty" (a real checksum is a
/// splitmix64 chain — zero in practice never occurs, and a zero tag
/// merely misses).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    key: u64,
    owner: u32,
    ring: u32,
}

/// The direct-mapped + LRU hybrid. One per reader (free-running) or
/// per executor chunk (deterministic modes — a chunk-fresh cache keeps
/// the fold bit-identical at any thread count).
#[derive(Debug, Clone)]
pub struct LookupCache {
    cfg: CacheConfig,
    slot_mask: u64,
    slots: Vec<Entry>,
    lru: Vec<Entry>,
    sketch: Vec<u8>,
    ops: u32,
    /// Checksum of the snapshot entries are currently valid under.
    bound: u64,
    /// Counters, drained by the engine at merge time.
    pub stats: CacheStats,
}

impl LookupCache {
    /// Allocates the cache (or an empty shell when disabled). All
    /// allocation happens here — the probe/insert path never touches
    /// the heap.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_geometry(cfg, SLOTS_POW, LRU_LEN)
    }

    /// [`LookupCache::new`] over `2^slots_pow` direct slots and a
    /// `lru_len`-entry LRU (the collision tests shrink the table).
    fn with_geometry(cfg: CacheConfig, slots_pow: u32, lru_len: usize) -> Self {
        let (slots, lru, sketch) = if cfg.enabled {
            (
                vec![Entry::default(); 1usize << slots_pow],
                vec![Entry::default(); lru_len],
                vec![0u8; 1usize << SKETCH_POW],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        LookupCache {
            cfg,
            slot_mask: (1u64 << slots_pow) - 1,
            slots,
            lru,
            sketch,
            ops: 0,
            bound: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether probes can ever hit.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether hits must be re-verified against a full route.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.cfg.verify
    }

    /// Binds the cache to the snapshot identified by `checksum`.
    /// A change invalidates every entry wholesale: old tags can no
    /// longer match, so no answer learned before the publish survives
    /// it. Cheap — no memory is touched.
    pub fn bind(&mut self, checksum: u64) {
        if self.cfg.enabled && self.bound != checksum {
            if self.bound != 0 {
                self.stats.invalidations += 1;
            }
            self.bound = checksum;
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (splitmix64(key) & self.slot_mask) as usize
    }

    /// Probes for `key` under the bound snapshot. A hit returns the
    /// cached `(owner, owner_ring)`.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<(u32, u32)> {
        debug_assert!(self.cfg.enabled, "probe on a disabled cache");
        let s = self.slot_of(key);
        let e = self.slots[s];
        if e.tag == self.bound && e.key == key {
            self.stats.hits += 1;
            return Some((e.owner, e.ring));
        }
        for i in 0..self.lru.len() {
            let v = self.lru[i];
            if v.tag == self.bound && v.key == key {
                // Move-to-front: the victim array is tiny, rotation is
                // a handful of register moves.
                self.lru.copy_within(0..i, 1);
                self.lru[0] = v;
                self.stats.hits += 1;
                return Some((v.owner, v.ring));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Offers a freshly routed answer. Fresh or stale slots are filled
    /// unconditionally; a live incumbent is displaced (demoted to the
    /// LRU front) only once the sketch says the new key is at least as
    /// popular and has been seen `ADMIT_MIN` times — uniform traffic
    /// therefore cannot thrash the hot head.
    #[inline]
    pub fn insert(&mut self, key: u64, owner: u32, ring: u32) {
        debug_assert!(self.cfg.enabled, "insert on a disabled cache");
        self.age();
        let freq = {
            let c = self.sketch_index(key);
            self.sketch[c] = self.sketch[c].saturating_add(1);
            self.sketch[c]
        };
        let s = self.slot_of(key);
        let e = self.slots[s];
        let entry = Entry { tag: self.bound, key, owner, ring };
        if e.tag != self.bound {
            self.slots[s] = entry;
            self.stats.admits += 1;
            return;
        }
        let incumbent = self.sketch_index(e.key);
        if freq >= ADMIT_MIN && freq >= self.sketch[incumbent] {
            // Demote the incumbent to the LRU front rather than
            // dropping it — a slot collision between two hot keys
            // keeps both answerable.
            if !self.lru.is_empty() {
                let last = self.lru.len() - 1;
                self.lru.copy_within(0..last, 1);
                self.lru[0] = e;
            }
            self.slots[s] = entry;
            self.stats.admits += 1;
        }
    }

    #[inline]
    fn sketch_index(&self, key: u64) -> usize {
        (splitmix64(key ^ 0x5ce7_c4f2_9b1d_7e55) & ((1u64 << SKETCH_POW) - 1)) as usize
    }

    /// Periodic popularity aging: halve every sketch counter.
    #[inline]
    fn age(&mut self) {
        self.ops += 1;
        if self.ops >= HALVE_EVERY {
            self.ops = 0;
            for c in &mut self.sketch {
                *c >>= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_sim::{SkewParams, Workload, WorkloadModel};

    const SUM: u64 = 0xabcd_ef01_2345_6789;

    #[test]
    fn disabled_cache_allocates_nothing() {
        let c = LookupCache::new(CacheConfig::off());
        assert!(!c.enabled());
        assert_eq!(c.slots.capacity(), 0);
        assert_eq!(c.sketch.capacity(), 0);
    }

    #[test]
    fn fills_fresh_slots_and_hits_them() {
        let mut c = LookupCache::new(CacheConfig::on());
        c.bind(SUM);
        assert_eq!(c.get(7), None);
        c.insert(7, 42, 3);
        assert_eq!(c.get(7), Some((42, 3)));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.admits, 1);
    }

    #[test]
    fn epoch_advance_invalidates_wholesale() {
        let mut c = LookupCache::new(CacheConfig::on());
        c.bind(SUM);
        c.insert(7, 42, 3);
        assert_eq!(c.get(7), Some((42, 3)));
        c.bind(SUM ^ 1);
        assert_eq!(c.get(7), None, "no entry survives a publish");
        assert_eq!(c.stats.invalidations, 1);
        // Rebinding the old checksum is a *new* epoch to the cache —
        // the entry was overwritten-by-tag, not restored.
        c.insert(7, 43, 2);
        assert_eq!(c.get(7), Some((43, 2)));
    }

    #[test]
    fn cold_keys_cannot_displace_a_live_entry() {
        let mut c = LookupCache::with_geometry(CacheConfig::on(), 0, 0);
        c.bind(SUM);
        // One slot: key A becomes resident and popular.
        c.insert(1, 10, 0);
        for _ in 0..4 {
            assert_eq!(c.get(1), Some((10, 0)));
            c.insert(1, 10, 0);
        }
        // A cold key seen once shares the slot but must not evict A.
        assert_eq!(c.get(2), None);
        c.insert(2, 20, 0);
        assert_eq!(c.get(1), Some((10, 0)), "hot entry survived the scan");
    }

    #[test]
    fn popular_key_displaces_into_lru_not_oblivion() {
        let mut c = LookupCache::with_geometry(CacheConfig::on(), 0, 4);
        c.bind(SUM);
        c.insert(1, 10, 0);
        // Key 2 reaches the admission threshold and takes the slot;
        // key 1 demotes into the LRU and stays answerable.
        c.insert(2, 20, 0);
        c.insert(2, 20, 0);
        assert_eq!(c.get(2), Some((20, 0)));
        assert_eq!(c.get(1), Some((10, 0)), "displaced entry lives in the LRU");
    }

    /// The admission sketch and the LRU earn their keep: on Zipf(0.99)
    /// traffic the cache hits clearly more often than a plain
    /// direct-mapped, always-overwrite table of the same slots and
    /// hash. (That plain table on `serve_hot5k` raised
    /// `route_hops_mean` 4.225 → 4.463 and `route_ms_p50` 585 → 705.)
    #[test]
    fn zipf_hit_rate_beats_plain_direct_mapped() {
        let zipf = WorkloadModel::Skew(SkewParams::zipf(0.99));
        let w = Workload::with_model(1_000, 50_000, 1, zipf);
        let mut c = LookupCache::new(CacheConfig::on());
        c.bind(SUM);
        let mut plain: Vec<Option<u64>> = vec![None; 1 << SLOTS_POW];
        let mut plain_hits = 0u64;
        for (_, key) in w.iter() {
            if c.get(key.0).is_none() {
                c.insert(key.0, 0, 0);
            }
            let s = c.slot_of(key.0);
            if plain[s] == Some(key.0) {
                plain_hits += 1;
            } else {
                plain[s] = Some(key.0);
            }
        }
        let (ours, plain) = (c.stats.hit_rate(), plain_hits as f64 / w.requests as f64);
        println!("hit rate: cache {ours:.3}, plain direct-mapped {plain:.3}");
        assert!(ours >= plain + 0.03, "cache {ours:.3} vs plain direct-mapped {plain:.3}");
    }

    #[test]
    fn stats_merge_and_rate() {
        let a = CacheStats { hits: 3, misses: 1, admits: 2, invalidations: 0 };
        let b = CacheStats { hits: 1, misses: 3, admits: 1, invalidations: 2 };
        let m = a.merged(b);
        assert_eq!(m.hits, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(m.invalidations, 2);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
