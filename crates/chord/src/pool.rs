//! Bounded recycling of ring-arena allocations.
//!
//! Steady-state epoch publishing retires one snapshot per churn batch;
//! without recycling, every retired ring's member/id/seek buffers
//! round-trip through the allocator just to be reallocated at nearly
//! the same size for the next delta application. [`RingArenaPool`] is a
//! bounded free-list the maintenance thread owns exclusively (no
//! locks): dismantled rings deposit their buffers, delta and full
//! builds withdraw the smallest one large enough, and past the bound
//! the oldest buffer is dropped, so the pool neither hoards a whole
//! history of arenas nor stays full of ones nothing asks for.

use crate::RingView;
use hieras_id::{Id, IdSpace};

/// Cumulative reuse counters of one pool — the source feeding the
/// `serve.epoch.arena_reuse.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Withdrawals served by a recycled buffer (no allocation).
    pub reused: u64,
    /// Buffers deposited while the pool had room.
    pub returned: u64,
    /// Deposits that cost a buffer: the pool was at capacity (its
    /// oldest buffer made way) or the buffer was not worth keeping.
    pub dropped: u64,
}

/// The three arena buffers of one ring — member indices, id arena,
/// seek index — withdrawn together for one build
/// ([`RingArenaPool::take_ring`], [`RingView::build_in`]). The default
/// is three unallocated buffers: a build into it allocates each at its
/// exact size.
#[derive(Debug, Default)]
pub struct RingArenas {
    pub(crate) members: Vec<u32>,
    pub(crate) member_ids: Vec<Id>,
    pub(crate) seek: Vec<u32>,
}

/// A bounded free-list of ring-arena buffers (`u32` index/seek arrays
/// and `Id` arenas), single-owner by design.
#[derive(Debug)]
pub struct RingArenaPool {
    u32s: Vec<Vec<u32>>,
    ids: Vec<Vec<Id>>,
    /// Max buffers retained per element type; 0 disables the pool.
    cap: usize,
    stats: ArenaPoolStats,
}

impl RingArenaPool {
    /// A pool retaining at most `cap` buffers of each element type.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        RingArenaPool { u32s: Vec::new(), ids: Vec::new(), cap, stats: ArenaPoolStats::default() }
    }

    /// A pool that never retains anything — every take allocates fresh
    /// and every put drops. The zero-state callers without a recycling
    /// loop pass through the pooled build paths.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Withdraws a cleared `u32` buffer with capacity ≥ `min`, or
    /// allocates one.
    pub fn take_u32(&mut self, min: usize) -> Vec<u32> {
        Self::take(&mut self.u32s, &mut self.stats, min)
    }

    /// Withdraws a cleared `Id` buffer with capacity ≥ `min`, or
    /// allocates one.
    pub fn take_ids(&mut self, min: usize) -> Vec<Id> {
        Self::take(&mut self.ids, &mut self.stats, min)
    }

    /// Best fit: the smallest held buffer that takes `min` entries, so
    /// a ring's member arena never strands the (larger) seek-index
    /// request that follows it.
    fn take<T>(held: &mut Vec<Vec<T>>, stats: &mut ArenaPoolStats, min: usize) -> Vec<T> {
        let fit = (0..held.len())
            .filter(|&i| held[i].capacity() >= min)
            .min_by_key(|&i| held[i].capacity());
        match fit {
            Some(i) => {
                stats.reused += 1;
                let mut b = held.remove(i);
                b.clear();
                b
            }
            None => Vec::with_capacity(min),
        }
    }

    /// Withdraws the arenas of a `len`-member ring over `space`: the
    /// member buffer, then the id arena, then the (larger) seek index,
    /// each the best fit the pool holds.
    pub fn take_ring(&mut self, space: IdSpace, len: usize) -> RingArenas {
        RingArenas {
            members: self.take_u32(len),
            member_ids: self.take_ids(len),
            seek: self.take_u32(RingView::seek_len(space, len)),
        }
    }

    /// Deposits a `u32` buffer for reuse (see [`RingArenaPool::put_ids`]).
    pub fn put_u32(&mut self, buf: Vec<u32>) {
        Self::put(&mut self.u32s, &mut self.stats, self.cap, buf);
    }

    /// Deposits an `Id` buffer for reuse. A capacity-less buffer is
    /// dropped; at the bound the oldest held buffer makes way, so what
    /// a full rebuild retired with nothing drawn against it ages out
    /// instead of occupying the pool for good.
    pub fn put_ids(&mut self, buf: Vec<Id>) {
        Self::put(&mut self.ids, &mut self.stats, self.cap, buf);
    }

    fn put<T>(held: &mut Vec<Vec<T>>, stats: &mut ArenaPoolStats, cap: usize, buf: Vec<T>) {
        if buf.capacity() == 0 || cap == 0 {
            stats.dropped += 1;
            return;
        }
        if held.len() == cap {
            stats.dropped += 1;
            held.remove(0);
        } else {
            stats.returned += 1;
        }
        held.push(buf);
    }

    /// Buffers currently held, across both free-lists.
    #[must_use]
    pub fn held(&self) -> usize {
        self.u32s.len() + self.ids.len()
    }

    /// Cumulative reuse counters.
    #[must_use]
    pub fn stats(&self) -> ArenaPoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_buffers_up_to_capacity() {
        let mut pool = RingArenaPool::new(2);
        pool.put_u32(Vec::with_capacity(64));
        pool.put_u32(Vec::with_capacity(16));
        pool.put_u32(Vec::with_capacity(32)); // over cap: the 64 goes
        assert_eq!(pool.stats(), ArenaPoolStats { reused: 0, returned: 2, dropped: 1 });
        // Wants 20 slots: the 16-cap buffer is skipped, the 32 serves.
        let b = pool.take_u32(20);
        assert!(b.capacity() == 32 && b.is_empty());
        assert_eq!(pool.stats().reused, 1);
        // Nothing big enough left: fresh allocation, no reuse counted.
        let c = pool.take_u32(999);
        assert!(c.capacity() >= 999);
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.held(), 1);
    }

    /// A ring's delta draws a member arena, an id arena and then the
    /// (larger) seek index. Whatever order the retired buffers came
    /// back in, each request must get the buffer that fits it, not a
    /// bigger one a later request needs, and nothing may reallocate.
    #[test]
    fn seek_sized_request_gets_the_fitting_buffer_without_reallocating() {
        let (members, seek) = (5_000usize, 8_193usize);
        for seek_first in [false, true] {
            let mut pool = RingArenaPool::new(4);
            let mut retired = [Vec::<u32>::with_capacity(members), Vec::with_capacity(seek)];
            if seek_first {
                retired.reverse();
            }
            let seek_ptr = retired.iter().find(|b| b.capacity() == seek).unwrap().as_ptr();
            pool.put_u32(Vec::with_capacity(16));
            retired.into_iter().for_each(|b| pool.put_u32(b));
            let m = pool.take_u32(members - 2);
            assert_eq!(m.capacity(), members, "the member request took the seek buffer");
            let mut s = pool.take_u32(seek);
            assert_eq!((s.as_ptr(), s.capacity()), (seek_ptr, seek));
            s.resize(seek, 0);
            assert_eq!(s.as_ptr(), seek_ptr, "filling the seek index reallocated");
            assert_eq!(pool.stats().reused, 2);
            assert_eq!(pool.held(), 1, "the 16-slot buffer fits neither request");
        }
    }

    #[test]
    fn a_full_pool_lets_its_oldest_buffer_go() {
        let mut pool = RingArenaPool::new(2);
        pool.put_ids(Vec::with_capacity(64));
        pool.put_ids(Vec::with_capacity(4));
        pool.put_ids(Vec::with_capacity(8)); // the 64 makes way
        assert_eq!(pool.stats(), ArenaPoolStats { reused: 0, returned: 2, dropped: 1 });
        assert_eq!(pool.take_ids(9).capacity(), 9, "nothing held fits: allocated");
        assert_eq!(pool.take_ids(3).capacity(), 4);
        pool.put_ids(Vec::with_capacity(16)); // room again: nothing goes
        assert_eq!(pool.take_ids(5).capacity(), 8);
        assert_eq!(pool.take_ids(5).capacity(), 16);
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn disabled_pool_never_retains() {
        let mut pool = RingArenaPool::disabled();
        pool.put_ids(Vec::with_capacity(8));
        assert_eq!(pool.held(), 0);
        assert_eq!(pool.stats().dropped, 1);
        let b = pool.take_ids(4);
        assert!(b.capacity() >= 4);
        assert_eq!(pool.stats().reused, 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = RingArenaPool::new(4);
        pool.put_u32(Vec::new());
        assert_eq!(pool.held(), 0, "an unallocated buffer is worthless to recycle");
    }
}
