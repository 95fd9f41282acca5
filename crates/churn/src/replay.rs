//! Membership replay decoupled from the event loop.
//!
//! [`crate::run_churn`] drives a [`hieras_sim::ChurnSchedule`] through
//! the full discrete-event simulator — message delays, retries,
//! reconciliation. The live serving engine needs something much
//! smaller: *which peers are alive after the next K events*, so the
//! maintenance thread can rebuild a snapshot per epoch without paying
//! for a `SimNet`. [`MembershipReplay`] is that cursor: it owns a
//! live-bit per node and applies schedule events in time order, a
//! bounded batch at a time.

use hieras_sim::{ChurnEventKind, ChurnSchedule, SimClock};

/// What one [`MembershipReplay::apply_next`] batch did to the overlay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayDelta {
    /// Events consumed from the schedule (≤ the requested batch size).
    pub applied: usize,
    /// Nodes that came up.
    pub joins: u32,
    /// Graceful departures applied.
    pub leaves: u32,
    /// Silent failures applied.
    pub fails: u32,
    /// Departures *refused* because they would have emptied the
    /// overlay — a one-node ring cannot lose its last member.
    pub refused: u32,
    /// Schedule time of the last applied event, ms.
    pub now_ms: SimClock,
    /// True once the schedule is exhausted.
    pub done: bool,
}

impl ReplayDelta {
    /// True when the batch changed the membership at all.
    #[must_use]
    pub fn changed(&self) -> bool {
        self.joins + self.leaves + self.fails > 0
    }
}

/// A cursor over a churn schedule that tracks only liveness.
///
/// Nodes `0..initial_nodes` start live; arrivals start dead and come
/// up at their `Join` event. Events apply in schedule (time) order.
#[derive(Debug, Clone)]
pub struct MembershipReplay {
    schedule: ChurnSchedule,
    /// Index of the next unapplied event.
    next: usize,
    live: Vec<bool>,
    live_count: u32,
    now_ms: SimClock,
}

impl MembershipReplay {
    /// Creates the cursor at time zero with `initial_nodes` live.
    ///
    /// # Panics
    /// Panics if `initial_nodes` is zero or exceeds the schedule's
    /// node universe.
    #[must_use]
    pub fn new(initial_nodes: u32, schedule: ChurnSchedule) -> Self {
        assert!(initial_nodes > 0, "overlay cannot start empty");
        assert!(
            initial_nodes <= schedule.nodes_total,
            "initial nodes exceed the schedule's universe"
        );
        let mut live = vec![false; schedule.nodes_total as usize];
        for slot in live.iter_mut().take(initial_nodes as usize) {
            *slot = true;
        }
        MembershipReplay { schedule, next: 0, live, live_count: initial_nodes, now_ms: 0 }
    }

    /// Applies up to `max_events` further events and reports what
    /// changed. A departure that would drop the last live node is
    /// skipped (counted in [`ReplayDelta::refused`]) — the overlay
    /// never empties.
    pub fn apply_next(&mut self, max_events: usize) -> ReplayDelta {
        self.apply_core(max_events, None)
    }

    /// Like [`MembershipReplay::apply_next`], but also records the
    /// batch's *net* membership movement into `joined` / `departed`
    /// (both cleared first): a node that came up and went down within
    /// one batch appears in neither list. This is exactly the delta
    /// shape incremental snapshot maintenance consumes.
    pub fn apply_next_recording(
        &mut self,
        max_events: usize,
        joined: &mut Vec<u32>,
        departed: &mut Vec<u32>,
    ) -> ReplayDelta {
        joined.clear();
        departed.clear();
        self.apply_core(max_events, Some((joined, departed)))
    }

    fn apply_core(
        &mut self,
        max_events: usize,
        mut rec: Option<(&mut Vec<u32>, &mut Vec<u32>)>,
    ) -> ReplayDelta {
        let mut delta = ReplayDelta { now_ms: self.now_ms, ..ReplayDelta::default() };
        while delta.applied < max_events {
            let Some(ev) = self.schedule.events.get(self.next) else {
                break;
            };
            self.next += 1;
            delta.applied += 1;
            delta.now_ms = ev.at;
            let node = ev.kind.node();
            match ev.kind {
                ChurnEventKind::Join { .. } => {
                    if !self.live[node as usize] {
                        self.live[node as usize] = true;
                        self.live_count += 1;
                        delta.joins += 1;
                        if let Some((joined, departed)) = rec.as_mut() {
                            // A rejoin inside the batch cancels out.
                            if let Some(i) = departed.iter().position(|&d| d == node) {
                                departed.swap_remove(i);
                            } else {
                                joined.push(node);
                            }
                        }
                    }
                }
                ChurnEventKind::Leave { .. } | ChurnEventKind::Fail { .. } => {
                    if !self.live[node as usize] {
                        continue;
                    }
                    if self.live_count == 1 {
                        delta.refused += 1;
                        continue;
                    }
                    self.live[node as usize] = false;
                    self.live_count -= 1;
                    if matches!(ev.kind, ChurnEventKind::Leave { .. }) {
                        delta.leaves += 1;
                    } else {
                        delta.fails += 1;
                    }
                    if let Some((joined, departed)) = rec.as_mut() {
                        if let Some(i) = joined.iter().position(|&j| j == node) {
                            joined.swap_remove(i);
                        } else {
                            departed.push(node);
                        }
                    }
                }
            }
        }
        self.now_ms = delta.now_ms;
        delta.done = self.next >= self.schedule.events.len();
        delta
    }

    /// Schedule time of the next unapplied event, or `None` when the
    /// schedule is exhausted — what a paced maintainer sleeps towards.
    #[must_use]
    pub fn next_event_at(&self) -> Option<SimClock> {
        self.schedule.events.get(self.next).map(|e| e.at)
    }

    /// Live node indices, ascending — the membership a snapshot builds
    /// from.
    #[must_use]
    pub fn live_members(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.live_count as usize);
        for (i, &alive) in self.live.iter().enumerate() {
            if alive {
                out.push(i as u32);
            }
        }
        out
    }

    /// Whether node `node` is currently live.
    #[must_use]
    pub fn is_live(&self, node: u32) -> bool {
        self.live.get(node as usize).copied().unwrap_or(false)
    }

    /// Number of live nodes.
    #[must_use]
    pub fn live_count(&self) -> u32 {
        self.live_count
    }

    /// Schedule time of the last applied event, ms.
    #[must_use]
    pub fn now_ms(&self) -> SimClock {
        self.now_ms
    }

    /// True once every event has been applied.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.schedule.events.len()
    }

    /// Events not yet applied.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.schedule.events.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_sim::{ChurnConfig, Lifetime};

    fn schedule(initial: u32, arrivals: u32, horizon: SimClock) -> ChurnSchedule {
        ChurnConfig {
            initial_nodes: initial,
            arrivals,
            inter_arrival: Lifetime::Fixed { ms: 200 },
            lifetime: Lifetime::Exponential { mean_ms: 2_000.0 },
            graceful_fraction: 0.5,
            horizon_ms: horizon,
            seed: 0xc0ffee,
        }
        .schedule()
    }

    #[test]
    fn replay_tracks_live_set_through_full_schedule() {
        let sched = schedule(30, 10, 10_000);
        let mut replay = MembershipReplay::new(30, sched.clone());
        assert_eq!(replay.live_count(), 30);
        assert_eq!(replay.live_members().len(), 30);
        let mut joins = 0u32;
        let mut departures = 0u32;
        loop {
            let d = replay.apply_next(7);
            joins += d.joins;
            departures += d.leaves + d.fails;
            assert_eq!(
                replay.live_members().len() as u32,
                replay.live_count(),
                "live list and count must agree"
            );
            if d.done {
                break;
            }
        }
        assert!(replay.is_done());
        assert_eq!(replay.remaining(), 0);
        assert_eq!(joins, 10, "every arrival joins inside the horizon");
        assert!(departures > 0, "the exponential lifetimes must kill someone");
        assert_eq!(replay.live_count(), 30 + joins - departures);
        // Time advanced monotonically to within the horizon.
        assert!(replay.now_ms() > 0 && replay.now_ms() <= 10_000);
        // Replays are deterministic: a second pass lands identically.
        let mut again = MembershipReplay::new(30, sched);
        while !again.apply_next(usize::MAX).done {}
        assert_eq!(again.live_members(), replay.live_members());
    }

    #[test]
    fn batches_respect_the_event_budget() {
        let sched = schedule(20, 5, 8_000);
        let total = sched.events.len();
        let mut replay = MembershipReplay::new(20, sched);
        let d = replay.apply_next(3);
        assert_eq!(d.applied, 3.min(total));
        assert_eq!(replay.remaining(), total - d.applied);
    }

    #[test]
    fn recording_replay_tracks_net_movement() {
        let sched = schedule(25, 8, 10_000);
        let mut plain = MembershipReplay::new(25, sched.clone());
        let mut rec = MembershipReplay::new(25, sched);
        let mut joined = Vec::new();
        let mut departed = Vec::new();
        loop {
            let before = rec.live_members();
            let d1 = plain.apply_next(5);
            let d2 = rec.apply_next_recording(5, &mut joined, &mut departed);
            assert_eq!(d1, d2, "recording must not change replay semantics");
            // Net movement applied to the pre-batch membership must
            // reproduce the post-batch membership.
            let mut expect = before;
            expect.retain(|m| !departed.contains(m));
            expect.extend_from_slice(&joined);
            expect.sort_unstable();
            assert_eq!(expect, rec.live_members());
            // Net lists never overlap.
            assert!(joined.iter().all(|j| !departed.contains(j)));
            if d2.done {
                break;
            }
        }
        assert_eq!(plain.live_members(), rec.live_members());
    }

    #[test]
    fn next_event_at_walks_the_schedule() {
        let sched = schedule(10, 3, 5_000);
        let first = sched.events.first().map(|e| e.at);
        let mut replay = MembershipReplay::new(10, sched);
        assert_eq!(replay.next_event_at(), first);
        while !replay.apply_next(1).done {
            let at = replay.next_event_at().expect("events remain");
            assert!(at >= replay.now_ms(), "schedule is time-ordered");
        }
        assert_eq!(replay.next_event_at(), None);
    }

    #[test]
    fn never_drops_the_last_live_node() {
        // One initial node with a finite lifetime: its departure must
        // be refused, not applied.
        let sched = ChurnConfig {
            initial_nodes: 1,
            arrivals: 0,
            inter_arrival: Lifetime::Fixed { ms: 100 },
            lifetime: Lifetime::Fixed { ms: 50 },
            graceful_fraction: 1.0,
            horizon_ms: 1_000,
            seed: 7,
        }
        .schedule();
        let mut replay = MembershipReplay::new(1, sched);
        let d = replay.apply_next(usize::MAX);
        assert!(d.refused >= 1, "last-node departure must be refused");
        assert_eq!(replay.live_count(), 1);
        assert!(replay.is_live(0));
    }
}
