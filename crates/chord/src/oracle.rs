//! Oracle-mode Chord: packed routing state over a known membership.
//!
//! [`RingView`] is the workhorse shared by plain Chord and every HIERAS
//! layer: given the global id table and a *subset* of node indices, it
//! sorts the subset into a ring and routes keys with the standard Chord
//! iterative algorithm (`closest_preceding_finger` + final delivery hop
//! to the successor).
//!
//! Routing state is *compact*: instead of materializing a `bits`-entry
//! finger table per member (O(len·bits) words, cache-hostile at a
//! million peers), the ring keeps one contiguous, ring-ordered id arena
//! plus a radix *seek index* — a binary-lift jump structure that
//! answers `successor(id)` with one bucketed binary search. The
//! classic `closest_preceding_finger` is then evaluated in closed form:
//! the accepted finger with the highest index is always
//! `successor(me + 2^⌊log2 d(q)⌋)` where `q` is the key's ring
//! predecessor, so routing never needs the table at all and produces
//! hop sequences byte-identical to the per-node tables it replaces.

use crate::{PathBuf, RingArenaPool};
use hieras_id::{Id, IdSpace, Key};
use hieras_rt::{fingerprint, fingerprint_u32, splitmix64, Executor};
use std::sync::{Arc, OnceLock};

/// Errors constructing a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingBuildError {
    /// The member list was empty.
    Empty,
    /// Two members share the same identifier (SHA-1 collision or a
    /// duplicated index); the ring would be ambiguous.
    DuplicateId(Id),
    /// A member index exceeded the id table.
    BadIndex(u32),
    /// An id had bits outside the ring's identifier space.
    OutOfSpace(Id),
    /// A delta tried to remove a node that is not a member of the ring.
    NotAMember(u32),
}

impl core::fmt::Display for RingBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RingBuildError::Empty => write!(f, "cannot build a ring with no members"),
            RingBuildError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
            RingBuildError::BadIndex(i) => write!(f, "member index {i} out of range"),
            RingBuildError::OutOfSpace(id) => write!(f, "id {id} outside identifier space"),
            RingBuildError::NotAMember(i) => write!(f, "node {i} is not a ring member"),
        }
    }
}

impl std::error::Error for RingBuildError {}

/// Chord routing over an arbitrary membership subset, packed flat.
///
/// Members are positions `0..len` ordered by id; position arithmetic is
/// mod `len`, id arithmetic is mod `2^bits`. State is three contiguous
/// arrays — member indices, the ring-ordered id arena, and the radix
/// seek index — totalling ~12 bytes per member plus ~4 bytes per seek
/// bucket, versus `8·bits` bytes per member for materialized finger
/// tables (hot-path friendly, per the hpc-parallel guides).
#[derive(Debug, Clone)]
pub struct RingView {
    space: IdSpace,
    /// Global id table (index = global node index).
    ids: Arc<[Id]>,
    /// Member global indices, sorted ascending by id.
    members: Vec<u32>,
    /// Ring-ordered id arena: `member_ids[pos]` = id of the member at
    /// `pos`. One contiguous allocation; every routing probe streams
    /// through this array instead of chasing `ids[members[pos]]`.
    member_ids: Vec<Id>,
    /// Radix seek index: `seek[b]` = first position whose id has high
    /// bits ≥ `b` (bucket = id >> seek_shift), `seek[buckets]` = len.
    /// Bounds `successor(id)` to a binary search inside one bucket.
    seek: Vec<u32>,
    /// `bits - log2(buckets)`: right-shift mapping an id to its bucket.
    seek_shift: u32,
    /// [`RingView::arena_digest`], computed on first use. A ring is
    /// immutable, so the value lives and dies with these arenas.
    digest: OnceLock<u64>,
}

/// Packed-state equality: two rings are equal when every routing-
/// visible array matches byte for byte (the id-table handle may
/// differ; only its contents under the members matter, and those are
/// pinned by `member_ids`). This is the identity the delta path is
/// CI-gated on against full rebuilds.
impl PartialEq for RingView {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.seek_shift == other.seek_shift
            && self.members == other.members
            && self.member_ids == other.member_ids
            && self.seek == other.seek
    }
}

impl Eq for RingView {}

impl RingView {
    /// Arena entries below which the build fills serially: a single
    /// parallel dispatch costs more than computing this many entries
    /// outright.
    const PAR_ARENA_THRESHOLD: usize = 1 << 16;

    /// Entries per parallel fill chunk (enough work to amortize the
    /// chunk claim, small enough to balance).
    const PAR_ARENA_CHUNK: usize = 8192;

    /// Cap on seek-index resolution: 2^21 buckets (8 MB) is past the
    /// point where buckets average fewer than one member each.
    const MAX_SEEK_BITS: u32 = 21;

    /// Builds a ring over `members` (global indices into `ids`).
    ///
    /// # Errors
    /// See [`RingBuildError`].
    pub fn build(
        space: IdSpace,
        ids: Arc<[Id]>,
        members: &[u32],
    ) -> Result<Self, RingBuildError> {
        Self::build_on(&Executor::default(), space, ids, members)
    }

    /// [`RingView::build`] on a caller-supplied executor: the id arena
    /// of a large ring is filled in parallel. Each entry is a pure
    /// function of its index, so the packed state is bit-identical at
    /// any thread count. (The seek index is one serial counting pass:
    /// measured 11–20× faster than a parallel per-bucket binary search
    /// on 2 threads at 10⁵–10⁶ members, DESIGN.md §5.)
    ///
    /// # Errors
    /// See [`RingBuildError`].
    pub fn build_on(
        exec: &Executor,
        space: IdSpace,
        ids: Arc<[Id]>,
        members: &[u32],
    ) -> Result<Self, RingBuildError> {
        if members.is_empty() {
            return Err(RingBuildError::Empty);
        }
        for &m in members {
            let id = *ids.get(m as usize).ok_or(RingBuildError::BadIndex(m))?;
            if !space.contains(id) {
                return Err(RingBuildError::OutOfSpace(id));
            }
        }
        let mut sorted: Vec<u32> = members.to_vec();
        sorted.sort_unstable_by_key(|&m| ids[m as usize]);
        for w in sorted.windows(2) {
            if ids[w[0] as usize] == ids[w[1] as usize] {
                return Err(RingBuildError::DuplicateId(ids[w[0] as usize]));
            }
        }
        let members = sorted;
        let len = members.len();
        let parallel = exec.threads() > 1;
        // Ring-ordered id arena, one contiguous allocation.
        let mut member_ids = vec![Id(0); len];
        let id_entry = |j: usize| ids[members[j] as usize];
        if len >= Self::PAR_ARENA_THRESHOLD && parallel {
            exec.par_fill(&mut member_ids, Self::PAR_ARENA_CHUNK, id_entry);
        } else {
            for (j, slot) in member_ids.iter_mut().enumerate() {
                *slot = id_entry(j);
            }
        }
        let (seek, seek_shift) = Self::seek_index(space, &member_ids, Vec::new());
        Ok(RingView { space, ids, members, member_ids, seek, seek_shift, digest: OnceLock::new() })
    }

    /// log2 of the seek-bucket count of a `len`-member ring: about one
    /// bucket per member.
    fn seek_bits(space: IdSpace, len: usize) -> u32 {
        len.next_power_of_two().trailing_zeros().min(space.bits()).min(Self::MAX_SEEK_BITS)
    }

    /// Seek bucket of an in-space `id` (a one-bucket grid over the full
    /// 64-bit space shifts by 64: everything is bucket 0).
    fn bucket(id: Id, seek_shift: u32) -> usize {
        id.0.checked_shr(seek_shift).unwrap_or(0) as usize
    }

    /// Builds the radix seek index over a sorted id arena into `seek`
    /// (reusing its allocation when large enough): `seek[b]` is the
    /// number of members in buckets below `b`, so one branch-free pass
    /// counts each member into the entry after its bucket and a
    /// running sum finishes the table. The one seek builder — full
    /// builds call it, and a delta application either derives its
    /// index from an index built here or calls it.
    fn seek_index(space: IdSpace, member_ids: &[Id], mut seek: Vec<u32>) -> (Vec<u32>, u32) {
        let s = Self::seek_bits(space, member_ids.len());
        let seek_shift = space.bits() - s;
        seek.clear();
        seek.resize((1usize << s) + 1, 0);
        for &id in member_ids {
            seek[Self::bucket(id, seek_shift) + 1] += 1;
        }
        let mut below = 0u32;
        for entry in &mut seek {
            below += *entry;
            *entry = below;
        }
        (seek, seek_shift)
    }

    /// Applies a membership delta to this ring, producing a new ring
    /// **byte-identical** to a full [`RingView::build_on`] over the
    /// post-delta membership — without re-sorting or re-validating the
    /// surviving members. The survivors are copied run by run between
    /// the delta's change points (two `memcpy`s per run) and, while the
    /// ring's size stays between the same two powers of two, the seek
    /// index is the old one shifted by the running insert/remove
    /// balance: `O(|delta| log len)` decisions around an `O(len)`
    /// streaming copy, versus the full build's `O(len log len)` sort.
    /// The arenas come out of `pool` when a recycled buffer fits, so
    /// steady-state epochs stop allocating.
    ///
    /// `remove` lists current member nodes to drop; `insert` lists
    /// non-member nodes to add. A node may appear in both (drop then
    /// re-add — a no-op with the same id).
    ///
    /// # Errors
    /// [`RingBuildError::NotAMember`] for a removal that is not a
    /// member (or listed twice), [`RingBuildError::BadIndex`] /
    /// [`RingBuildError::OutOfSpace`] / [`RingBuildError::DuplicateId`]
    /// for invalid insertions, [`RingBuildError::Empty`] when the delta
    /// would empty the ring.
    pub fn apply_delta(&self, remove: &[u32], insert: &[u32]) -> Result<Self, RingBuildError> {
        self.apply_delta_on(remove, insert, &mut RingArenaPool::disabled())
    }

    /// [`RingView::apply_delta`] drawing its arenas from a caller-
    /// supplied pool (the serving maintainer's form).
    ///
    /// # Errors
    /// See [`RingView::apply_delta`].
    pub fn apply_delta_on(
        &self,
        remove: &[u32],
        insert: &[u32],
        pool: &mut RingArenaPool,
    ) -> Result<Self, RingBuildError> {
        // Validate and id-sort the insert batch.
        let mut ins: Vec<(Id, u32)> = Vec::with_capacity(insert.len());
        for &m in insert {
            let id = *self.ids.get(m as usize).ok_or(RingBuildError::BadIndex(m))?;
            if !self.space.contains(id) {
                return Err(RingBuildError::OutOfSpace(id));
            }
            ins.push((id, m));
        }
        ins.sort_unstable();
        for w in ins.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(RingBuildError::DuplicateId(w[0].0));
            }
        }
        // Resolve removals to ring positions.
        let mut rem_pos: Vec<u32> = Vec::with_capacity(remove.len());
        for &m in remove {
            rem_pos.push(self.position_of(m).ok_or(RingBuildError::NotAMember(m))?);
        }
        rem_pos.sort_unstable();
        for w in rem_pos.windows(2) {
            if w[0] == w[1] {
                return Err(RingBuildError::NotAMember(self.members[w[0] as usize]));
            }
        }
        let len = self.members.len();
        let new_len = len - rem_pos.len() + ins.len();
        if new_len == 0 {
            return Err(RingBuildError::Empty);
        }
        // Each insertion's slot: the old position it goes in front of.
        let slots: Vec<usize> = ins.iter().map(|&(id, _)| self.seek_pos(id)).collect();
        let seek_len = (1usize << Self::seek_bits(self.space, new_len)) + 1;
        let same_grid = seek_len == self.seek.len();
        let mut members = pool.take_u32(new_len);
        let mut member_ids = pool.take_ids(new_len);
        let mut seek = pool.take_u32(seek_len);
        // Walk the change points in id order. Up to each one the
        // survivors are one contiguous run of the old arenas — exactly
        // the id-sorted arrays a full build's sort would produce — and,
        // on an unchanged bucket grid, the seek entries up to the
        // change's bucket are the old ones plus `shift`, the inserts
        // minus the removals so far (`seek[b]` counts the members in
        // buckets below `b`).
        let (mut from, mut shift) = (0usize, 0u32);
        let (mut ri, mut ii) = (0usize, 0usize);
        while ri < rem_pos.len() || ii < ins.len() {
            // An insertion goes before a removal at the same slot.
            let inserting =
                ii < ins.len() && rem_pos.get(ri).is_none_or(|&r| slots[ii] <= r as usize);
            let to = if inserting { slots[ii] } else { rem_pos[ri] as usize };
            let id = if inserting { ins[ii].0 } else { self.member_ids[to] };
            members.extend_from_slice(&self.members[from..to]);
            member_ids.extend_from_slice(&self.member_ids[from..to]);
            let (done, b) = (seek.len(), Self::bucket(id, self.seek_shift));
            if same_grid && b >= done {
                seek.extend(self.seek[done..=b].iter().map(|&v| v.wrapping_add(shift)));
            }
            if inserting {
                // The slot's old occupant may share the id only if it
                // is the next removal (a drop-then-re-add).
                if self.member_ids.get(to) == Some(&id) && rem_pos.get(ri) != Some(&(to as u32)) {
                    return Err(RingBuildError::DuplicateId(id));
                }
                members.push(ins[ii].1);
                member_ids.push(id);
                (from, shift, ii) = (to, shift.wrapping_add(1), ii + 1);
            } else {
                (from, shift, ri) = (to + 1, shift.wrapping_sub(1), ri + 1);
            }
        }
        members.extend_from_slice(&self.members[from..]);
        member_ids.extend_from_slice(&self.member_ids[from..]);
        debug_assert_eq!(members.len(), new_len);
        let (seek, seek_shift) = if same_grid {
            let done = seek.len();
            seek.extend(self.seek[done..].iter().map(|&v| v.wrapping_add(shift)));
            (seek, self.seek_shift)
        } else {
            Self::seek_index(self.space, &member_ids, seek)
        };
        Ok(RingView {
            space: self.space,
            ids: Arc::clone(&self.ids),
            members,
            member_ids,
            seek,
            seek_shift,
            digest: OnceLock::new(),
        })
    }

    /// Order-sensitive digest of the packed routing state (member
    /// indices, id arena, seek index, seek shift) — a fingerprint the
    /// delta-vs-full identity gates chain across whole hierarchies.
    /// Hashed once per ring: a ring shared by many epochs answers from
    /// its cache.
    #[must_use]
    pub fn arena_digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let seed = 0x5ee4_a12e_5000_0000
                ^ u64::from(self.space.bits())
                ^ (self.members.len() as u64) << 8;
            let h = fingerprint_u32(seed, &self.members);
            let h = fingerprint(h, &self.member_ids, |id| id.0);
            let h = fingerprint_u32(h, &self.seek);
            splitmix64(h ^ u64::from(self.seek_shift))
        })
    }

    /// Dismantles this ring into `pool`, handing back its arena
    /// allocations for the next delta application to reuse. The id
    /// table handle simply drops (it is shared, never owned).
    pub fn recycle_into(self, pool: &mut RingArenaPool) {
        pool.put_u32(self.members);
        pool.put_ids(self.member_ids);
        pool.put_u32(self.seek);
    }

    /// Position of the first member with id ≥ `target`, or `len` when
    /// every id is smaller — `member_ids.partition_point(|&m| m <
    /// target)`, found by one seek-bucket lookup plus a binary search
    /// confined to that bucket.
    #[inline]
    fn seek_pos(&self, target: Id) -> usize {
        // Ids past the space (possible only for out-of-space queries)
        // clamp to the last bucket and resolve to position len, matching
        // a plain binary search over the whole arena.
        let b = Self::bucket(target, self.seek_shift).min(self.seek.len() - 2);
        let lo = self.seek[b] as usize;
        let hi = self.seek[b + 1] as usize;
        lo + self.member_ids[lo..hi].partition_point(|&m| m < target)
    }

    /// Position of the first member with id ≥ `target`, wrapping to 0 —
    /// `successor(target)` in Chord terms.
    #[inline]
    fn succ_pos(&self, target: Id) -> u32 {
        let p = self.seek_pos(target);
        if p == self.member_ids.len() {
            0
        } else {
            p as u32
        }
    }

    /// Id of the member at `pos`, read from the packed arena.
    #[inline]
    fn member_id(&self, pos: u32) -> Id {
        self.member_ids[pos as usize]
    }

    /// Bytes held by this ring's packed routing state (member indices,
    /// id arena, seek index).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.members.len() * core::mem::size_of::<u32>()
            + self.member_ids.len() * core::mem::size_of::<Id>()
            + self.seek.len() * core::mem::size_of::<u32>()
    }

    /// The identifier space of this ring.
    #[must_use]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: a ring has at least one member by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Member global indices in ring order.
    #[must_use]
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Global node index of the member at `pos`.
    #[must_use]
    pub fn node_at(&self, pos: u32) -> u32 {
        self.members[pos as usize]
    }

    /// Id of the member at `pos`.
    #[must_use]
    pub fn id_at(&self, pos: u32) -> Id {
        self.member_ids[pos as usize]
    }

    /// Ring position of global node `node`, if it is a member: the
    /// seek index's position for the node's id, when the member there
    /// holds that id and is that node.
    #[must_use]
    pub fn position_of(&self, node: u32) -> Option<u32> {
        let id = *self.ids.get(node as usize)?;
        let p = self.seek_pos(id);
        (self.member_ids.get(p) == Some(&id) && self.members[p] == node).then_some(p as u32)
    }

    /// Position of the ring successor of `key`: the member owning the key.
    #[must_use]
    pub fn successor_of_key(&self, key: Key) -> u32 {
        self.succ_pos(key)
    }

    /// Position of the i-th finger of the member at `pos`:
    /// successor(member_id + 2^i), computed on demand from the seek
    /// index (the packed representation stores no finger table).
    #[must_use]
    pub fn finger(&self, pos: u32, i: u32) -> u32 {
        self.succ_pos(self.space.finger_start(self.member_id(pos), i))
    }

    /// Ring successor (next member clockwise). Wraps with a compare, not
    /// a division: this runs on every hop.
    #[must_use]
    #[inline]
    pub fn successor(&self, pos: u32) -> u32 {
        let next = pos + 1;
        if next as usize == self.member_ids.len() {
            0
        } else {
            next
        }
    }

    /// Ring predecessor (previous member clockwise).
    #[must_use]
    #[inline]
    pub fn predecessor(&self, pos: u32) -> u32 {
        match pos {
            0 => self.member_ids.len() as u32 - 1,
            _ => pos - 1,
        }
    }

    /// The member of this ring whose finger table the Chord paper's
    /// `closest_preceding_finger(pos, key)` would return: the highest
    /// finger of `pos` lying strictly inside `(id(pos), key)`.
    ///
    /// Evaluated in closed form over the packed arena. Let `q` be the
    /// key's ring predecessor — the member maximizing clockwise
    /// distance `d(q)` from `pos` among members strictly inside the
    /// arc. The highest finger index with a member inside the arc is
    /// `i* = ⌊log2 d(q)⌋` (finger `i` lands on the first member at
    /// distance ≥ 2^i, and for `i > i*` that member is at or past the
    /// key), so the answer is `successor(me + 2^i*)` — identical to
    /// scanning a materialized table from the top.
    #[must_use]
    pub fn closest_preceding_finger(&self, pos: u32, key: Key) -> u32 {
        let q = self.predecessor(self.succ_pos(key));
        if q == pos {
            // No member strictly inside (id(pos), key): the table scan
            // would reject every finger and fall back to `pos`.
            return pos;
        }
        let me = self.member_id(pos);
        let dp = self.space.distance_cw(me, self.member_id(q));
        let i = 63 - dp.leading_zeros();
        self.succ_pos(self.space.finger_start(me, i))
    }

    /// Routes `key` from the member at `start`: clears `out` and fills
    /// it with the sequence of *positions* visited (starting with
    /// `start`, ending with the ring successor of `key`). Reusing one
    /// [`PathBuf`] across lookups keeps the replay hot path off the
    /// heap.
    ///
    /// Standard iterative Chord: forward to the closest preceding
    /// finger while the key lies beyond the current node's successor,
    /// then take the final delivery hop. Terminates in at most
    /// `O(log len)` hops for balanced rings; a hard cap of
    /// `len + bits` hops guards against table-construction bugs.
    pub fn route_into(&self, start: u32, key: Key, out: &mut PathBuf) {
        self.route_core(start, key, false, out);
    }

    /// The single iterative-routing core both public routes share.
    ///
    /// Both walk identically — forward to the closest preceding finger
    /// until the key lands in the next interval — and differ only at
    /// the stop: delivery (`to_predecessor == false`) takes the final
    /// hop to the key's owner, hand-off (`to_predecessor == true`)
    /// stops at (or steps back to) the owner's predecessor.
    ///
    /// The key's ring predecessor `q` (see
    /// [`RingView::closest_preceding_finger`]) does not depend on the
    /// current hop, so it is resolved once up front; each hop then
    /// costs one distance, one leading-zeros, and one seek-bounded
    /// binary search over the packed arena.
    fn route_core(&self, start: u32, key: Key, to_predecessor: bool, out: &mut PathBuf) {
        out.clear();
        out.push(start);
        let len = self.member_ids.len();
        let key_pred = self.predecessor(self.succ_pos(key));
        let mut cur = start;
        let cap = len + self.space.bits() as usize + 2;
        loop {
            assert!(out.len() <= cap, "routing did not terminate — seek index corrupt");
            // Ownership check via the predecessor pointer (the paper notes
            // "predecessor and successor lists can be used to accelerate
            // the process"): if the current node already owns the key,
            // stop immediately instead of routing the long way around.
            let pred = self.predecessor(cur);
            if self.space.in_open_closed(self.member_id(pred), self.member_id(cur), key) {
                // `cur` owns the key; `pred` closest-precedes it.
                if to_predecessor && pred != cur {
                    out.push(pred);
                }
                return;
            }
            let succ = self.successor(cur);
            if self.space.in_open_closed(self.member_id(cur), self.member_id(succ), key) {
                // Key owned by our successor; deliver (unless we own it:
                // a single-member ring has successor == self), or stop
                // here — `cur` is the closest preceding member.
                if !to_predecessor && succ != cur {
                    out.push(succ);
                }
                return;
            }
            // Closed-form closest preceding finger; when no member lies
            // strictly inside (id(cur), key) — i.e. cur is the key's
            // predecessor itself, already excluded by the stop checks —
            // fall forward to the successor like the table scan would.
            let next = if key_pred == cur {
                succ
            } else {
                let me = self.member_id(cur);
                let dp = self.space.distance_cw(me, self.member_id(key_pred));
                let i = 63 - dp.leading_zeros();
                self.succ_pos(self.space.finger_start(me, i))
            };
            out.push(next);
            cur = next;
        }
    }

    /// Routes `key` from the member at `start`, stopping at the closest
    /// *preceding* member of the key — the member whose
    /// `(id, successor-id]` interval contains it — instead of taking the
    /// final delivery hop.
    ///
    /// This is the hand-off point HIERAS's m-loop needs between layers
    /// (§3.2): continuing one layer up from the predecessor leaves only
    /// the short forward arc to the key, whereas continuing from the
    /// ring-local owner (whose id lies *past* the key) would force the
    /// next layer to route almost the whole circle. If `start` itself
    /// owns the key ring-locally, its predecessor pointer supplies the
    /// answer in one backward hop. Clears `out` and fills it with the
    /// visited positions, like [`RingView::route_into`].
    pub fn route_to_predecessor_into(&self, start: u32, key: Key, out: &mut PathBuf) {
        self.route_core(start, key, true, out);
    }

    /// Average number of distinct fingers per member — the table-size
    /// statistic used by the §3.4 cost analysis. The packed form stores
    /// no tables, so the rows are recomputed on demand from the seek
    /// index; results match the materialized tables entry for entry.
    #[must_use]
    pub fn avg_distinct_fingers(&self) -> f64 {
        let bits = self.space.bits();
        let mut total = 0usize;
        let mut scratch: Vec<u32> = Vec::with_capacity(bits as usize);
        for pos in 0..self.members.len() as u32 {
            scratch.clear();
            scratch.extend((0..bits).map(|i| self.finger(pos, i)));
            scratch.sort_unstable();
            scratch.dedup();
            total += scratch.len();
        }
        total as f64 / self.members.len() as f64
    }
}

/// Plain Chord over the full membership — the paper's baseline.
///
/// A thin wrapper around [`RingView`] covering every node, speaking
/// *global node indices*.
#[derive(Debug, Clone)]
pub struct ChordOracle {
    ring: RingView,
}

impl ChordOracle {
    /// Builds the global Chord ring over all ids.
    ///
    /// # Errors
    /// See [`RingBuildError`].
    pub fn build(space: IdSpace, ids: Arc<[Id]>) -> Result<Self, RingBuildError> {
        Self::build_on(&Executor::default(), space, ids)
    }

    /// [`ChordOracle::build`] on a caller-supplied executor (parallel
    /// finger-table fill for large memberships, bit-identical at any
    /// thread count).
    ///
    /// # Errors
    /// See [`RingBuildError`].
    pub fn build_on(
        exec: &Executor,
        space: IdSpace,
        ids: Arc<[Id]>,
    ) -> Result<Self, RingBuildError> {
        let members: Vec<u32> = (0..ids.len() as u32).collect();
        Ok(ChordOracle { ring: RingView::build_on(exec, space, ids, &members)? })
    }

    /// The underlying ring view.
    #[must_use]
    pub fn ring(&self) -> &RingView {
        &self.ring
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Rings are never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Global index of the node owning `key`.
    #[must_use]
    pub fn owner_of(&self, key: Key) -> u32 {
        self.ring.node_at(self.ring.successor_of_key(key))
    }

    /// Looks up `key` starting from global node `src`: fills `scratch`
    /// with the visited *global node indices* (origin first, owner
    /// last; length 1 means the originator already owned the key). The
    /// replay hot loop reuses one scratch across requests.
    ///
    /// # Panics
    /// Panics if `src` is not a valid node index.
    pub fn lookup_into(&self, src: u32, key: Key, scratch: &mut PathBuf) {
        let start = self.ring.position_of(src).expect("src must be a member");
        self.ring.route_into(start, key, scratch);
        for p in scratch.as_mut_slice() {
            *p = self.ring.node_at(*p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_of(raw: &[u64]) -> Arc<[Id]> {
        raw.iter().map(|&v| Id(v)).collect::<Vec<_>>().into()
    }

    fn route(r: &RingView, start: u32, key: Key) -> Vec<u32> {
        let mut path = PathBuf::new();
        r.route_into(start, key, &mut path);
        path.to_vec()
    }

    fn lookup(c: &ChordOracle, src: u32, key: Key) -> Vec<u32> {
        let mut path = PathBuf::new();
        c.lookup_into(src, key, &mut path);
        path.to_vec()
    }

    fn s8() -> IdSpace {
        IdSpace::new(8).unwrap()
    }

    #[test]
    fn build_rejects_empty_and_duplicates() {
        let ids = ids_of(&[1, 5, 5]);
        assert_eq!(
            RingView::build(s8(), ids.clone(), &[]).unwrap_err(),
            RingBuildError::Empty
        );
        assert_eq!(
            RingView::build(s8(), ids, &[0, 1, 2]).unwrap_err(),
            RingBuildError::DuplicateId(Id(5))
        );
    }

    #[test]
    fn build_rejects_bad_index_and_out_of_space() {
        let ids = ids_of(&[1, 300]);
        assert_eq!(
            RingView::build(s8(), ids.clone(), &[0, 7]).unwrap_err(),
            RingBuildError::BadIndex(7)
        );
        assert_eq!(
            RingView::build(s8(), ids, &[0, 1]).unwrap_err(),
            RingBuildError::OutOfSpace(Id(300))
        );
    }

    #[test]
    fn members_are_sorted_by_id() {
        let ids = ids_of(&[90, 10, 50]);
        let r = RingView::build(s8(), ids, &[0, 1, 2]).unwrap();
        assert_eq!(r.members(), &[1, 2, 0]);
        assert_eq!(r.id_at(0), Id(10));
        assert_eq!(r.position_of(2), Some(1));
    }

    #[test]
    fn successor_of_key_wraps() {
        let ids = ids_of(&[10, 50, 90]);
        let r = RingView::build(s8(), ids, &[0, 1, 2]).unwrap();
        assert_eq!(r.successor_of_key(Id(10)), 0); // exact hit
        assert_eq!(r.successor_of_key(Id(11)), 1);
        assert_eq!(r.successor_of_key(Id(90)), 2);
        assert_eq!(r.successor_of_key(Id(91)), 0); // wrap
        assert_eq!(r.successor_of_key(Id(0)), 0);
    }

    #[test]
    fn fingers_match_chord_definition_brute_force() {
        // Nodes at 0,60,120,180,240 in an 8-bit space.
        let ids = ids_of(&[0, 60, 120, 180, 240]);
        let members: Vec<u32> = vec![0, 1, 2, 3, 4];
        let r = RingView::build(s8(), ids.clone(), &members).unwrap();
        let space = s8();
        for pos in 0..5u32 {
            let me = r.id_at(pos);
            for i in 0..8u32 {
                let start = space.finger_start(me, i);
                // Brute-force successor among all ids.
                let mut best: Option<(u64, u32)> = None;
                for p in 0..5u32 {
                    let d = space.distance_cw(start, r.id_at(p));
                    // successor = member minimizing cw distance FROM start TO member
                    let dd = (space.mask() - d) & space.mask(); // invert: want distance start->member
                    let fwd = space.distance_cw(start, r.id_at(p));
                    let _ = dd;
                    if best.is_none_or(|(bd, _)| fwd < bd) {
                        best = Some((fwd, p));
                    }
                }
                assert_eq!(r.finger(pos, i), best.unwrap().1, "pos {pos} finger {i}");
            }
        }
    }

    #[test]
    fn route_reaches_owner_and_counts_final_hop() {
        let ids = ids_of(&[10, 50, 90, 200]);
        let r = RingView::build(s8(), ids, &[0, 1, 2, 3]).unwrap();
        // Key 60 is owned by node id 90 (position 2).
        let path = route(&r, 0, Id(60));
        assert_eq!(*path.last().unwrap(), 2);
        assert!(path.len() >= 2);
        // Key owned by self: single-element path.
        let path = route(&r, 0, Id(5)); // owner = successor(5) = id 10 = pos 0
        assert_eq!(path, vec![0]);
    }

    #[test]
    fn single_member_ring_owns_everything() {
        let ids = ids_of(&[42]);
        let r = RingView::build(s8(), ids, &[0]).unwrap();
        for k in [0u64, 41, 42, 43, 255] {
            assert_eq!(route(&r, 0, Id(k)), vec![0]);
        }
    }

    #[test]
    fn two_member_ring_routes_in_one_hop() {
        let ids = ids_of(&[10, 200]);
        let r = RingView::build(s8(), ids, &[0, 1]).unwrap();
        assert_eq!(route(&r, 0, Id(150)), vec![0, 1]);
        assert_eq!(route(&r, 0, Id(5)), vec![0]); // wraps to id 10 = self
    }

    #[test]
    fn oracle_lookup_owner_matches_brute_force() {
        let raw: Vec<u64> = vec![3, 17, 40, 99, 130, 222, 250];
        let ids = ids_of(&raw);
        let c = ChordOracle::build(s8(), ids).unwrap();
        let space = s8();
        for key in 0..=255u64 {
            let key = Id(key);
            let owner = c.owner_of(key);
            // Brute force: minimal cw distance key -> node.
            let brute = (0..raw.len() as u32)
                .min_by_key(|&i| space.distance_cw(key, Id(raw[i as usize])))
                .unwrap();
            assert_eq!(owner, brute, "key {key:?}");
            // Every source agrees.
            for src in 0..raw.len() as u32 {
                let p = lookup(&c, src, key);
                assert_eq!(*p.last().unwrap(), owner, "src {src} key {key:?}");
                assert_eq!(p[0], src);
            }
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        // 128 evenly spread nodes in full space: hops must stay ≤ bits.
        let raw: Vec<u64> = (0..128u64).map(|i| i << 57).collect();
        let ids = ids_of(&raw);
        let c = ChordOracle::build(IdSpace::full(), ids).unwrap();
        let mut max_hops = 0;
        for k in 0..256u64 {
            let key = Id(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let p = lookup(&c, (k % 128) as u32, key);
            max_hops = max_hops.max(p.len() - 1);
        }
        assert!(max_hops <= 8, "expected ≤ log2(128)+1 hops, saw {max_hops}");
    }

    #[test]
    fn subset_ring_routes_within_subset_only() {
        let raw: Vec<u64> = vec![5, 20, 60, 100, 140, 180, 220, 240];
        let ids = ids_of(&raw);
        let subset = vec![1u32, 3, 5, 7]; // ids 20,100,180,240
        let r = RingView::build(s8(), ids, &subset).unwrap();
        let path = route(&r, 0, Id(150));
        for &pos in &path {
            assert!(subset.contains(&r.node_at(pos)));
        }
        // Owner within subset of key 150 is id 180 (global 5).
        assert_eq!(r.node_at(*path.last().unwrap()), 5);
    }

    #[test]
    fn avg_distinct_fingers_reasonable() {
        let raw: Vec<u64> = (0..64u64).map(|i| i * 4).collect();
        let ids = ids_of(&raw);
        let r = ChordOracle::build(s8(), ids).unwrap();
        let avg = r.ring().avg_distinct_fingers();
        assert!((3.0..=8.0).contains(&avg), "avg distinct fingers {avg}");
    }

    /// Seeded-loop replacement for the old property test: routing from
    /// any source always terminates at the brute-force owner and never
    /// exceeds the bit-length hop bound.
    #[test]
    fn route_always_finds_owner() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0xc402d);
        for case in 0..256 {
            let seed = rng.random_range(0u64..500);
            let n = rng.random_range(1usize..40);
            let key = Id(rng.next_u64());
            let space = IdSpace::full();
            // Deterministic pseudo-random distinct ids.
            let mut raw: Vec<u64> = (0..n as u64)
                .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (i << 32))
                .collect();
            raw.sort_unstable();
            raw.dedup();
            let ids: Arc<[Id]> = raw.iter().map(|&v| Id(v)).collect::<Vec<_>>().into();
            let c = ChordOracle::build(space, ids).unwrap();
            let brute = (0..raw.len() as u32)
                .min_by_key(|&i| space.distance_cw(key, Id(raw[i as usize])))
                .unwrap();
            for src in 0..raw.len() as u32 {
                let p = lookup(&c, src, key);
                assert_eq!(*p.last().unwrap(), brute, "case {case} src {src}");
                assert!(p.len() - 1 <= raw.len() + 64, "case {case}");
                assert!(p.len() - 1 <= 2 * 64, "case {case}"); // log bound with slack
            }
        }
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        let ids = ids_of(&[10, 50, 90, 130, 170, 210, 240, 5]);
        let r = RingView::build(s8(), ids.clone(), &[0, 1, 2, 3]).unwrap();
        // Remove 1 (id 50), insert 5 (id 210) and 7 (id 5).
        let delta = r.apply_delta(&[1], &[5, 7]).unwrap();
        let full = RingView::build(s8(), ids, &[0, 2, 3, 5, 7]).unwrap();
        assert_eq!(delta, full);
        assert_eq!(delta.arena_digest(), full.arena_digest());
        assert_eq!(delta.members(), &[7, 0, 2, 3, 5]);
    }

    #[test]
    fn arena_digest_covers_every_array_and_the_shift() {
        let ids = ids_of(&[10, 50, 90, 130, 170, 210, 240, 5]);
        let r = RingView::build(s8(), ids, &[0, 1, 2, 3, 5]).unwrap();
        // A copy with one piece perturbed and a fresh digest cache.
        let with = |f: &dyn Fn(&mut RingView)| {
            let mut c = RingView {
                space: r.space,
                ids: Arc::clone(&r.ids),
                members: r.members.clone(),
                member_ids: r.member_ids.clone(),
                seek: r.seek.clone(),
                seek_shift: r.seek_shift,
                digest: OnceLock::new(),
            };
            f(&mut c);
            c.arena_digest()
        };
        assert_eq!(with(&|_| {}), r.arena_digest());
        assert_ne!(with(&|c| c.members[2] = 7), r.arena_digest(), "members");
        assert_ne!(with(&|c| c.member_ids[2].0 += 1), r.arena_digest(), "member_ids");
        assert_ne!(with(&|c| c.seek[1] += 1), r.arena_digest(), "seek");
        assert_ne!(with(&|c| c.seek_shift += 1), r.arena_digest(), "seek_shift");
    }

    #[test]
    fn apply_delta_validates_inputs() {
        let ids = ids_of(&[10, 50, 90, 300]);
        let r = RingView::build(s8(), ids, &[0, 1]).unwrap();
        assert_eq!(r.apply_delta(&[2], &[]).unwrap_err(), RingBuildError::NotAMember(2));
        assert_eq!(r.apply_delta(&[0, 0], &[]).unwrap_err(), RingBuildError::NotAMember(0));
        assert_eq!(r.apply_delta(&[], &[9]).unwrap_err(), RingBuildError::BadIndex(9));
        assert_eq!(
            r.apply_delta(&[], &[3]).unwrap_err(),
            RingBuildError::OutOfSpace(Id(300))
        );
        // Inserting an id already present (node 1 again) is a duplicate.
        assert_eq!(r.apply_delta(&[], &[1]).unwrap_err(), RingBuildError::DuplicateId(Id(50)));
        // Emptying the ring is refused.
        assert_eq!(r.apply_delta(&[0, 1], &[]).unwrap_err(), RingBuildError::Empty);
        // Remove-then-reinsert of the same node is a legal no-op.
        let same = r.apply_delta(&[1], &[1]).unwrap();
        assert_eq!(same, r);
    }

    /// Applies `(remove, insert)` to `ring` and holds the result — the
    /// offset-derived seek index included — against a from-scratch
    /// build of the post-delta membership at 1, 2 and 8 threads.
    fn delta_vs_scratch(ring: &RingView, remove: &[u32], insert: &[u32]) -> RingView {
        let delta = ring.apply_delta(remove, insert).unwrap();
        let after: Vec<u32> = ring
            .members()
            .iter()
            .copied()
            .filter(|m| !remove.contains(m))
            .chain(insert.iter().copied())
            .collect();
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let full = RingView::build_on(&exec, ring.space(), Arc::clone(&ring.ids), &after);
            // (not assert_eq: a mismatch would dump whole arenas)
            assert!(delta == full.unwrap(), "-{remove:?} +{insert:?} at {threads} threads");
        }
        delta
    }

    /// The seek index a delta derives by offsetting the old one is the
    /// index `seek_index` builds from scratch: one member at a time
    /// across every power-of-two size crossing in both directions
    /// (where the bucket grid changes and the sweep takes over), on
    /// 1- and 2-member rings (a 64-bit shift: one bucket), and for the
    /// batches that stress the offsets' ends.
    #[test]
    fn offset_seek_matches_seek_index_from_scratch() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0x5ee4_0ff5);
        let mut raw: Vec<u64> = (0..1_100).map(|_| rng.next_u64()).collect();
        raw.sort_unstable();
        raw.dedup();
        let n = raw.len() as u32;
        let ids = ids_of(&raw);
        // Node indices are id-ordered: 0 holds the minimum id, n-1 the
        // maximum. Grow 1 → 6 from the middle, then shrink back.
        let mut ring = RingView::build(IdSpace::full(), Arc::clone(&ids), &[500]).unwrap();
        assert!(ring.seek_shift >= 64);
        ring = delta_vs_scratch(&ring, &[500], &[501]); // swap on a 1-member ring
        for m in [400, 600, 300, 700, 200] {
            ring = delta_vs_scratch(&ring, &[], &[m]);
        }
        for m in [400, 200, 700, 501, 600] {
            ring = delta_vs_scratch(&ring, &[m], &[]);
        }
        assert_eq!(ring.members(), &[300]);
        // 1 023 ↔ 1 025, by ones through 1 024 and in one batch.
        let base: Vec<u32> = (10..1_033).collect();
        ring = RingView::build(IdSpace::full(), Arc::clone(&ids), &base).unwrap();
        assert_eq!(ring.len(), 1_023);
        ring = delta_vs_scratch(&ring, &[], &[5]);
        ring = delta_vs_scratch(&ring, &[], &[1_050]);
        ring = delta_vs_scratch(&ring, &[700], &[]);
        ring = delta_vs_scratch(&ring, &[5], &[]);
        ring = delta_vs_scratch(&ring, &[], &[700, 5]);
        ring = delta_vs_scratch(&ring, &[1_050, 10], &[]);
        assert_eq!(ring.len(), 1_023);
        // Drop-and-re-add of one node, alone and beside other changes.
        ring = delta_vs_scratch(&ring, &[300], &[300]);
        ring = delta_vs_scratch(&ring, &[300, 11], &[300, 10]);
        // Below the minimum id and above the maximum.
        ring = delta_vs_scratch(&ring, &[], &[0, n - 1]);
        ring = delta_vs_scratch(&ring, &[0, n - 1], &[1, n - 2]);
        // A batch that empties a whole run of buckets, then refills it.
        let run: Vec<u32> = (400..520).collect();
        ring = delta_vs_scratch(&ring, &run, &[]);
        ring = delta_vs_scratch(&ring, &[], &run);
        // Random batches around the 1 024 boundary.
        for _ in 0..200 {
            let members = ring.members().to_vec();
            let out = rng.random_range(0usize..6);
            let remove: Vec<u32> =
                (0..out).map(|_| members[rng.random_range(0..members.len())]).collect();
            let insert: Vec<u32> = (0..rng.random_range(0u32..6))
                .map(|_| rng.random_range(0..n))
                .filter(|m| !members.contains(m))
                .collect();
            let (mut remove, mut insert) = (remove, insert);
            remove.sort_unstable();
            remove.dedup();
            insert.sort_unstable();
            insert.dedup();
            // Steer the size back towards the boundary.
            if ring.len() > 1_030 {
                insert.clear();
            } else if ring.len() < 1_018 {
                remove.clear();
            }
            ring = delta_vs_scratch(&ring, &remove, &insert);
        }
    }

    /// Seeded fuzz: arbitrary remove/insert batches against a full
    /// rebuild of the post-delta membership — byte identity (members,
    /// arena, seek) must hold, including via the pooled path.
    #[test]
    fn apply_delta_fuzz_identity() {
        let mut rng = hieras_rt::Rng::seed_from_u64(0xde17a);
        let mut pool = RingArenaPool::new(16);
        for case in 0..200 {
            let n = rng.random_range(4usize..80);
            let raw: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((case as u64) << 7))
                .collect();
            let mut sorted = raw.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let ids: Arc<[Id]> = sorted.iter().map(|&v| Id(v)).collect::<Vec<_>>().into();
            let n = ids.len();
            // Current membership: each node in with probability ~2/3.
            let mut members: Vec<u32> = (0..n as u32)
                .filter(|_| rng.random_range(0u32..3) > 0)
                .collect();
            if members.is_empty() {
                members.push(0);
            }
            let ring = RingView::build(IdSpace::full(), Arc::clone(&ids), &members).unwrap();
            // Random delta over the complement/membership.
            let remove: Vec<u32> = members
                .iter()
                .copied()
                .filter(|_| rng.random_range(0u32..4) == 0)
                .collect();
            let insert: Vec<u32> = (0..n as u32)
                .filter(|m| !members.contains(m))
                .filter(|_| rng.random_range(0u32..3) == 0)
                .collect();
            let after: Vec<u32> = members
                .iter()
                .copied()
                .filter(|m| !remove.contains(m))
                .chain(insert.iter().copied())
                .collect();
            if after.is_empty() {
                continue;
            }
            let delta = ring.apply_delta_on(&remove, &insert, &mut pool).unwrap();
            let full = RingView::build(IdSpace::full(), Arc::clone(&ids), &after).unwrap();
            assert_eq!(delta, full, "case {case}");
            assert_eq!(delta.arena_digest(), full.arena_digest(), "case {case}");
            // Retire the delta ring into the pool for the next case.
            delta.recycle_into(&mut pool);
        }
        assert!(pool.stats().reused > 0, "the pool must have served some builds");
    }
}
