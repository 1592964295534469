//! Columnar (struct-of-arrays) bid store, bucketed coverage index, and the
//! per-sweep scratch arena behind the `A_winner` hot path.
//!
//! # Why a columnar core
//!
//! The greedy winner determination (Alg. 2) is the dominant phase of every
//! profile in `BENCH_main.json`, and at the scale frontier the paper's
//! few-hundred-client setting grows to 10⁵–10⁶ bids per auction. At that
//! size the array-of-structs layout ([`QualifiedBid`] records scattered
//! through a `Vec`) wastes the memory bus: one candidate evaluation reads a
//! price, a window and a round count — 20 bytes — but drags a whole record
//! (plus padding) through the cache, and every evaluation allocates a fresh
//! schedule `Vec`. This module stores the same bids as parallel arrays and
//! gives the sweep a reusable scratch arena, so the hot loop touches only
//! the columns it needs and allocates nothing per horizon.
//!
//! # Field-by-field layout
//!
//! [`ColumnarBids`] holds one parallel array per bid attribute, all exactly
//! `len()` long, index `i` everywhere meaning "the `i`-th qualified bid in
//! instance order":
//!
//! ```text
//! index type  column          contents
//! ----------  --------------  ------------------------------------------
//! BidRef      refs[i]         the paper's pair (i, j) — the API identity
//! u32         client_slots[i] per-WDP client slot (see below)
//! f64         prices[i]       claimed cost b_ij
//! f64         accuracies[i]   local accuracy θ_ij
//! u32         starts[i]       window start a_ij, 1-based round number
//! u32         ends[i]         window end d_ij, inclusive, 1-based
//! u32         rounds[i]       participation rounds c_ij
//! f64         round_times[i]  per-round wall clock t_ij
//! ```
//!
//! # Where the columns come from
//!
//! [`SweepPrecomp::qualify_at`](crate::SweepPrecomp::qualify_at) gathers
//! the admitted bids straight out of its own per-bid columns into a
//! `ColumnarBids` held by the [`Wdp`](crate::Wdp), windows truncated to
//! the horizon, so `A_winner` reads columns from the first bid on and
//! nothing transposes rows. [`Wdp::bids`](crate::Wdp::bids) builds the
//! row form on first use, for the row-form solvers (`fl-exact`, the
//! baselines) and the checkers. A [`Wdp`](crate::Wdp) built from rows
//! ([`Wdp::new`](crate::Wdp::new)) transposes them once through
//! [`From<&[QualifiedBid]>`](#impl-From%3C%26%5BQualifiedBid%5D%3E-for-ColumnarBids).
//!
//! # Index types
//!
//! Three integer domains coexist and must never be mixed:
//!
//! * **bid index** `usize`/`u32` — position in the columns. Dense,
//!   `0..len()`.
//! * **round number** `u32` — 1-based global iteration, `1..=T̂_g`, the
//!   same numbering as [`Round`]. Array storage subtracts one
//!   (`loads[(t − 1) as usize]`), exactly like [`Round::index`].
//! * **client slot** `u32` — in `0..num_slots()`; two bids share a slot
//!   iff they share a client. `client_slots` lets the greedy keep its
//!   "at most one bid per client" bitmap in a flat `Vec<bool>` instead of
//!   a hash set. `qualify_at` uses the [`ClientId`](crate::ClientId)
//!   itself, which `Instance::add_client` numbers densely, so the slot
//!   count is one more than the largest admitted id. Rows built by hand
//!   may carry sparse ids, so `From` renumbers clients densely in
//!   first-appearance order.
//!
//! # Safety and aliasing rules
//!
//! Everything here is safe Rust (`fl-auction` is `#![forbid(unsafe_code)]`);
//! the rules below are *borrow discipline*, enforced by the compiler:
//!
//! * [`ColumnarBids`] is immutable after construction — the greedy only
//!   ever reads it, so shared references may be held across the whole
//!   sweep.
//! * All mutable state of one greedy run lives in [`SweepScratch`], whose
//!   fields are disjoint buffers borrowed field-by-field (loads while
//!   sorting the order buffer, the heap while reading the per-bid gains).
//!   No scratch buffer ever aliases a column.
//! * The arena is handed out per **thread** ([`with_scratch`] — a
//!   thread-local), matching the parallel sweep's execution model: each
//!   worker reuses its own arena across the horizons it steals, and two
//!   workers never share one. A re-entrant call (only possible if a solver
//!   recursively solves a WDP mid-solve) falls back to a fresh temporary
//!   arena instead of aborting on the `RefCell`.
//!
//! # The bucketed coverage index
//!
//! [`CoverageIndex`] is what lets the lazy queue skip re-evaluations. It
//! partitions rounds into buckets of [`ROUNDS_PER_BUCKET`] consecutive
//! rounds and keeps, per bucket, the logical time (`clock`) of the last
//! **saturation event** — a round's load `γ_t` reaching the per-round
//! demand `K` — in that bucket.
//!
//! Saturation is the right invalidation signal because of a small lemma:
//! under the least-loaded policy a candidate's gain is `min(c, m)`, where
//! `m` counts the window's rounds with `γ_t < K` (an unsaturated round
//! sorts strictly before any saturated one, so the `c` least-loaded rounds
//! absorb unsaturated rounds first; see
//! `schedule::gain_in_window`). The heap key
//! `(avg, price, bid_ref)` therefore depends on the loads *only through
//! `m`*, and `m` changes exactly when a round of the window saturates.
//! Loads creeping from 0 to `K − 1` reorder which rounds a schedule picks,
//! but never the candidate's average cost — and the winner's concrete
//! schedule is re-derived from the live loads at selection anyway.
//! Invariants:
//!
//! * `clock` is monotone; [`CoverageIndex::advance`] is called exactly once
//!   per greedy selection, *before* the selection's saturations are
//!   recorded.
//! * `versions[b]` only ever increases, and equals the clock of the last
//!   [`CoverageIndex::touch`] in bucket `b` (0 if never touched).
//! * [`CoverageIndex::is_current`]`(a, d, s)` ⇒ no round of `[a, d]`
//!   saturated after stamp `s` ⇒ the entry's cached `gain` and `avg` are
//!   bit-identical to a fresh evaluation — so *not* re-evaluating it is
//!   outcome-free.
//!
//! The old queue treated every entry as stale after one iteration, which
//! cost `winner.lazy_refreshes` ≈ 10× iterations on the Fig. 3 profile.
//! With the index, an entry is re-examined only when a saturation landed
//! in one of its buckets — at most `T̂_g` saturation events exist in a
//! whole run — and the queue counts (and re-keys) it only if the
//! recomputed gain actually differs from the cached one; a conservative
//! bucket hit with an unchanged gain is accepted as the exact minimum on
//! the spot. `winner.lazy_refreshes` therefore measures the workload's
//! intrinsic invalidation pressure (≈ 5× iterations on Fig. 3, whose
//! narrow windows put `c` near the window width) instead of queue
//! staleness bookkeeping.
//!
//! # The lazy heap
//!
//! A [`HeapSlot`] is 16 bytes: the order-preserving `u64` image of the
//! cached `avg` (`avg_key`) and the bid index. Equal keys fall back to
//! the bid's price, then its `bid_ref`, both read from the columns, so the
//! order is still `(avg, price, bid_ref)`. The cached gain and its stamp
//! live in the per-bid scratch columns [`SweepScratch::gains`] and
//! [`SweepScratch::stamps`], and `avg` is recomputed as `price / gain` —
//! the same division, so the same bits. A bid holds at most one live
//! entry, so live keys are unique and every pop returns the one minimum,
//! however the heap was built:
//!
//! * the seed reads neither the loads nor the index: before the first
//!   selection no round is saturated, so every bid's gain is
//!   `min(c, d − a + 1)` under either schedule policy. The seed entries
//!   are heapified in one bottom-up pass ([`LazyHeap::fill`], `O(n)`)
//!   instead of `n` pushes;
//! * a stale top whose gain changed is re-keyed in place and sifted down
//!   once ([`LazyHeap::rekey_top`]) instead of a pop plus a push. The heap
//!   then holds the same set of keys as after the pop and push.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::{BidRef, Round, Window};
use crate::wdp::QualifiedBid;

/// Rounds per [`CoverageIndex`] bucket (a power of two so the bucket of a
/// round is a shift). Eight spans a typical bid window in the paper's
/// workloads, so one candidate validity check reads one or two buckets;
/// saturation events are rare (at most one per round across a whole run),
/// so the coarser granularity costs almost no false invalidations.
pub const ROUNDS_PER_BUCKET: u32 = 8;
const BUCKET_SHIFT: u32 = ROUNDS_PER_BUCKET.trailing_zeros();

/// An order-preserving `u64` image of `x`: `a.total_cmp(&b)` equals
/// `avg_key(a).cmp(&avg_key(b))`, `−0.0` below `+0.0` included. A negative
/// float has every bit flipped, a positive one only its sign bit.
pub(crate) fn avg_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The qualified bids of one WDP as parallel columns (see the
/// [module docs](self) for the layout). Built by
/// [`SweepPrecomp::qualify_at`](crate::SweepPrecomp::qualify_at) or, from
/// rows, with
/// [`From<&[QualifiedBid]>`](#impl-From%3C%26%5BQualifiedBid%5D%3E-for-ColumnarBids);
/// immutable afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBids {
    refs: Vec<BidRef>,
    client_slots: Vec<u32>,
    num_slots: usize,
    prices: Vec<f64>,
    accuracies: Vec<f64>,
    starts: Vec<u32>,
    ends: Vec<u32>,
    rounds: Vec<u32>,
    round_times: Vec<f64>,
}

impl From<&[QualifiedBid]> for ColumnarBids {
    /// Transposes `bids`, keeping their order. Client slots are dense, in
    /// first-appearance order, whatever the raw ids: deterministic, and
    /// independent of how sparse the [`ClientId`](crate::ClientId) space
    /// of hand-built rows is. Client-major rows reuse the previous row's
    /// slot when the client repeats, so the map sees each client about
    /// once.
    fn from(bids: &[QualifiedBid]) -> ColumnarBids {
        let mut slot_of: HashMap<u32, u32, BuildHasherDefault<ClientIdHasher>> = HashMap::default();
        let mut last: Option<(u32, u32)> = None;
        let client_slots = bids
            .iter()
            .map(|b| {
                let client = b.bid_ref.client.0;
                match last {
                    Some((c, slot)) if c == client => slot,
                    _ => {
                        let next = slot_of.len() as u32;
                        let slot = *slot_of.entry(client).or_insert(next);
                        last = Some((client, slot));
                        slot
                    }
                }
            })
            .collect();
        ColumnarBids {
            refs: bids.iter().map(|b| b.bid_ref).collect(),
            client_slots,
            num_slots: slot_of.len(),
            prices: bids.iter().map(|b| b.price).collect(),
            accuracies: bids.iter().map(|b| b.accuracy).collect(),
            starts: bids.iter().map(|b| b.window.start().0).collect(),
            ends: bids.iter().map(|b| b.window.end().0).collect(),
            rounds: bids.iter().map(|b| b.rounds).collect(),
            round_times: bids.iter().map(|b| b.round_time).collect(),
        }
    }
}

/// Multiplicative hashing of a `u32` client id for the per-WDP slot map:
/// one multiply by the 64-bit golden ratio, folded so the low bits the
/// table indexes by depend on every bit of the id. Instance client ids
/// are dense indices that `Instance::add_client` assigns (`add_bid`
/// rejects any other), so no input from outside the program picks the
/// keys and SipHash's flooding resistance buys nothing here.
#[derive(Default)]
struct ClientIdHasher(u64);

impl Hasher for ClientIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `u32` keys arrive through `write_u32`; fold anything else
        // bytewise.
        for &byte in bytes {
            self.write_u32(self.0 as u32 ^ u32::from(byte));
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ColumnarBids {
    /// Assembles the store from columns of equal length, using each
    /// bid's client id as its slot. The ids come from an
    /// [`Instance`](crate::Instance), which numbers its clients densely,
    /// so the slot count, one more than the largest id, is at most the
    /// instance's client count.
    pub(crate) fn from_columns(
        refs: Vec<BidRef>,
        prices: Vec<f64>,
        accuracies: Vec<f64>,
        starts: Vec<u32>,
        ends: Vec<u32>,
        rounds: Vec<u32>,
        round_times: Vec<f64>,
    ) -> ColumnarBids {
        let client_slots: Vec<u32> = refs.iter().map(|r| r.client.0).collect();
        let num_slots = client_slots.iter().max().map_or(0, |&id| id as usize + 1);
        ColumnarBids {
            refs,
            client_slots,
            num_slots,
            prices,
            accuracies,
            starts,
            ends,
            rounds,
            round_times,
        }
    }

    /// Number of bids (every column has exactly this length).
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the store holds no bids.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Number of client slots: every [`client_slot`](Self::client_slot) is
    /// below it. Equals the number of distinct clients when the slots are
    /// dense (rows built by hand); from
    /// [`qualify_at`](crate::SweepPrecomp::qualify_at) it is one more than
    /// the largest admitted client id.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The bid reference `(i, j)` of bid `i`.
    pub fn bid_ref(&self, i: usize) -> BidRef {
        self.refs[i]
    }

    /// The client slot of bid `i` (in `0..num_slots()`). Two bids share a
    /// slot iff they share a client.
    pub fn client_slot(&self, i: usize) -> u32 {
        self.client_slots[i]
    }

    /// The claimed cost `b_ij` of bid `i`.
    pub fn price(&self, i: usize) -> f64 {
        self.prices[i]
    }

    /// The window start `a_ij` of bid `i` (1-based round number).
    pub fn start(&self, i: usize) -> u32 {
        self.starts[i]
    }

    /// The inclusive window end `d_ij` of bid `i` (1-based round number).
    pub fn end(&self, i: usize) -> u32 {
        self.ends[i]
    }

    /// The participation rounds `c_ij` of bid `i`.
    pub fn rounds(&self, i: usize) -> u32 {
        self.rounds[i]
    }

    /// Reassembles bid `i` as the row-form [`QualifiedBid`] — the exact
    /// record the store was built from (round-trip identity is
    /// property-tested).
    pub fn get(&self, i: usize) -> QualifiedBid {
        QualifiedBid {
            bid_ref: self.refs[i],
            price: self.prices[i],
            accuracy: self.accuracies[i],
            window: Window::new(Round(self.starts[i]), Round(self.ends[i])),
            rounds: self.rounds[i],
            round_time: self.round_times[i],
        }
    }

    /// Reassembles the full row-form bid slice (the inverse of
    /// [`From<&[QualifiedBid]>`](#impl-From%3C%26%5BQualifiedBid%5D%3E-for-ColumnarBids)).
    pub fn to_bids(&self) -> Vec<QualifiedBid> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// Bucketed per-round change tracker for lazy-queue validity (see the
/// [module docs](self) for the invariants).
#[derive(Debug, Clone, Default)]
pub struct CoverageIndex {
    versions: Vec<u64>,
    clock: u64,
}

impl CoverageIndex {
    /// Resets the index for a horizon of `horizon` rounds: all buckets at
    /// version 0, clock 0. Bucket storage is reused across calls.
    pub fn reset(&mut self, horizon: u32) {
        let buckets = horizon.div_ceil(ROUNDS_PER_BUCKET) as usize;
        self.versions.clear();
        self.versions.resize(buckets, 0);
        self.clock = 0;
    }

    /// The current logical time. Entries computed now carry this stamp.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Starts a new modification epoch (called once per greedy selection,
    /// before the selection's saturation events are recorded).
    pub fn advance(&mut self) {
        self.clock += 1;
    }

    /// Records a saturation event in round `t` (1-based): the round's load
    /// just reached the per-round demand `K`.
    pub fn touch(&mut self, t: u32) {
        self.versions[((t - 1) >> BUCKET_SHIFT) as usize] = self.clock;
    }

    /// Whether an entry stamped at `stamp` whose window is `[start, end]`
    /// (1-based, inclusive) still has exact `gain`/`avg`: no bucket
    /// overlapping the window recorded a saturation after `stamp`.
    pub fn is_current(&self, start: u32, end: u32, stamp: u64) -> bool {
        let lo = ((start - 1) >> BUCKET_SHIFT) as usize;
        let hi = ((end - 1) >> BUCKET_SHIFT) as usize;
        self.versions[lo..=hi].iter().all(|&v| v <= stamp)
    }
}

/// One lazy-queue entry: a candidate bid keyed by its cached average
/// cost, 16 bytes.
///
/// The cached gain and its stamp live in the per-bid scratch columns
/// ([`SweepScratch::gains`], [`SweepScratch::stamps`]); by the lazy-greedy
/// monotonicity argument the cached `avg` is a lower bound on the current
/// one whenever the entry is stale. The schedule is deliberately **not**
/// cached — re-deriving it for the one winner per iteration is cheaper
/// than carrying a `Vec` per entry through a million-slot heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSlot {
    /// The order-preserving `u64` image of the cached average cost
    /// `ρ / R_il(S)`: keys compare as the averages do under `total_cmp`.
    pub key: u64,
    /// Bid index into the columns.
    pub idx: u32,
}

impl HeapSlot {
    /// The entry of bid `idx` at average cost `avg`.
    pub fn new(idx: u32, avg: f64) -> HeapSlot {
        HeapSlot {
            key: avg_key(avg),
            idx,
        }
    }

    /// Strict "sorts earlier" comparison on `(avg, price, bid_ref)` — the
    /// same deterministic total order as the full scan's `better`. Price
    /// and `bid_ref` are read from `cols` only when the keys tie.
    fn sorts_before(self, other: HeapSlot, cols: &ColumnarBids) -> bool {
        match self.key.cmp(&other.key) {
            Ordering::Equal => {
                let (a, b) = (self.idx as usize, other.idx as usize);
                cols.price(a)
                    .total_cmp(&cols.price(b))
                    .then(cols.bid_ref(a).cmp(&cols.bid_ref(b)))
                    .is_lt()
            }
            order => order.is_lt(),
        }
    }
}

/// A grow-only binary **min**-heap over [`HeapSlot`]s, ordered by
/// `(avg, price, bid_ref)` with the ties read from the [`ColumnarBids`]
/// every operation is given, with storage that survives
/// [`LazyHeap::clear`] so one allocation serves a whole sweep.
#[derive(Debug, Clone, Default)]
pub struct LazyHeap {
    slots: Vec<HeapSlot>,
}

impl LazyHeap {
    /// Empties the heap, keeping its capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reserves room for `n` entries up front (the seed pass knows the bid
    /// count).
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve(n.saturating_sub(self.slots.capacity()));
    }

    /// Replaces the contents with `slots` and restores the heap order in
    /// one bottom-up pass (Floyd's heapify): `O(n)` instead of the
    /// `O(n log n)` of `n` pushes. With unique keys the pop sequence is
    /// the same either way.
    pub fn fill(&mut self, slots: impl IntoIterator<Item = HeapSlot>, cols: &ColumnarBids) {
        self.slots.clear();
        self.slots.extend(slots);
        for i in (0..self.slots.len() / 2).rev() {
            self.sift_down(i, cols);
        }
    }

    /// Inserts an entry.
    pub fn push(&mut self, slot: HeapSlot, cols: &ColumnarBids) {
        self.slots.push(slot);
        self.sift_up(self.slots.len() - 1, cols);
    }

    /// The minimum entry, left in place.
    pub fn peek(&self) -> Option<HeapSlot> {
        self.slots.first().copied()
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self, cols: &ColumnarBids) -> Option<HeapSlot> {
        if self.slots.is_empty() {
            return None;
        }
        let top = self.slots.swap_remove(0);
        if !self.slots.is_empty() {
            self.sift_down(0, cols);
        }
        Some(top)
    }

    /// Gives the minimum entry the key `key` and restores the heap order
    /// with one sift down: the heap then holds the same entries as after
    /// popping the top and pushing it back with `key`, so with unique keys
    /// the pop sequence is the same.
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    pub fn rekey_top(&mut self, key: u64, cols: &ColumnarBids) {
        self.slots[0].key = key;
        self.sift_down(0, cols);
    }

    fn sift_up(&mut self, mut i: usize, cols: &ColumnarBids) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i].sorts_before(self.slots[parent], cols) {
                self.slots.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, cols: &ColumnarBids) {
        let n = self.slots.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < n && self.slots[l].sorts_before(self.slots[min], cols) {
                min = l;
            }
            if r < n && self.slots[r].sorts_before(self.slots[min], cols) {
                min = r;
            }
            if min == i {
                break;
            }
            self.slots.swap(i, min);
            i = min;
        }
    }
}

/// The per-thread scratch arena of one greedy run: every mutable buffer the
/// columnar hot loop needs, reused across horizons so the sweep allocates
/// nothing per `T̂_g` (see the [module docs](self) for the aliasing rules).
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    /// Per-round load `γ_t` (index 0 ↔ round 1), `horizon` entries.
    pub loads: Vec<u32>,
    /// Round-permutation buffer for representative-schedule selection.
    pub order: Vec<u32>,
    /// The last computed schedule (1-based round numbers, ascending).
    pub schedule: Vec<u32>,
    /// Per-bid cached marginal utility `R_il(S)` of the bid's heap entry.
    pub gains: Vec<u32>,
    /// Per-bid [`CoverageIndex::clock`] value its cached gain was computed
    /// at.
    pub stamps: Vec<u64>,
    /// Per-client-slot "this client already won a bid" bitmap.
    pub client_selected: Vec<bool>,
    /// The bucketed invalidation index.
    pub index: CoverageIndex,
    /// The lazy candidate queue.
    pub heap: LazyHeap,
}

impl SweepScratch {
    /// Re-initialises every buffer for a fresh greedy run over `bids` bids
    /// in `slots` client slots at `horizon` rounds, reusing all existing
    /// capacity. Gains start at 0 and stamps at clock 0.
    pub fn reset(&mut self, horizon: u32, bids: usize, slots: usize) {
        self.loads.clear();
        self.loads.resize(horizon as usize, 0);
        self.order.clear();
        self.schedule.clear();
        self.gains.clear();
        self.gains.resize(bids, 0);
        self.stamps.clear();
        self.stamps.resize(bids, 0);
        self.client_selected.clear();
        self.client_selected.resize(slots, false);
        self.index.reset(horizon);
        self.heap.clear();
        self.heap.reserve(bids);
    }
}

thread_local! {
    static SCRATCH: RefCell<SweepScratch> = RefCell::new(SweepScratch::default());
}

/// Runs `f` with this thread's scratch arena. Re-entrant calls (a solver
/// recursively solving a WDP) get a fresh temporary arena instead of a
/// `RefCell` panic; the outer arena is untouched.
pub fn with_scratch<R>(f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SweepScratch::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientId, Round, Window};

    fn qb(client: u32, bid: u32, price: f64, a: u32, d: u32, c: u32) -> QualifiedBid {
        QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), bid),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 1.0,
        }
    }

    #[test]
    fn columnar_round_trips_row_form_bids() {
        let bids = vec![
            qb(3, 0, 2.5, 1, 4, 2),
            qb(0, 1, 7.0, 2, 2, 1),
            qb(3, 1, 0.0, 3, 6, 4),
        ];
        let cols = ColumnarBids::from(bids.as_slice());
        assert_eq!(cols.len(), 3);
        assert!(!cols.is_empty());
        assert_eq!(cols.to_bids(), bids);
        for (i, b) in bids.iter().enumerate() {
            assert_eq!(&cols.get(i), b);
            assert_eq!(cols.bid_ref(i), b.bid_ref);
            assert_eq!(cols.price(i), b.price);
            assert_eq!(cols.start(i), b.window.start().0);
            assert_eq!(cols.end(i), b.window.end().0);
            assert_eq!(cols.rounds(i), b.rounds);
        }
    }

    #[test]
    fn client_slots_are_dense_and_first_appearance_ordered() {
        // Sparse, shuffled client ids → dense slots 0, 1, 0, 2.
        let bids = vec![
            qb(900, 0, 1.0, 1, 2, 1),
            qb(7, 0, 1.0, 1, 2, 1),
            qb(900, 1, 1.0, 1, 2, 1),
            qb(0, 0, 1.0, 1, 2, 1),
        ];
        let cols = ColumnarBids::from(bids.as_slice());
        assert_eq!(cols.num_slots(), 3);
        let slots: Vec<u32> = (0..cols.len()).map(|i| cols.client_slot(i)).collect();
        assert_eq!(slots, vec![0, 1, 0, 2]);
    }

    /// `from_columns` over the columns of `bids`.
    fn from_columns(bids: &[QualifiedBid]) -> ColumnarBids {
        ColumnarBids::from_columns(
            bids.iter().map(|b| b.bid_ref).collect(),
            bids.iter().map(|b| b.price).collect(),
            bids.iter().map(|b| b.accuracy).collect(),
            bids.iter().map(|b| b.window.start().0).collect(),
            bids.iter().map(|b| b.window.end().0).collect(),
            bids.iter().map(|b| b.rounds).collect(),
            bids.iter().map(|b| b.round_time).collect(),
        )
    }

    #[test]
    fn gathered_columns_use_client_ids_as_slots() {
        let bids = vec![
            qb(3, 0, 2.5, 1, 4, 2),
            qb(3, 1, 7.0, 2, 2, 1),
            qb(40, 0, 0.0, 3, 6, 4),
        ];
        let cols = from_columns(&bids);
        assert_eq!(cols.to_bids(), bids);
        let slots: Vec<u32> = (0..cols.len()).map(|i| cols.client_slot(i)).collect();
        assert_eq!(slots, vec![3, 3, 40]);
        assert_eq!(cols.num_slots(), 41, "one more than the largest id");
        assert_eq!(from_columns(&[]).num_slots(), 0);
    }

    #[test]
    fn empty_store_is_empty() {
        let cols = ColumnarBids::from([].as_slice());
        assert!(cols.is_empty());
        assert_eq!(cols.num_slots(), 0);
        assert!(cols.to_bids().is_empty());
    }

    #[test]
    fn coverage_index_tracks_window_invalidation() {
        let mut idx = CoverageIndex::default();
        idx.reset(20);
        let stamp = idx.clock();
        assert!(idx.is_current(1, 20, stamp), "nothing touched yet");
        idx.advance();
        idx.touch(9); // bucket 1 (rounds 9..=16)
        assert!(!idx.is_current(1, 20, stamp), "full window sees bucket 1");
        assert!(!idx.is_current(9, 12, stamp));
        assert!(
            idx.is_current(1, 8, stamp),
            "bucket 0 untouched — rounds 1..=8 still exact"
        );
        assert!(idx.is_current(17, 20, stamp), "bucket 2 untouched");
        // Entries computed at the new clock are current again.
        let fresh = idx.clock();
        assert!(idx.is_current(9, 12, fresh));
    }

    #[test]
    fn coverage_index_reset_reuses_storage() {
        let mut idx = CoverageIndex::default();
        idx.reset(64);
        idx.advance();
        idx.touch(1);
        idx.reset(8);
        assert_eq!(idx.clock(), 0);
        assert!(idx.is_current(1, 8, 0), "reset clears versions");
    }

    /// Heap entries for `(avg, price, client, bid)` candidates, with the
    /// columns that break their key ties.
    fn candidates(spec: &[(f64, f64, u32, u32)]) -> (Vec<HeapSlot>, ColumnarBids) {
        let rows: Vec<QualifiedBid> = spec
            .iter()
            .map(|&(_, price, client, bid)| qb(client, bid, price, 1, 2, 1))
            .collect();
        let slots = spec
            .iter()
            .enumerate()
            .map(|(i, &(avg, ..))| HeapSlot::new(i as u32, avg))
            .collect();
        (slots, ColumnarBids::from(rows.as_slice()))
    }

    fn drain(heap: &mut LazyHeap, cols: &ColumnarBids) -> Vec<u32> {
        std::iter::from_fn(|| heap.pop(cols))
            .map(|s| s.idx)
            .collect()
    }

    /// `n` seeded candidates with few distinct averages and prices, so the
    /// ties reach `bid_ref`; every `bid_ref` is unique.
    fn tied_candidates(n: u32, next: &mut impl FnMut() -> u64) -> Vec<(f64, f64, u32, u32)> {
        (0..n)
            .map(|i| {
                let avg = (next() % 5) as f64 * 0.5;
                let price = (next() % 3) as f64;
                (avg, price, (next() % 50) as u32, i)
            })
            .collect()
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn heap_slots_are_16_bytes() {
        assert_eq!(std::mem::size_of::<HeapSlot>(), 16);
    }

    #[test]
    fn avg_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0f64.next_up(),
            3.5,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(avg_key(a).cmp(&avg_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lazy_heap_pops_in_total_order() {
        // avg ties broken by price, then bid_ref.
        let (slots, cols) = candidates(&[
            (2.0, 5.0, 1, 0),
            (1.0, 9.0, 2, 0),
            (1.0, 3.0, 4, 0),
            (1.0, 3.0, 3, 0),
        ]);
        let mut heap = LazyHeap::default();
        for s in slots {
            heap.push(s, &cols);
        }
        assert_eq!(heap.len(), 4);
        assert_eq!(heap.peek().map(|s| s.idx), Some(3));
        assert_eq!(drain(&mut heap, &cols), vec![3, 2, 1, 0]);
        assert!(heap.is_empty());
        assert!(heap.peek().is_none());
        assert!(heap.pop(&cols).is_none());
    }

    #[test]
    fn heapify_pops_the_same_sequence_as_pushes() {
        let mut next = xorshift(0x4ea9);
        for n in [0, 1, 2, 3, 7, 64, 1_000] {
            let spec = tied_candidates(n, &mut next);
            let (slots, cols) = candidates(&spec);
            let mut pushed = LazyHeap::default();
            for &s in &slots {
                pushed.push(s, &cols);
            }
            let mut filled = LazyHeap::default();
            filled.push(HeapSlot::new(0, -1.0), &cols); // `fill` must drop it
            filled.fill(slots.iter().copied(), &cols);
            assert_eq!(filled.len(), n as usize, "fill replaces the contents");
            let want = drain(&mut pushed, &cols);
            assert_eq!(drain(&mut filled, &cols), want, "{n} slots");
            // The pops follow `(avg, price, bid_ref)`.
            let mut sorted: Vec<u32> = (0..n).collect();
            sorted.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                spec[a]
                    .0
                    .total_cmp(&spec[b].0)
                    .then(cols.price(a).total_cmp(&cols.price(b)))
                    .then(cols.bid_ref(a).cmp(&cols.bid_ref(b)))
            });
            assert_eq!(want, sorted, "{n} slots");
        }
    }

    #[test]
    fn rekeying_the_top_in_place_pops_like_a_pop_plus_a_push() {
        let mut next = xorshift(0x2e4e);
        for n in [1, 2, 3, 7, 64, 1_000] {
            let spec = tied_candidates(n, &mut next);
            let mut avgs: Vec<f64> = spec.iter().map(|c| c.0).collect();
            let (slots, cols) = candidates(&spec);
            let (mut in_place, mut popped) = (LazyHeap::default(), LazyHeap::default());
            in_place.fill(slots.iter().copied(), &cols);
            popped.fill(slots.iter().copied(), &cols);
            // Raise (or keep) the top's average a few times, as a stale
            // entry's refresh does, and pop in between.
            for step in 0..n.min(40) {
                let top = in_place.peek().unwrap();
                assert_eq!(Some(top), popped.peek(), "n = {n}, step {step}");
                avgs[top.idx as usize] += (next() % 3) as f64 * 0.5;
                let key = avg_key(avgs[top.idx as usize]);
                in_place.rekey_top(key, &cols);
                let top = popped.pop(&cols).unwrap();
                popped.push(HeapSlot { key, ..top }, &cols);
                if step % 3 == 2 {
                    assert_eq!(in_place.pop(&cols), popped.pop(&cols));
                }
                if in_place.is_empty() {
                    break;
                }
            }
            assert_eq!(
                drain(&mut in_place, &cols),
                drain(&mut popped, &cols),
                "n = {n}"
            );
        }
    }

    #[test]
    fn scratch_reset_clears_state_and_reuses_capacity() {
        with_scratch(|s| {
            s.reset(10, 5, 3);
            s.loads[4] = 7;
            s.gains[2] = 4;
            s.stamps[2] = 9;
            s.client_selected[1] = true;
            s.index.advance();
            s.index.touch(5);
            let cols = ColumnarBids::from([qb(0, 0, 1.0, 1, 2, 1)].as_slice());
            s.heap.push(HeapSlot::new(0, 1.0), &cols);
            let cap = s.loads.capacity();
            s.reset(6, 4, 2);
            assert!(s.loads.iter().all(|&l| l == 0));
            assert_eq!(s.loads.len(), 6);
            assert!(s.loads.capacity() >= cap.min(6), "capacity reused");
            assert_eq!(s.gains, vec![0; 4]);
            assert_eq!(s.stamps, vec![0; 4]);
            assert!(!s.client_selected.iter().any(|&b| b));
            assert_eq!(s.index.clock(), 0);
            assert!(s.heap.is_empty());
        });
    }

    #[test]
    fn with_scratch_survives_reentrancy() {
        with_scratch(|outer| {
            outer.reset(4, 1, 1);
            outer.loads[0] = 42;
            with_scratch(|inner| {
                inner.reset(4, 1, 1);
                assert_eq!(inner.loads[0], 0, "inner call gets a fresh arena");
            });
            assert_eq!(outer.loads[0], 42, "outer arena untouched");
        });
    }
}
