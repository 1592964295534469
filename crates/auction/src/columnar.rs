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
//! instance order" (the same order as the source `&[QualifiedBid]` slice):
//!
//! ```text
//! index type  column          contents
//! ----------  --------------  ------------------------------------------
//! BidRef      refs[i]         the paper's pair (i, j) — the API identity
//! u32         client_slots[i] dense per-WDP client index (see below)
//! f64         prices[i]       claimed cost b_ij
//! f64         accuracies[i]   local accuracy θ_ij
//! u32         starts[i]       window start a_ij, 1-based round number
//! u32         ends[i]         window end d_ij, inclusive, 1-based
//! u32         rounds[i]       participation rounds c_ij
//! f64         round_times[i]  per-round wall clock t_ij
//! ```
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
//! * **client slot** `u32` — a dense renumbering of the (possibly sparse)
//!   [`ClientId`](crate::ClientId) space, assigned in first-appearance
//!   order during construction. `client_slots` lets the greedy keep its
//!   "at most one bid per client" bitmap in a flat `Vec<bool>` instead of
//!   a hash set, without assuming anything about raw client ids.
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
//!   sorting the order buffer, the heap while reading the selection
//!   bitmaps). No scratch buffer ever aliases a column.
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
//! whole run — and the queue counts (and re-inserts) it only if the
//! recomputed gain actually differs from the cached key; a conservative
//! bucket hit with an unchanged gain is accepted as the exact minimum on
//! the spot. `winner.lazy_refreshes` therefore measures the workload's
//! intrinsic invalidation pressure (≈ 5× iterations on Fig. 3, whose
//! narrow windows put `c` near the window width) instead of queue
//! staleness bookkeeping.
//!
//! The seed reads neither the loads nor the index: before the first
//! selection no round is saturated, so every bid's gain is
//! `min(c, d − a + 1)` under either schedule policy. The seed entries are
//! heapified in one bottom-up pass ([`LazyHeap::fill`], `O(n)`) instead of
//! `n` pushes; live keys are unique, so the pop sequence is the same.

use std::cell::RefCell;
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

/// The qualified bids of one WDP as parallel columns (see the
/// [module docs](self) for the layout). Construct with
/// [`From<&[QualifiedBid]>`](#impl-From%3C%26%5BQualifiedBid%5D%3E-for-ColumnarBids);
/// immutable afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBids {
    refs: Vec<BidRef>,
    client_slots: Vec<u32>,
    num_clients: usize,
    prices: Vec<f64>,
    accuracies: Vec<f64>,
    starts: Vec<u32>,
    ends: Vec<u32>,
    rounds: Vec<u32>,
    round_times: Vec<f64>,
}

impl From<&[QualifiedBid]> for ColumnarBids {
    fn from(bids: &[QualifiedBid]) -> ColumnarBids {
        let n = bids.len();
        let mut cols = ColumnarBids {
            refs: Vec::with_capacity(n),
            client_slots: Vec::with_capacity(n),
            num_clients: 0,
            prices: Vec::with_capacity(n),
            accuracies: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            rounds: Vec::with_capacity(n),
            round_times: Vec::with_capacity(n),
        };
        // Dense client slots in first-appearance order: deterministic, and
        // independent of how sparse the raw ClientId space is. Qualified
        // rows arrive client-major, so a repeat of the previous client
        // reuses its slot and the map sees each client about once.
        let mut slot_of: HashMap<u32, u32, BuildHasherDefault<ClientIdHasher>> = HashMap::default();
        let mut last: Option<(u32, u32)> = None;
        for b in bids {
            let client = b.bid_ref.client.0;
            let slot = match last {
                Some((c, slot)) if c == client => slot,
                _ => {
                    let next = slot_of.len() as u32;
                    let slot = *slot_of.entry(client).or_insert(next);
                    last = Some((client, slot));
                    slot
                }
            };
            cols.refs.push(b.bid_ref);
            cols.client_slots.push(slot);
            cols.prices.push(b.price);
            cols.accuracies.push(b.accuracy);
            cols.starts.push(b.window.start().0);
            cols.ends.push(b.window.end().0);
            cols.rounds.push(b.rounds);
            cols.round_times.push(b.round_time);
        }
        cols.num_clients = slot_of.len();
        cols
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
    /// Number of bids (every column has exactly this length).
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the store holds no bids.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Number of distinct clients across the bids.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// The bid reference `(i, j)` of bid `i`.
    pub fn bid_ref(&self, i: usize) -> BidRef {
        self.refs[i]
    }

    /// The dense client slot of bid `i` (in `0..num_clients()`).
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

/// One lazy-queue entry: a candidate bid with its cached evaluation.
///
/// `avg`/`gain` are exact as of logical time `stamp`; by the lazy-greedy
/// monotonicity argument the cached `avg` is a lower bound on the current
/// one whenever the entry is stale. The schedule is deliberately **not**
/// cached — re-deriving it for the one winner per iteration is cheaper
/// than carrying a `Vec` per entry through a million-slot heap.
#[derive(Debug, Clone, Copy)]
pub struct HeapSlot {
    /// Cached average cost `ρ / R_il(S)` at `stamp`.
    pub avg: f64,
    /// The bid's price (first tie-break key).
    pub price: f64,
    /// The bid's reference (final, total tie-break key).
    pub bid_ref: BidRef,
    /// Bid index into the columns.
    pub idx: u32,
    /// Cached marginal utility `R_il(S)` at `stamp`.
    pub gain: u32,
    /// [`CoverageIndex::clock`] value the entry was computed at.
    pub stamp: u64,
}

impl HeapSlot {
    /// Strict "sorts earlier" comparison on `(avg, price, bid_ref)` — the
    /// same deterministic total order as the full scan's `better`.
    fn sorts_before(&self, other: &HeapSlot) -> bool {
        self.avg
            .total_cmp(&other.avg)
            .then(self.price.total_cmp(&other.price))
            .then(self.bid_ref.cmp(&other.bid_ref))
            .is_lt()
    }
}

/// A grow-only binary **min**-heap over [`HeapSlot`]s, ordered by
/// `(avg, price, bid_ref)`, with storage that survives
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
    pub fn fill(&mut self, slots: impl IntoIterator<Item = HeapSlot>) {
        self.slots.clear();
        self.slots.extend(slots);
        for i in (0..self.slots.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Inserts an entry.
    pub fn push(&mut self, slot: HeapSlot) {
        self.slots.push(slot);
        self.sift_up(self.slots.len() - 1);
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<HeapSlot> {
        if self.slots.is_empty() {
            return None;
        }
        let last = self.slots.len() - 1;
        self.slots.swap(0, last);
        let top = self.slots.pop();
        if !self.slots.is_empty() {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i].sorts_before(&self.slots[parent]) {
                self.slots.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < n && self.slots[l].sorts_before(&self.slots[min]) {
                min = l;
            }
            if r < n && self.slots[r].sorts_before(&self.slots[min]) {
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
    /// Per-bid "this pair is already selected" bitmap.
    pub pair_selected: Vec<bool>,
    /// Per-client-slot "this client already won a bid" bitmap.
    pub client_selected: Vec<bool>,
    /// The bucketed invalidation index.
    pub index: CoverageIndex,
    /// The lazy candidate queue.
    pub heap: LazyHeap,
}

impl SweepScratch {
    /// Re-initialises every buffer for a fresh greedy run over `bids` bids
    /// from `clients` distinct clients at `horizon` rounds, reusing all
    /// existing capacity.
    pub fn reset(&mut self, horizon: u32, bids: usize, clients: usize) {
        self.loads.clear();
        self.loads.resize(horizon as usize, 0);
        self.order.clear();
        self.schedule.clear();
        self.pair_selected.clear();
        self.pair_selected.resize(bids, false);
        self.client_selected.clear();
        self.client_selected.resize(clients, false);
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
        assert_eq!(cols.num_clients(), 3);
        let slots: Vec<u32> = (0..cols.len()).map(|i| cols.client_slot(i)).collect();
        assert_eq!(slots, vec![0, 1, 0, 2]);
    }

    #[test]
    fn empty_store_is_empty() {
        let cols = ColumnarBids::from([].as_slice());
        assert!(cols.is_empty());
        assert_eq!(cols.num_clients(), 0);
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

    #[test]
    fn lazy_heap_pops_in_total_order() {
        let slot = |avg: f64, price: f64, client: u32| HeapSlot {
            avg,
            price,
            bid_ref: BidRef::new(ClientId(client), 0),
            idx: client,
            gain: 1,
            stamp: 0,
        };
        let mut heap = LazyHeap::default();
        // avg ties broken by price, then bid_ref.
        for s in [
            slot(2.0, 5.0, 1),
            slot(1.0, 9.0, 2),
            slot(1.0, 3.0, 4),
            slot(1.0, 3.0, 3),
        ] {
            heap.push(s);
        }
        assert_eq!(heap.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop()).map(|s| s.idx).collect();
        assert_eq!(order, vec![3, 4, 2, 1]);
        assert!(heap.is_empty());
        assert!(heap.pop().is_none());
    }

    #[test]
    fn heapify_pops_the_same_sequence_as_pushes() {
        let mut state = 0x4ea9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let slot = |avg: f64, price: f64, client: u32, idx: u32| HeapSlot {
            avg,
            price,
            bid_ref: BidRef::new(ClientId(client), idx),
            idx,
            gain: 1,
            stamp: 0,
        };
        for n in [0, 1, 2, 3, 7, 64, 1_000] {
            // Few distinct averages and prices, so the ties reach
            // `bid_ref`; every `bid_ref` is unique.
            let slots: Vec<HeapSlot> = (0..n)
                .map(|i| {
                    slot(
                        (next() % 5) as f64 * 0.5,
                        (next() % 3) as f64,
                        (next() % 50) as u32,
                        i,
                    )
                })
                .collect();
            let mut pushed = LazyHeap::default();
            for &s in &slots {
                pushed.push(s);
            }
            let mut filled = LazyHeap::default();
            filled.push(slot(-1.0, 0.0, 0, u32::MAX)); // `fill` must drop it
            filled.fill(slots.iter().copied());
            assert_eq!(filled.len(), n as usize, "fill replaces the contents");
            let drain = |heap: &mut LazyHeap| -> Vec<u32> {
                std::iter::from_fn(|| heap.pop()).map(|s| s.idx).collect()
            };
            assert_eq!(drain(&mut filled), drain(&mut pushed), "{n} slots");
        }
    }

    #[test]
    fn scratch_reset_clears_state_and_reuses_capacity() {
        with_scratch(|s| {
            s.reset(10, 5, 3);
            s.loads[4] = 7;
            s.pair_selected[2] = true;
            s.client_selected[1] = true;
            s.index.advance();
            s.index.touch(5);
            s.heap.push(HeapSlot {
                avg: 1.0,
                price: 1.0,
                bid_ref: BidRef::new(ClientId(0), 0),
                idx: 0,
                gain: 1,
                stamp: 0,
            });
            let cap = s.loads.capacity();
            s.reset(6, 4, 2);
            assert!(s.loads.iter().all(|&l| l == 0));
            assert_eq!(s.loads.len(), 6);
            assert!(s.loads.capacity() >= cap.min(6), "capacity reused");
            assert!(!s.pair_selected.iter().any(|&b| b));
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
