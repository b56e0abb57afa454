//! Hierarchical timing wheels (Varghese & Lauck, SOSP '87).
//!
//! The paper (§4.2): *"We provide a hierarchical timing wheel
//! implementation for managing network timeouts, such as TCP
//! retransmissions. It is optimized for the common case where most timers
//! are canceled before they expire. We support extremely high-resolution
//! timeouts, as low as 16 µs, which has been shown to improve performance
//! during TCP incast congestion."*
//!
//! [`TimerWheel`] reproduces that component: a 4-level wheel of 256 slots
//! per level with a default 16 µs tick, *true* cancel (entries are
//! unlinked immediately, not lazily), and cascading on level rollover.
//! Timer identity is protected with generation counters so a stale
//! [`TimerId`] can never cancel a reused slot.
//!
//! # Layout
//!
//! The wheel owns one growable buffer, the entry arena, and nothing else
//! that allocates. Each of the 4 × 256 slots is one `u32`: the arena
//! index of the head of a circular doubly-linked chain threaded through
//! the entries' `prev` / `next` (the tail is `head.prev`; a free entry's
//! `next` is the free-list link). An entry records the slot it is
//! chained in, so cancelling it needs no search. One 256-bit occupancy
//! map per level marks the slots that hold a chain.
//!
//! # Cost of each operation
//!
//! * `schedule`, `cancel`: O(1) — at most four entries written.
//! * Cascade and fire: the slot's chain is detached by taking its head
//!   and walked once; every relink is an O(1) append.
//! * `next_deadline_ns`: O(levels + one chain per level) — the
//!   occupancy maps find each level's first occupied slot in rotation
//!   order and only that chain is read (every occupied slot of the top
//!   level, where timers beyond the wheel's span park). A dataplane
//!   thread asks this each time it goes idle.
//! * `advance` across an idle gap: O(live) — every chain is spliced into
//!   one and re-placed relative to the new origin.
//!
//! None of them touches the allocator once the arena has grown to the
//! largest number of timers armed at once.
//!
//! In the IX dataplane the wheel is advanced at step (5) of the
//! run-to-completion loop (Fig 1b); in the Linux model it is advanced from
//! the timer softirq.

use std::fmt;
use std::num::NonZeroU32;

/// The wheel's tick: 16 µs, the paper's highest-resolution timeout.
pub const DEFAULT_RESOLUTION_NS: u64 = 16_000;

/// Slots per wheel level (256, as in the classic design).
pub const SLOTS_PER_LEVEL: usize = 256;

/// Number of levels. Four levels at 16 µs cover 256^4 ticks ≈ 19 hours.
pub const LEVELS: usize = 4;

const SLOT_MASK: u64 = (SLOTS_PER_LEVEL as u64) - 1;
const LEVEL_BITS: u32 = 8;

/// Slots over all levels; a *bucket* is `level * SLOTS_PER_LEVEL + slot`.
const BUCKETS: usize = LEVELS * SLOTS_PER_LEVEL;
/// Occupancy words per level.
const LEVEL_WORDS: usize = SLOTS_PER_LEVEL / 64;

/// No entry: an empty slot, the end of a cut chain or of the free list.
const NIL: u32 = u32::MAX;
/// [`Entry::bucket`] of an entry that is chained nowhere.
const NO_BUCKET: u16 = u16::MAX;

/// Handle to a scheduled timer; required to cancel it. Eight bytes, and
/// so is `Option<TimerId>`: the arena index is stored off by one in a
/// `NonZeroU32`, which leaves `None` the all-zero pattern — a TCB keeps
/// several of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: NonZeroU32,
    generation: u32,
}

impl TimerId {
    fn new(index: u32, generation: u32) -> TimerId {
        // The arena never reaches `NIL` (u32::MAX) entries, so the
        // increment cannot wrap to zero.
        TimerId { slot: NonZeroU32::new(index + 1).expect("arena index below NIL"), generation }
    }

    fn index(self) -> u32 {
        self.slot.get() - 1
    }
}

#[derive(Debug)]
struct Entry<T> {
    /// Absolute expiry tick.
    deadline: u64,
    generation: u32,
    /// Chain neighbours while scheduled (an entry alone in its slot is
    /// its own neighbour). A free entry's `next` is the free-list link.
    prev: u32,
    next: u32,
    /// The bucket the entry is chained in — updated on cascade, so
    /// cancel can unlink in O(1) — or [`NO_BUCKET`].
    bucket: u16,
    payload: Option<T>,
}

/// A hierarchical timing wheel carrying payloads of type `T`.
pub struct TimerWheel<T> {
    /// Head of each bucket's chain, or [`NIL`].
    heads: Box<[u32; BUCKETS]>,
    /// Bit `b` is set iff `heads[b]` is not [`NIL`].
    occupied: [u64; BUCKETS / 64],
    entries: Vec<Entry<T>>,
    free_head: u32,
    /// The current tick (time / resolution).
    now_tick: u64,
    /// Number of live (scheduled, not yet fired/cancelled) timers.
    live: usize,
    /// Counters for the cancel-dominant workload the paper describes.
    scheduled_total: u64,
    cancelled_total: u64,
    fired_total: u64,
}

/// The buckets whose bits are set in occupancy word `word`, ascending.
fn buckets_in(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bucket = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            bucket
        })
    })
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with the 16 µs resolution, starting at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            heads: Box::new([NIL; BUCKETS]),
            occupied: [0; BUCKETS / 64],
            entries: Vec::new(),
            free_head: NIL,
            now_tick: 0,
            live: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            fired_total: 0,
        }
    }

    /// The wheel's tick length in nanoseconds.
    pub fn resolution_ns(&self) -> u64 {
        DEFAULT_RESOLUTION_NS
    }

    /// Number of currently scheduled timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// `(scheduled, cancelled, fired)` lifetime counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.scheduled_total, self.cancelled_total, self.fired_total)
    }

    /// The current time in nanoseconds (tick-quantized).
    pub fn now_ns(&self) -> u64 {
        self.now_tick * DEFAULT_RESOLUTION_NS
    }

    /// `(address, capacity)` of the entry arena, the one buffer the wheel
    /// can grow: the same pair before and after a run means no timer
    /// operation in it allocated.
    #[doc(hidden)]
    pub fn arena_id(&self) -> (usize, usize) {
        (self.entries.as_ptr() as usize, self.entries.capacity())
    }

    fn alloc_entry(&mut self) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.entries[idx as usize].next;
            idx
        } else {
            self.entries.push(Entry {
                deadline: 0,
                generation: 0,
                prev: NIL,
                next: NIL,
                bucket: NO_BUCKET,
                payload: None,
            });
            (self.entries.len() - 1) as u32
        }
    }

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.generation = e.generation.wrapping_add(1);
        e.bucket = NO_BUCKET;
        e.payload = None;
        e.next = self.free_head;
        self.free_head = idx;
    }

    /// Picks the bucket for a deadline, given the current tick.
    fn place(&self, deadline: u64) -> u16 {
        let delta = deadline.saturating_sub(self.now_tick).max(1);
        // Beyond the top level's span a timer parks in the top level, in
        // the slot its digit names; each lap's cascade parks it again
        // until it is in range.
        let level = (0..LEVELS as u32 - 1)
            .find(|level| delta < 1u64 << (LEVEL_BITS * (level + 1)))
            .unwrap_or(LEVELS as u32 - 1);
        let slot = (deadline >> (LEVEL_BITS * level)) & SLOT_MASK;
        (level << LEVEL_BITS) as u16 | slot as u16
    }

    /// The bucket of `level` the current tick points at.
    fn cursor(&self, level: usize) -> usize {
        let slot = (self.now_tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK;
        level * SLOTS_PER_LEVEL + slot as usize
    }

    /// Appends `idx` to `bucket`'s chain.
    fn link(&mut self, idx: u32, bucket: u16) {
        let b = bucket as usize;
        let head = self.heads[b];
        let (prev, next) = if head == NIL {
            self.heads[b] = idx;
            self.occupied[b / 64] |= 1 << (b % 64);
            (idx, idx)
        } else {
            let tail = std::mem::replace(&mut self.entries[head as usize].prev, idx);
            self.entries[tail as usize].next = idx;
            (tail, head)
        };
        let e = &mut self.entries[idx as usize];
        (e.prev, e.next, e.bucket) = (prev, next, bucket);
    }

    /// Takes `idx` out of its chain and moves the chain's tail into the
    /// place it leaves. Which timer of a tick fires after which is
    /// pinned by every golden trace and figure row, and this is the
    /// order the wheel has always produced (its slots began as vectors
    /// and cancel as a `swap_remove`).
    fn unlink(&mut self, idx: u32) {
        let b = std::mem::replace(&mut self.entries[idx as usize].bucket, NO_BUCKET) as usize;
        debug_assert!(b < BUCKETS, "unlink of unlinked entry");
        let head = self.heads[b];
        let tail = self.entries[head as usize].prev;
        if head == tail {
            self.heads[b] = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
            return;
        }
        // Detach the tail…
        let new_tail = self.entries[tail as usize].prev;
        self.entries[new_tail as usize].next = head;
        self.entries[head as usize].prev = new_tail;
        if idx == tail {
            return;
        }
        // …and give it `idx`'s neighbours: itself, when `idx` is all
        // that is left.
        let e = &self.entries[idx as usize];
        let (prev, next) = if e.next == idx { (tail, tail) } else { (e.prev, e.next) };
        let t = &mut self.entries[tail as usize];
        (t.prev, t.next) = (prev, next);
        self.entries[prev as usize].next = tail;
        self.entries[next as usize].prev = tail;
        if head == idx {
            self.heads[b] = tail;
        }
    }

    /// Empties `bucket` for walking: returns the head of its chain with
    /// the circle cut (the tail's `next` is [`NIL`]), or [`NIL`]. The
    /// walker reads an entry's `next` before it relinks or frees the
    /// entry; a relink may land back in the bucket being walked.
    fn detach(&mut self, bucket: usize) -> u32 {
        let head = std::mem::replace(&mut self.heads[bucket], NIL);
        if head != NIL {
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
            let tail = self.entries[head as usize].prev;
            self.entries[tail as usize].next = NIL;
        }
        head
    }

    /// Re-places every entry of a cut chain, head to tail.
    fn relink_chain(&mut self, mut idx: u32) {
        while idx != NIL {
            let next = self.entries[idx as usize].next;
            let bucket = self.place(self.entries[idx as usize].deadline);
            self.link(idx, bucket);
            idx = next;
        }
    }

    /// Absolute tick `delay_ns` from the wheel's current time, rounded
    /// *up* to the next tick so timers never fire early.
    fn deadline_after(&self, delay_ns: u64) -> u64 {
        self.now_tick + delay_ns.div_ceil(DEFAULT_RESOLUTION_NS).max(1)
    }

    /// Arms a timer for `deadline` in `bucket` (its [`TimerWheel::place`]).
    fn arm(&mut self, deadline: u64, bucket: u16, payload: T) -> TimerId {
        let idx = self.alloc_entry();
        let e = &mut self.entries[idx as usize];
        e.deadline = deadline;
        e.payload = Some(payload);
        let generation = e.generation;
        self.link(idx, bucket);
        self.live += 1;
        self.scheduled_total += 1;
        TimerId::new(idx, generation)
    }

    /// Schedules a timer `delay_ns` from the wheel's current time,
    /// rounding *up* to the next tick so timers never fire early.
    pub fn schedule(&mut self, delay_ns: u64, payload: T) -> TimerId {
        let deadline = self.deadline_after(delay_ns);
        self.arm(deadline, self.place(deadline), payload)
    }

    /// Cancels a timer, returning its payload if it was still pending.
    /// Cancelling an already-fired or already-cancelled timer returns
    /// `None`.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        self.cancel_with_remaining(id).map(|(payload, _)| payload)
    }

    /// Cancels a timer and reports its residual delay (tick-quantized,
    /// 0 when due): `(payload, remaining_ns)`, or `None` if it already
    /// fired or was cancelled. This is the migration-extract primitive:
    /// the residual goes onto another core's wheel, because re-arming at
    /// the full interval instead would let frequent migration postpone a
    /// deadline indefinitely.
    pub fn cancel_with_remaining(&mut self, id: TimerId) -> Option<(T, u64)> {
        let e = self.entries.get(id.index() as usize)?;
        if e.generation != id.generation || e.bucket == NO_BUCKET {
            return None;
        }
        let remaining = e.deadline.saturating_sub(self.now_tick) * DEFAULT_RESOLUTION_NS;
        self.unlink(id.index());
        let payload =
            self.entries[id.index() as usize].payload.take().expect("live entry has payload");
        self.free_entry(id.index());
        self.live -= 1;
        self.cancelled_total += 1;
        Some((payload, remaining))
    }

    /// Bulk cancel: invokes `sink(payload, remaining_ns)` for every id
    /// that was still pending; stale ids are skipped silently. Behaves
    /// exactly like [`TimerWheel::cancel_with_remaining`] per id.
    pub fn cancel_batch(
        &mut self,
        ids: impl IntoIterator<Item = TimerId>,
        mut sink: impl FnMut(T, u64),
    ) {
        for id in ids {
            if let Some((payload, remaining)) = self.cancel_with_remaining(id) {
                sink(payload, remaining);
            }
        }
    }

    /// Bulk schedule: arms every `(delay_ns, payload)` item and hands
    /// its [`TimerId`] to `sink`, in order. Identical fire semantics to
    /// calling [`TimerWheel::schedule`] per item (same tick rounding,
    /// same order within a slot) but amortized for migration-sized
    /// batches: the entry arena is grown once up front, and the wheel
    /// position is resolved once per run of equal deadlines — absorbed
    /// flow groups carry long runs of identical residual delays, which
    /// append to one slot chain without re-deriving its bucket each
    /// time.
    pub fn schedule_batch(
        &mut self,
        items: impl IntoIterator<Item = (u64, T)>,
        mut sink: impl FnMut(TimerId),
    ) {
        let items = items.into_iter();
        let (lo, hi) = items.size_hint();
        let n = hi.unwrap_or(lo);
        // A fully-idle wheel arming a migration-sized batch: relink the
        // free list in ascending arena order (generations untouched, so
        // stale-handle protection is unaffected) — allocations then
        // walk the arena sequentially instead of hopping across the
        // LIFO scars of the preceding cancel storm, one streamed write
        // per entry instead of a cold miss.
        if self.live == 0 && self.free_head != NIL && n >= 1024 {
            self.free_head = NIL;
            for i in (0..self.entries.len()).rev() {
                self.entries[i].next = self.free_head;
                self.free_head = i as u32;
            }
        }
        self.entries.reserve(n);
        // (deadline, bucket) of the previous item: consecutive equal
        // deadlines skip `place`.
        let mut last: Option<(u64, u16)> = None;
        for (delay_ns, payload) in items {
            let deadline = self.deadline_after(delay_ns);
            let bucket = match last {
                Some((d, bucket)) if d == deadline => bucket,
                _ => self.place(deadline),
            };
            last = Some((deadline, bucket));
            sink(self.arm(deadline, bucket, payload));
        }
    }

    /// The first occupied bucket of `level` in rotation order, from the
    /// one after the cursor round to the cursor itself.
    fn first_occupied_after_cursor(&self, level: usize) -> Option<usize> {
        let words = &self.occupied[level * LEVEL_WORDS..][..LEVEL_WORDS];
        // The slot after the cursor's (a bucket modulo 256 is its slot).
        let start = (self.cursor(level) + 1) % SLOTS_PER_LEVEL;
        // The start word from the start bit up, the other words, then
        // the start word's bits below the start bit.
        let upper = !0u64 << (start % 64);
        (0..=LEVEL_WORDS).find_map(|i| {
            let w = (start / 64 + i) % LEVEL_WORDS;
            let mask = match i {
                0 => upper,
                LEVEL_WORDS => !upper,
                _ => !0,
            };
            let bits = words[w] & mask;
            (bits != 0)
                .then(|| level * SLOTS_PER_LEVEL + w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Earliest deadline in `bucket`'s chain, which must not be empty.
    fn chain_min(&self, bucket: usize) -> u64 {
        let head = self.heads[bucket];
        let (mut best, mut idx) = (u64::MAX, head);
        loop {
            let e = &self.entries[idx as usize];
            best = best.min(e.deadline);
            idx = e.next;
            if idx == head {
                return best;
            }
        }
    }

    /// Absolute tick of the earliest pending timer, or `None` when idle.
    ///
    /// Below the top level, the slot `r` places past the cursor holds
    /// only deadlines whose digit at that level is `r` ahead of the
    /// current tick's, and the slot *at* the cursor only the lap after
    /// (256 ahead): the level's earliest deadline is in its first
    /// occupied slot in rotation order. A timer beyond the wheel's span
    /// parks in the top level under whatever its digit is, so there
    /// every occupied slot is read.
    fn next_deadline_tick(&self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let top = LEVELS - 1;
        let below = (0..top).filter_map(|level| self.first_occupied_after_cursor(level));
        let parked = (top * LEVEL_WORDS..LEVELS * LEVEL_WORDS)
            .flat_map(|word| buckets_in(word, self.occupied[word]));
        below.chain(parked).map(|bucket| self.chain_min(bucket)).min()
    }

    /// Nanoseconds until the next pending timer fires, or `None` when the
    /// wheel is idle.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        let tick = self.next_deadline_tick()?;
        Some(tick.saturating_sub(self.now_tick) * DEFAULT_RESOLUTION_NS)
    }

    /// Teleports the wheel to `tick` (which must not skip any deadline)
    /// and re-places every live entry relative to the new origin, so that
    /// cascades that "should have happened" during the skipped interval
    /// are reconstructed. O(live).
    fn jump_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.now_tick);
        // Splice every chain, in bucket order, into one.
        let (mut first, mut last) = (NIL, NIL);
        for word in 0..self.occupied.len() {
            for bucket in buckets_in(word, self.occupied[word]) {
                let tail = self.entries[self.heads[bucket] as usize].prev;
                let head = self.detach(bucket);
                if first == NIL {
                    first = head;
                } else {
                    self.entries[last as usize].next = head;
                }
                last = tail;
            }
        }
        self.now_tick = tick;
        self.relink_chain(first);
    }

    /// With `target_tick` far ahead: crosses the idle gap in front of
    /// the wheel, if there is one, in O(live) rather than O(ticks).
    /// Returns true when that reached `target_tick`.
    fn skip_idle_gap(&mut self, target_tick: u64) -> bool {
        match self.next_deadline_tick() {
            None => self.now_tick = target_tick,
            Some(d) if d > target_tick => self.jump_to(target_tick),
            Some(d) => {
                if d > self.now_tick + 1 {
                    self.jump_to(d - 1);
                }
                return false;
            }
        }
        true
    }

    /// Advances the wheel to `now_ns`, invoking `fire` for every expired
    /// timer in deadline order.
    ///
    /// Timers of one tick fire in the order they lie in that tick's
    /// chain. That order is a pure function of the calls made, but it is
    /// *not* schedule order: a timer joins the chain's end when it is
    /// scheduled within 256 ticks of its deadline, or else when it
    /// cascades down to level 0; a cancel moves the chain's last timer
    /// into the cancelled one's place; crossing an idle gap re-places
    /// every timer.
    ///
    /// Long idle gaps are skipped in O(live) rather than O(ticks), so a
    /// quiescent stack can be advanced across seconds cheaply.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(T)) {
        let target_tick = now_ns / DEFAULT_RESOLUTION_NS;
        const JUMP_THRESHOLD: u64 = 4 * SLOTS_PER_LEVEL as u64;
        // Look for a gap on entry, then once per lap of level 0 (a jump
        // re-places every live timer, so amortize it over 256 ticks).
        let mut look = true;
        while self.now_tick < target_tick {
            if look
                && target_tick > self.now_tick + JUMP_THRESHOLD
                && self.skip_idle_gap(target_tick)
            {
                return;
            }
            self.now_tick += 1;
            look = self.now_tick & SLOT_MASK == 0;
            // Cascade: when a level-k digit rolls over to 0, redistribute
            // the corresponding slot of level k+1.
            for level in 1..LEVELS {
                let below_mask = (1u64 << (LEVEL_BITS * level as u32)) - 1;
                if self.now_tick & below_mask != 0 {
                    break;
                }
                let chain = self.detach(self.cursor(level));
                self.relink_chain(chain);
            }
            // Fire the level-0 slot for this tick. Every entry in it is
            // due: level 0 only ever holds deadlines fewer than 256 ticks
            // out, and cascades re-place entries with `place`.
            let mut idx = self.detach(self.cursor(0));
            while idx != NIL {
                let e = &mut self.entries[idx as usize];
                let next = e.next;
                debug_assert!(e.deadline <= self.now_tick, "level-0 entry not yet due");
                let payload = e.payload.take().expect("live entry has payload");
                self.free_entry(idx);
                self.live -= 1;
                self.fired_total += 1;
                fire(payload);
                idx = next;
            }
        }
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> TimerWheel<T> {
        TimerWheel::new()
    }
}

impl<T> fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimerWheel")
            .field("now_tick", &self.now_tick)
            .field("live", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_optional_handle_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<TimerId>>(), 8);
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let first = w.schedule(1, 7);
        assert_eq!(first.index(), 0, "arena index 0 is a valid handle");
        assert_eq!(w.cancel(first), Some(7));
    }

    #[test]
    fn rearming_an_rto_leaves_the_arena_alone() {
        // The RTO pattern — armed 200 ms out, cancelled and re-armed
        // every 50 µs — walks into a fresh level-1 slot every 256 ticks.
        // A second lap of level 1 must find the arena exactly as the
        // first left it: slots are chain heads, not buffers to grow.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let lap_ns = (SLOTS_PER_LEVEL * SLOTS_PER_LEVEL) as u64 * w.resolution_ns();
        let mut id = w.schedule(200_000_000, 0);
        let mut now = 0;
        let mut lap = |w: &mut TimerWheel<u32>| {
            for _ in 0..lap_ns / 50_000 {
                now += 50_000;
                w.advance(now, |_| panic!("premature fire"));
                assert!(w.cancel(id).is_some());
                id = w.schedule(200_000_000, 0);
            }
            (w.entries.len(), w.arena_id())
        };
        let first = lap(&mut w);
        assert_eq!(first.0, 1, "one timer, one entry");
        assert_eq!(lap(&mut w), first, "the second lap grew or moved the arena");
    }

    #[test]
    fn cancel_moves_the_chains_last_timer_into_the_gap() {
        // The documented order within one tick, which the golden traces
        // depend on.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let ids: Vec<TimerId> = (0..5).map(|p| w.schedule(48_000, p)).collect();
        let mut fired = Vec::new();
        assert_eq!(w.cancel(ids[1]), Some(1));
        w.schedule(48_000, 5);
        assert_eq!(w.cancel(ids[0]), Some(0));
        assert_eq!(w.cancel(ids[3]), Some(3));
        w.advance(48_000, |p| fired.push(p));
        assert_eq!(fired, vec![5, 4, 2]);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(50_000, 1); // 50 µs -> ceil to 4 ticks = 64 µs.
        let mut fired = Vec::new();
        w.advance(49_999, |p| fired.push(p));
        assert!(fired.is_empty());
        w.advance(64_000, |p| fired.push(p));
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn cancel_before_expiry() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new();
        let id = w.schedule(100_000, "rto");
        assert_eq!(w.live(), 1);
        assert_eq!(w.cancel(id), Some("rto"));
        assert_eq!(w.live(), 0);
        let mut fired = Vec::new();
        w.advance(1_000_000, |p| fired.push(p));
        assert!(fired.is_empty());
        // Double-cancel is a no-op.
        assert_eq!(w.cancel(id), None);
    }

    #[test]
    fn stale_id_cannot_cancel_reused_entry() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let id1 = w.schedule(16_000, 1);
        w.advance(16_000, |_| {});
        // Entry slot is reused for a new timer.
        let _id2 = w.schedule(16_000, 2);
        assert_eq!(w.cancel(id1), None);
        assert_eq!(w.live(), 1);
    }

    #[test]
    fn many_timers_fire_in_order() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        // Deadlines spread over several levels.
        let delays: Vec<u64> = vec![
            16_000,      // 1 tick
            160_000,     // 10 ticks
            4_096_000,   // 256 ticks (level 1)
            10_000_000,  // 625 ticks
            100_000_000, // 6250 ticks
            2_000_000_000, // 125k ticks (level 2)
        ];
        for &d in &delays {
            w.schedule(d, d);
        }
        let mut fired = Vec::new();
        w.advance(3_000_000_000, |p| fired.push(p));
        assert_eq!(fired, delays);
    }

    #[test]
    fn cascade_preserves_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // 300 ticks: lives on level 1 initially, cascades to level 0.
        let delay = 300 * DEFAULT_RESOLUTION_NS;
        w.schedule(delay, 7);
        let mut hits = Vec::new();
        // Step in small increments past the cascade boundary.
        let mut t = 0;
        while t < 299 * DEFAULT_RESOLUTION_NS {
            t += DEFAULT_RESOLUTION_NS * 13;
            w.advance(t.min(299 * DEFAULT_RESOLUTION_NS), |p| hits.push(p));
        }
        assert!(hits.is_empty(), "fired early at {t}");
        w.advance(300 * DEFAULT_RESOLUTION_NS, |p| hits.push(p));
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn reschedule_pattern_like_tcp_rto() {
        // The cancel-dominant pattern: schedule, cancel, reschedule on
        // every ACK; only the last one fires.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut id = w.schedule(200_000_000, 0);
        for i in 1..1000u32 {
            w.advance(i as u64 * 50_000, |_| panic!("premature fire"));
            assert!(w.cancel(id).is_some());
            id = w.schedule(200_000_000, i);
        }
        let (s, c, f) = w.counters();
        assert_eq!(s, 1000);
        assert_eq!(c, 999);
        assert_eq!(f, 0);
        let mut fired = Vec::new();
        w.advance(999 * 50_000 + 200_000_000, |p| fired.push(p));
        assert_eq!(fired, vec![999]);
    }

    #[test]
    fn next_deadline_reporting() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.next_deadline_ns(), None);
        w.schedule(100_000, 1);
        let nd = w.next_deadline_ns().unwrap();
        // 100 µs rounds up to 7 ticks = 112 µs.
        assert_eq!(nd, 112_000);
    }

    #[test]
    fn next_deadline_reads_the_cursor_slot_as_the_lap_after() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let res = w.resolution_ns();
        w.advance(255 * res, |_| {});
        // Tick 65 536 from tick 255: level 1, slot 0 — the slot level 1's
        // cursor is on, a whole lap away.
        let far = w.schedule(65_281 * res, 1);
        assert_eq!(w.next_deadline_ns(), Some(65_281 * res));
        // Tick 65 000: level 1, slot 253, which rotation order meets first.
        let near = w.schedule(64_745 * res, 2);
        assert_eq!(w.next_deadline_ns(), Some(64_745 * res));
        // Tick 256 (level 1, slot 1) is due before tick 300 (level 0).
        w.schedule(45 * res, 3);
        w.schedule(res, 4);
        assert_eq!(w.next_deadline_ns(), Some(res));
        w.advance(256 * res, |p| assert_eq!(p, 4));
        assert_eq!(w.next_deadline_ns(), Some(44 * res));
        w.advance(300 * res, |p| assert_eq!(p, 3));
        assert_eq!(w.cancel(near), Some(2));
        assert_eq!(w.next_deadline_ns(), Some((65_536 - 300) * res));
        // Beyond the wheel's span a timer parks in the top level under
        // its digit, here behind a nearer one's.
        let span = 1u64 << 32;
        w.schedule((span + (3 << 24)) * res, 5);
        w.schedule((5 << 24) * res, 6);
        assert_eq!(w.cancel(far), Some(1));
        assert_eq!(w.next_deadline_ns(), Some((5 << 24) * res));
    }

    #[test]
    fn zero_delay_fires_next_tick() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(0, 9);
        let mut fired = Vec::new();
        w.advance(DEFAULT_RESOLUTION_NS, |p| fired.push(p));
        assert_eq!(fired, vec![9]);
    }

    #[test]
    fn far_future_beyond_top_level() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // ~78 hours: beyond the 19-hour span of four levels.
        let delay = 78 * 3600 * 1_000_000_000u64;
        w.schedule(delay, 1);
        let mut fired = Vec::new();
        // Advance in big steps; expensive but correctness-only path.
        w.advance(delay + DEFAULT_RESOLUTION_NS, |p| fired.push(p));
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn cancel_with_remaining_reports_the_residual_delay() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // 1 ms rounds up to 63 ticks; 300 µs is 18 whole ticks in.
        let id = w.schedule(1_000_000, 1);
        w.advance(300_000, |_| panic!("early"));
        assert_eq!(w.cancel_with_remaining(id), Some((1, 45 * DEFAULT_RESOLUTION_NS)));
        assert_eq!(w.live(), 0);
        assert_eq!(w.counters(), (1, 1, 0));
        // Stale id: nothing to report.
        assert_eq!(w.cancel_with_remaining(id), None);
    }

    #[test]
    fn schedule_batch_is_equivalent_to_sequential_schedules() {
        // Same delays, one wheel batched and one sequential: identical
        // fire order (incl. per-slot ties) and counters.
        let delays: Vec<u64> =
            (0..500u64).map(|i| 16_000 + (i % 7) * 3_000_000 + (i % 3) * 16_000).collect();
        let mut seq: TimerWheel<u64> = TimerWheel::new();
        let mut bat: TimerWheel<u64> = TimerWheel::new();
        for (i, &d) in delays.iter().enumerate() {
            seq.schedule(d, i as u64);
        }
        let mut ids = Vec::new();
        bat.schedule_batch(
            delays.iter().enumerate().map(|(i, &d)| (d, i as u64)),
            |id| ids.push(id),
        );
        assert_eq!(ids.len(), delays.len());
        assert_eq!(bat.live(), seq.live());
        let mut fs = Vec::new();
        let mut fb = Vec::new();
        seq.advance(1_000_000_000, |p| fs.push(p));
        bat.advance(1_000_000_000, |p| fb.push(p));
        assert_eq!(fb, fs, "batched schedule changed fire order");
    }

    #[test]
    fn cancel_batch_skips_stale_ids() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let a = w.schedule(100_000, 1);
        let b = w.schedule(200_000, 2);
        let c = w.schedule(300_000, 3);
        assert!(w.cancel(b).is_some());
        let mut got = Vec::new();
        w.cancel_batch([a, b, c], |p, rem| got.push((p, rem)));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 3);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn high_volume_mixed_workload() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            ids.push((i, w.schedule(16_000 + (i % 977) * 31_000, i)));
        }
        // Cancel every third timer.
        let mut expect: Vec<u64> = Vec::new();
        for (i, id) in &ids {
            if i % 3 == 0 {
                assert!(w.cancel(*id).is_some());
            } else {
                expect.push(*i);
            }
        }
        let mut fired = Vec::new();
        w.advance(977 * 31_000 + 1_000_000, |p| fired.push(p));
        fired.sort_unstable();
        expect.sort_unstable();
        assert_eq!(fired, expect);
        assert_eq!(w.live(), 0);
    }
}
