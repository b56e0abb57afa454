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
//! per level with a default 16 µs tick, O(1) schedule, O(1) *true* cancel
//! (entries are unlinked immediately, not lazily), and cascading on level
//! rollover. Timer identity is protected with generation counters so a
//! stale [`TimerId`] can never cancel a reused slot.
//!
//! In the IX dataplane the wheel is advanced at step (5) of the
//! run-to-completion loop (Fig 1b); in the Linux model it is advanced from
//! the timer softirq.

use std::fmt;
use std::num::NonZeroU32;

/// Default tick: 16 µs, the paper's highest-resolution timeout.
pub const DEFAULT_RESOLUTION_NS: u64 = 16_000;

/// Slots per wheel level (256, as in the classic design).
pub const SLOTS_PER_LEVEL: usize = 256;

/// Number of levels. Four levels at 16 µs cover 256^4 ticks ≈ 19 hours.
pub const LEVELS: usize = 4;

const SLOT_MASK: u64 = (SLOTS_PER_LEVEL as u64) - 1;
const LEVEL_BITS: u32 = 8;

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
    /// Where the entry currently lives: (level, slot, position) — updated
    /// on cascade so cancel can unlink in O(1).
    location: Option<(u8, u16, u32)>,
    payload: Option<T>,
    next_free: u32,
}

/// A hierarchical timing wheel carrying payloads of type `T`.
pub struct TimerWheel<T> {
    resolution_ns: u64,
    /// `slots[level][slot]` holds indices into `entries`.
    slots: Vec<Vec<Vec<u32>>>,
    /// The empty vector left in a slot while `advance` walks the slot's
    /// entries (relinks may land back in the slot being walked); the
    /// walked vector becomes the next spare, so slot buffers circulate
    /// and none is ever dropped and regrown.
    spare: Vec<u32>,
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

const NIL: u32 = u32::MAX;

impl<T> TimerWheel<T> {
    /// Creates a wheel with the default 16 µs resolution, starting at
    /// time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel::with_resolution(DEFAULT_RESOLUTION_NS)
    }

    /// Creates a wheel with a custom tick length in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ns` is zero.
    pub fn with_resolution(resolution_ns: u64) -> TimerWheel<T> {
        assert!(resolution_ns > 0);
        TimerWheel {
            resolution_ns,
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS_PER_LEVEL).map(|_| Vec::new()).collect())
                .collect(),
            spare: Vec::new(),
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
        self.resolution_ns
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
        self.now_tick * self.resolution_ns
    }

    fn alloc_entry(&mut self) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.entries[idx as usize].next_free;
            idx
        } else {
            self.entries.push(Entry {
                deadline: 0,
                generation: 0,
                location: None,
                payload: None,
                next_free: NIL,
            });
            (self.entries.len() - 1) as u32
        }
    }

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.generation = e.generation.wrapping_add(1);
        e.location = None;
        e.payload = None;
        e.next_free = self.free_head;
        self.free_head = idx;
    }

    /// Picks the level and slot for a deadline, given the current tick.
    fn place(&self, deadline: u64) -> (u8, u16) {
        let delta = deadline.saturating_sub(self.now_tick).max(1);
        for level in 0..LEVELS as u32 {
            let span = 1u64 << (LEVEL_BITS * (level + 1));
            if delta < span {
                let slot = (deadline >> (LEVEL_BITS * level)) & SLOT_MASK;
                return (level as u8, slot as u16);
            }
        }
        // Beyond the top level: park in the furthest top-level slot.
        let level = (LEVELS - 1) as u32;
        let slot = (deadline >> (LEVEL_BITS * level)) & SLOT_MASK;
        ((LEVELS - 1) as u8, slot as u16)
    }

    fn link(&mut self, idx: u32, level: u8, slot: u16) {
        let list = &mut self.slots[level as usize][slot as usize];
        let pos = list.len() as u32;
        list.push(idx);
        self.entries[idx as usize].location = Some((level, slot, pos));
    }

    fn unlink(&mut self, idx: u32) {
        let (level, slot, pos) = self.entries[idx as usize]
            .location
            .take()
            .expect("unlink of unlinked entry");
        let list = &mut self.slots[level as usize][slot as usize];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.entries[moved as usize].location = Some((level, slot, pos));
        }
    }

    /// Schedules a timer `delay_ns` from the wheel's current time,
    /// rounding *up* to the next tick so timers never fire early.
    pub fn schedule(&mut self, delay_ns: u64, payload: T) -> TimerId {
        let ticks = delay_ns.div_ceil(self.resolution_ns).max(1);
        let deadline = self.now_tick + ticks;
        let idx = self.alloc_entry();
        let generation = self.entries[idx as usize].generation;
        self.entries[idx as usize].deadline = deadline;
        self.entries[idx as usize].payload = Some(payload);
        let (level, slot) = self.place(deadline);
        self.link(idx, level, slot);
        self.live += 1;
        self.scheduled_total += 1;
        TimerId::new(idx, generation)
    }

    /// Nanoseconds until `id` fires (tick-quantized, 0 when due), or
    /// `None` if it already fired or was cancelled. Flow migration uses
    /// this to carry a timer's residual delay onto another core's wheel:
    /// re-arming at the full interval instead would let frequent
    /// migration postpone a deadline indefinitely.
    pub fn remaining_ns(&self, id: TimerId) -> Option<u64> {
        let e = self.entries.get(id.index() as usize)?;
        if e.generation != id.generation || e.location.is_none() {
            return None;
        }
        Some(e.deadline.saturating_sub(self.now_tick) * self.resolution_ns)
    }

    /// Cancels a timer, returning its payload if it was still pending.
    /// Cancelling an already-fired or already-cancelled timer returns
    /// `None`.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let e = self.entries.get(id.index() as usize)?;
        if e.generation != id.generation || e.location.is_none() {
            return None;
        }
        self.unlink(id.index());
        let payload = self.entries[id.index() as usize].payload.take();
        self.free_entry(id.index());
        self.live -= 1;
        self.cancelled_total += 1;
        payload
    }

    /// Cancels a timer and reports its residual delay in one entry
    /// access: `(payload, remaining_ns)`, or `None` if it already fired
    /// or was cancelled. This is the migration-extract primitive —
    /// equivalent to [`TimerWheel::remaining_ns`] followed by
    /// [`TimerWheel::cancel`], but with a single generation check and
    /// entry load instead of two round-trips per timer.
    pub fn cancel_with_remaining(&mut self, id: TimerId) -> Option<(T, u64)> {
        let e = self.entries.get(id.index() as usize)?;
        if e.generation != id.generation || e.location.is_none() {
            return None;
        }
        let remaining = e.deadline.saturating_sub(self.now_tick) * self.resolution_ns;
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
    /// same per-slot tie order) but amortized for migration-sized
    /// batches: the entry arena is grown once up front, and the wheel
    /// position is resolved once per run of equal deadlines — absorbed
    /// flow groups carry long runs of identical residual delays, which
    /// append to one slot chain without re-deriving level/slot each
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
                self.entries[i].next_free = self.free_head;
                self.free_head = i as u32;
            }
        }
        self.entries.reserve(n);
        // (deadline, level, slot) of the previous item: consecutive
        // equal deadlines skip `place`.
        let mut last: Option<(u64, u8, u16)> = None;
        for (delay_ns, payload) in items {
            let ticks = delay_ns.div_ceil(self.resolution_ns).max(1);
            let deadline = self.now_tick + ticks;
            let idx = self.alloc_entry();
            let generation = self.entries[idx as usize].generation;
            self.entries[idx as usize].deadline = deadline;
            self.entries[idx as usize].payload = Some(payload);
            let (level, slot) = match last {
                Some((d, l, s)) if d == deadline => (l, s),
                _ => {
                    let (l, s) = self.place(deadline);
                    last = Some((deadline, l, s));
                    (l, s)
                }
            };
            self.link(idx, level, slot);
            self.live += 1;
            self.scheduled_total += 1;
            sink(TimerId::new(idx, generation));
        }
    }

    /// Absolute tick of the earliest pending timer, or `None` when idle.
    /// Linear in the number of live entries (scans occupied slots).
    fn next_deadline_tick(&self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in &self.slots {
            for slot in level {
                for &idx in slot {
                    let d = self.entries[idx as usize].deadline;
                    best = Some(best.map_or(d, |b: u64| b.min(d)));
                }
            }
        }
        best
    }

    /// Teleports the wheel to `tick` (which must not skip any deadline)
    /// and re-places every live entry relative to the new origin, so that
    /// cascades that "should have happened" during the skipped interval
    /// are reconstructed. O(live).
    fn jump_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.now_tick);
        let mut all = std::mem::take(&mut self.spare);
        for level in &mut self.slots {
            for slot in level {
                all.append(slot);
            }
        }
        self.now_tick = tick;
        for idx in all.drain(..) {
            self.entries[idx as usize].location = None;
            let deadline = self.entries[idx as usize].deadline;
            debug_assert!(deadline > tick, "jump skipped a deadline");
            let (l, s) = self.place(deadline);
            self.link(idx, l, s);
        }
        self.spare = all;
    }

    /// Empties a slot for walking, leaving the spare buffer in its place.
    fn take_slot(&mut self, level: usize, slot: usize) -> Vec<u32> {
        let spare = std::mem::take(&mut self.spare);
        std::mem::replace(&mut self.slots[level][slot], spare)
    }

    /// Advances the wheel to `now_ns`, invoking `fire` for every expired
    /// timer in deadline order (ties in schedule order).
    ///
    /// Long idle gaps are skipped in O(live) rather than O(ticks), so a
    /// quiescent stack can be advanced across seconds cheaply.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(T)) {
        let target_tick = now_ns / self.resolution_ns;
        // Fast-path long advances over empty wheel regions.
        const JUMP_THRESHOLD: u64 = 4 * SLOTS_PER_LEVEL as u64;
        if target_tick > self.now_tick + JUMP_THRESHOLD {
            match self.next_deadline_tick() {
                None => {
                    self.now_tick = target_tick;
                    return;
                }
                Some(d) if d > target_tick => {
                    self.jump_to(target_tick);
                    return;
                }
                Some(d) if d > self.now_tick + 1 => {
                    self.jump_to(d - 1);
                }
                Some(_) => {}
            }
        }
        while self.now_tick < target_tick {
            // Re-check for a skippable gap once per wheel lap (the scan is
            // O(live), so amortize it over 256 ticks).
            if self.now_tick & SLOT_MASK == 0 && target_tick > self.now_tick + JUMP_THRESHOLD {
                match self.next_deadline_tick() {
                    None => {
                        self.now_tick = target_tick;
                        return;
                    }
                    Some(d) if d > target_tick => {
                        self.jump_to(target_tick);
                        return;
                    }
                    Some(d) if d > self.now_tick + 1 => self.jump_to(d - 1),
                    Some(_) => {}
                }
            }
            self.now_tick += 1;
            // Cascade: when a level-k digit rolls over to 0, redistribute
            // the corresponding slot of level k+1.
            for level in 1..LEVELS as u32 {
                let below_mask = (1u64 << (LEVEL_BITS * level)) - 1;
                if self.now_tick & below_mask != 0 {
                    break;
                }
                let slot = (self.now_tick >> (LEVEL_BITS * level)) & SLOT_MASK;
                let mut moved = self.take_slot(level as usize, slot as usize);
                for idx in moved.drain(..) {
                    self.entries[idx as usize].location = None;
                    let deadline = self.entries[idx as usize].deadline;
                    let (l, s) = self.place(deadline);
                    self.link(idx, l, s);
                }
                self.spare = moved;
            }
            // Fire the level-0 slot for this tick.
            let slot = (self.now_tick & SLOT_MASK) as usize;
            if self.slots[0][slot].is_empty() {
                continue;
            }
            let mut due = self.take_slot(0, slot);
            for idx in due.drain(..) {
                let e = &mut self.entries[idx as usize];
                if e.deadline > self.now_tick {
                    // A future lap of the wheel; relink.
                    e.location = None;
                    let deadline = e.deadline;
                    let (l, s) = self.place(deadline);
                    self.link(idx, l, s);
                    continue;
                }
                e.location = None;
                let payload = e.payload.take().expect("live entry has payload");
                self.free_entry(idx);
                self.live -= 1;
                self.fired_total += 1;
                fire(payload);
            }
            self.spare = due;
        }
    }

    /// Nanoseconds until the next pending timer fires, or `None` when the
    /// wheel is idle. Linear in the distance to the next timer (used by
    /// quiescent dataplanes to sleep; not on the hot path).
    pub fn next_deadline_ns(&self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in &self.slots {
            for slot in level {
                for &idx in slot {
                    let d = self.entries[idx as usize].deadline;
                    best = Some(best.map_or(d, |b: u64| b.min(d)));
                }
            }
        }
        best.map(|t| t.saturating_sub(self.now_tick) * self.resolution_ns)
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
            .field("resolution_ns", &self.resolution_ns)
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
    fn fired_slots_keep_a_buffer() {
        // One short timer armed per tick, for two laps of level 0: every
        // slot fires twice. Walking a slot must not cost it its buffer —
        // buffers circulate through the spare, so afterwards at most one
        // slot (whoever holds the initially empty spare) is without.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let res = w.resolution_ns();
        let mut fired = 0;
        for tick in 1..=2 * SLOTS_PER_LEVEL as u64 {
            w.schedule(3 * res, 0);
            w.advance(tick * res, |_| fired += 1);
        }
        assert_eq!(fired, 2 * SLOTS_PER_LEVEL - 2);
        let bare = w.slots[0].iter().filter(|s| s.capacity() == 0).count();
        assert!(bare <= 1, "{bare} level-0 slots lost their buffer");
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
    fn cancel_with_remaining_matches_remaining_then_cancel() {
        let mut a: TimerWheel<u32> = TimerWheel::new();
        let mut b: TimerWheel<u32> = TimerWheel::new();
        let ida = a.schedule(1_000_000, 1);
        let idb = b.schedule(1_000_000, 1);
        a.advance(300_000, |_| panic!("early"));
        b.advance(300_000, |_| panic!("early"));
        let want = b.remaining_ns(idb).unwrap();
        let got = a.cancel_with_remaining(ida).unwrap();
        assert_eq!(got, (b.cancel(idb).unwrap(), want));
        assert_eq!(a.live(), 0);
        assert_eq!(a.counters(), b.counters());
        // Stale id: both report nothing.
        assert_eq!(a.cancel_with_remaining(ida), None);
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
