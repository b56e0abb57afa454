//! The event loop: an indexed event slab drained through a two-tier
//! time queue.
//!
//! Components (NICs, links, dataplanes, applications) are reference-counted
//! cells, and an event comes in one of two forms. The general form is a
//! closure that captures handles to the components it touches and
//! receives `&mut Simulator` so it can read the clock, draw randomness,
//! and schedule further events ([`Simulator::schedule_at`]); it is boxed,
//! so it costs one heap allocation. The per-packet and per-cycle paths
//! use the plain-data form instead ([`Simulator::schedule_event_at`]): a
//! handle to a component implementing [`EventTarget`] plus one `u64`,
//! stored inline in the event's slab slot — no allocation. Both forms
//! share one sequence counter, one queue and one [`EventId`] space.
//!
//! Determinism: events are ordered by `(time, sequence)` where `sequence`
//! is a monotonically increasing insertion counter, so ties are broken by
//! scheduling order and every run of the same program with the same seed
//! executes the identical event sequence.
//!
//! # Queue structure
//!
//! The dominant events in every experiment are short-delay NIC, link and
//! poll-loop callbacks landing within a millisecond of `now`. The queue is
//! therefore split in two tiers keyed by the event's *bucket*
//! (`time >> BUCKET_SHIFT`):
//!
//! * a **calendar ring** of `N_BUCKETS` unsorted vectors covering the near
//!   horizon `[cursor, cursor + N_BUCKETS)` buckets — O(1) insert, and pops
//!   sort one small bucket at a time instead of sifting a global heap;
//! * an **overflow heap** for far-future timers beyond the horizon, whose
//!   entries are promoted into the ring as the cursor advances.
//!
//! Events due in the cursor's own bucket (or earlier — the clock can be
//! ahead of the cursor after `run_until` fast-forwards it) live in
//! `active`, a run sorted descending by `(time, seq)` so the next event is
//! popped from the back. Every event also owns a slot in a generational
//! slab; cancellation flips the slot state in place (O(1), no tombstone
//! set) and a stale [`EventId`] — one whose event already fired — fails the
//! generation check and is a true no-op, so `events_pending` stays exact.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use crate::rng::SimRng;
use crate::time::{Nanos, SimTime};

/// log2 of the calendar bucket width in nanoseconds (4.096 µs buckets).
const BUCKET_SHIFT: u32 = 12;
/// Number of calendar buckets (must be a power of two). With
/// `BUCKET_SHIFT = 12` the ring covers a ~1.05 ms horizon — comfortably
/// past every per-packet and poll-loop delay, while RTO-scale timers go
/// to the overflow heap.
const N_BUCKETS: usize = 256;

/// Identifies a scheduled event so it can be cancelled.
///
/// Packs a slab index and a generation; a stale id (the event fired or was
/// already cancelled, and the slot was reused) fails the generation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(idx: u32, gen: u32) -> EventId {
        EventId(u64::from(gen) << 32 | u64::from(idx))
    }

    fn idx(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A component that receives plain-data events: the allocation-free
/// counterpart of a closure capturing `Rc<RefCell<Self>>`. `arg` is
/// whatever the component packed when it scheduled the event — an event
/// kind, a queue index, a slot in a component-owned table of parked
/// frames.
pub trait EventTarget: Sized + 'static {
    /// Runs the event scheduled with `arg` against `this`.
    fn on_event(this: &Rc<RefCell<Self>>, sim: &mut Simulator, arg: u64);
}

/// Object-safe face of [`EventTarget`], so a slot can hold any
/// component's handle as one `Rc<dyn Fire>` (an unsizing coercion of the
/// caller's `Rc`, not a new allocation).
trait Fire {
    fn fire(self: Rc<Self>, sim: &mut Simulator, arg: u64);
}

impl<T: EventTarget> Fire for RefCell<T> {
    fn fire(self: Rc<Self>, sim: &mut Simulator, arg: u64) {
        T::on_event(&self, sim, arg);
    }
}

/// What a pending event runs.
enum Action {
    /// General form: a boxed closure.
    Boxed(Box<dyn FnOnce(&mut Simulator)>),
    /// Plain-data form: a component handle and its argument, inline.
    Plain(Rc<dyn Fire>, u64),
}

/// Slot state in the event slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Not referenced by any queue tier.
    Vacant,
    /// Scheduled and live.
    Pending,
    /// Cancelled in place; still referenced by a queue tier and reclaimed
    /// when the pop path reaches it.
    Cancelled,
}

struct Slot {
    generation: u32,
    state: SlotState,
    time: SimTime,
    seq: u64,
    action: Option<Action>,
}

/// A far-future event parked in the overflow heap, ordered earliest-first
/// by `(time, seq)`.
struct FarEvent {
    time: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialEq for FarEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for FarEvent {}

impl PartialOrd for FarEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FarEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Engine instrumentation: every counter the scheduler maintains on its
/// hot path, so perf work on the simulator is measured rather than
/// guessed. Snapshot via [`Simulator::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events accepted, in either form.
    pub scheduled: u64,
    /// The subset of `scheduled` that took the closure form
    /// (`schedule_at`/`schedule_in`) and so boxed its action. The
    /// steady-state message path schedules none.
    pub boxed: u64,
    /// Events whose action ran.
    pub executed: u64,
    /// Live events cancelled in place.
    pub cancelled: u64,
    /// Cancels that were no-ops (already fired or already cancelled).
    pub cancel_noops: u64,
    /// High-water mark of pending (live) events.
    pub pending_high_water: u64,
    /// Inserts that landed in the calendar ring or the active run.
    pub near_inserts: u64,
    /// Inserts that landed in the overflow heap (beyond the horizon).
    pub far_inserts: u64,
    /// Overflow entries promoted into the ring as the cursor advanced.
    pub promotions: u64,
    /// Largest single bucket drained into the active run (per-bucket
    /// occupancy high-water; large values suggest widening the ring).
    pub bucket_high_water: u64,
}

/// The discrete-event simulator: virtual clock, two-tier event queue, and
/// the deterministic random source.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Sorted run (descending `(time, seq)`) of events due in bucket
    /// `cursor` or earlier; the next event is `active.back()`. A deque so
    /// the degenerate backlog pattern — every insert earlier or later
    /// than the whole run — stays O(1) instead of memmoving the run.
    active: VecDeque<u32>,
    /// Near-horizon calendar: slot `b % N_BUCKETS` holds the events of
    /// bucket `b` for `b` in `(cursor, cursor + N_BUCKETS)`, unsorted.
    ring: Vec<Vec<u32>>,
    /// Total entries (live + cancelled) across all ring buckets.
    ring_len: usize,
    /// Bucket number the active run was drained from.
    cursor: u64,
    /// Far-future events beyond the calendar horizon.
    overflow: BinaryHeap<FarEvent>,
    /// Exact count of live (non-cancelled, non-fired) events.
    pending: u64,
    counters: SimCounters,
    rng: SimRng,
}

impl Simulator {
    /// Creates a simulator at t = 0 with the given RNG seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
            active: VecDeque::new(),
            ring: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            pending: 0,
            counters: SimCounters::default(),
            rng: SimRng::new(seed),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events executed so far (for engine diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.counters.executed
    }

    /// Exact number of live events currently pending (cancelled events
    /// leave this count immediately).
    pub fn events_pending(&self) -> usize {
        self.pending as usize
    }

    /// A snapshot of the engine's instrumentation counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    fn key(&self, idx: u32) -> (SimTime, u64) {
        let s = &self.slab[idx as usize];
        (s.time, s.seq)
    }

    /// Returns a vacant slot index, growing the slab if the free list is
    /// empty.
    fn alloc_slot(&mut self, time: SimTime, seq: u64, action: Action) -> u32 {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slab[idx as usize];
            debug_assert_eq!(s.state, SlotState::Vacant);
            s.state = SlotState::Pending;
            s.time = time;
            s.seq = seq;
            s.action = Some(action);
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("event slab exceeds u32 indices");
            self.slab.push(Slot {
                generation: 0,
                state: SlotState::Pending,
                time,
                seq,
                action: Some(action),
            });
            idx
        }
    }

    /// Reclaims a slot: bumps the generation (invalidating outstanding
    /// [`EventId`]s) and returns it to the free list.
    fn free_slot(&mut self, idx: u32) {
        let s = &mut self.slab[idx as usize];
        debug_assert_ne!(s.state, SlotState::Vacant);
        s.state = SlotState::Vacant;
        s.generation = s.generation.wrapping_add(1);
        s.action = None;
        self.free.push(idx);
    }

    /// Schedules `action` to run at absolute time `at`. This is the
    /// general form: the closure is boxed (one allocation), which suits
    /// control planes, fault injection, tests and drivers. Per-packet
    /// and per-cycle events use [`Simulator::schedule_event_at`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        self.counters.boxed += 1;
        self.enqueue(at, Action::Boxed(Box::new(action)))
    }

    /// Schedules `action` to run after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: Nanos,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `T::on_event(target, sim, arg)` to run at absolute time
    /// `at`: the plain-data form, stored inline in the event's slot.
    /// Ordering, cancellation and every counter but
    /// [`SimCounters::boxed`] are those of [`Simulator::schedule_at`];
    /// like a closure capturing `target`, the pending event keeps the
    /// component alive.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_event_at<T: EventTarget>(
        &mut self,
        at: SimTime,
        target: &Rc<RefCell<T>>,
        arg: u64,
    ) -> EventId {
        self.enqueue(at, Action::Plain(target.clone(), arg))
    }

    /// Schedules a plain-data event after `delay`.
    pub fn schedule_event_in<T: EventTarget>(
        &mut self,
        delay: Nanos,
        target: &Rc<RefCell<T>>,
        arg: u64,
    ) -> EventId {
        self.schedule_event_at(self.now + delay, target, arg)
    }

    /// Assigns the next sequence number and files the event in the tier
    /// its bucket selects.
    fn enqueue(&mut self, at: SimTime, action: Action) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc_slot(at, seq, action);
        let generation = self.slab[idx as usize].generation;
        let bucket = at.0 >> BUCKET_SHIFT;
        if bucket <= self.cursor {
            // Due in (or before) the active bucket — `run_until` can leave
            // the clock and cursor ahead of untouched buckets. Insert into
            // the sorted run directly.
            let k = (at, seq);
            let pos = self.active.partition_point(|&i| self.key(i) > k);
            self.active.insert(pos, idx);
            self.counters.near_inserts += 1;
        } else if bucket - self.cursor < N_BUCKETS as u64 {
            self.ring[(bucket % N_BUCKETS as u64) as usize].push(idx);
            self.ring_len += 1;
            self.counters.near_inserts += 1;
        } else {
            self.overflow.push(FarEvent { time: at, seq, idx });
            self.counters.far_inserts += 1;
        }
        self.pending += 1;
        self.counters.scheduled += 1;
        self.counters.pending_high_water = self.counters.pending_high_water.max(self.pending);
        EventId::new(idx, generation)
    }

    /// Cancels a previously scheduled event in place. Cancelling an event
    /// that has already fired (or was already cancelled) is a no-op — the
    /// slot's generation has moved on, so the stale id matches nothing and
    /// no state is retained.
    pub fn cancel(&mut self, id: EventId) {
        let idx = id.idx() as usize;
        match self.slab.get_mut(idx) {
            Some(s)
                if s.generation == id.generation() && s.state == SlotState::Pending =>
            {
                s.state = SlotState::Cancelled;
                // Drop the action now; the queue reference is reclaimed
                // lazily when the pop path reaches it.
                s.action = None;
                self.pending -= 1;
                self.counters.cancelled += 1;
            }
            _ => self.counters.cancel_noops += 1,
        }
    }

    /// Advances the cursor to the next non-empty bucket, promotes overflow
    /// entries that fell inside the new horizon, and drains that bucket
    /// into the sorted active run. Returns `false` when no events remain
    /// in either tier.
    fn advance_bucket(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        loop {
            if self.ring_len == 0 {
                let Some(top) = self.overflow.peek() else {
                    return false;
                };
                // Fast-forward across the empty stretch.
                self.cursor = top.time.0 >> BUCKET_SHIFT;
            } else {
                // Every ring entry's bucket lies in [cursor, cursor + N),
                // and entries sharing a slot share a bucket, so the first
                // non-empty slot scanning forward is the earliest bucket.
                let mut found = None;
                for off in 0..N_BUCKETS as u64 {
                    let b = self.cursor + off;
                    if !self.ring[(b % N_BUCKETS as u64) as usize].is_empty() {
                        found = Some(b);
                        break;
                    }
                }
                self.cursor = found.expect("ring_len > 0 implies a non-empty bucket");
            }
            // Promote far-future events that the new horizon now covers.
            while let Some(top) = self.overflow.peek() {
                let b = top.time.0 >> BUCKET_SHIFT;
                if b - self.cursor >= N_BUCKETS as u64 {
                    break;
                }
                let e = self.overflow.pop().expect("peeked");
                self.ring[(b % N_BUCKETS as u64) as usize].push(e.idx);
                self.ring_len += 1;
                self.counters.promotions += 1;
            }
            let slot = (self.cursor % N_BUCKETS as u64) as usize;
            if self.ring[slot].is_empty() {
                continue;
            }
            // The bucket is lent out for the sort (its key reads the
            // slab) and handed back drained, so bucket and run both keep
            // their buffers from one lap of the ring to the next.
            let mut run = std::mem::take(&mut self.ring[slot]);
            self.ring_len -= run.len();
            self.counters.bucket_high_water =
                self.counters.bucket_high_water.max(run.len() as u64);
            run.sort_unstable_by_key(|&idx| std::cmp::Reverse(self.key(idx)));
            self.active.extend(run.drain(..));
            self.ring[slot] = run;
            return true;
        }
    }

    /// Reclaims cancelled slots at the head of the queue until a live
    /// event (or emptiness) is exposed; returns its time without popping.
    fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            while let Some(&idx) = self.active.back() {
                match self.slab[idx as usize].state {
                    SlotState::Cancelled => {
                        self.active.pop_back();
                        self.free_slot(idx);
                    }
                    SlotState::Pending => return Some(self.slab[idx as usize].time),
                    SlotState::Vacant => unreachable!("vacant slot referenced by queue"),
                }
            }
            if !self.advance_bucket() {
                return None;
            }
        }
    }

    /// Pops the next live event. The slot is freed *before* the action is
    /// returned, so a `cancel` issued from inside the action (or any time
    /// later) sees a stale generation and is a no-op.
    fn pop_live(&mut self) -> Option<(SimTime, Action)> {
        self.peek_time()?;
        let idx = self.active.pop_back().expect("peek_time exposed a live event");
        let s = &mut self.slab[idx as usize];
        let time = s.time;
        let action = s.action.take().expect("pending slot holds an action");
        self.free_slot(idx);
        Some((time, action))
    }

    /// Executes the next pending event, if any, advancing the clock to its
    /// timestamp. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.pop_live() {
            Some((time, action)) => {
                debug_assert!(time >= self.now);
                self.now = time;
                self.pending -= 1;
                self.counters.executed += 1;
                match action {
                    Action::Boxed(f) => f(self),
                    Action::Plain(target, arg) => target.fire(self, arg),
                }
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` are executed) or the queue empties. The clock is left at
    /// `max(now, deadline)` when the deadline is reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    if deadline > self.now {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("executed", &self.counters.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[300u64, 100, 200] {
            let log = log.clone();
            sim.schedule_at(SimTime(t), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![100, 200, 300]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.schedule_at(SimTime(50), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        sim.schedule_in(Nanos(10), move |sim| {
            log2.borrow_mut().push(sim.now().as_nanos());
            let log3 = log2.clone();
            sim.schedule_in(Nanos(15), move |sim| {
                log3.borrow_mut().push(sim.now().as_nanos());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 25]);
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        let id = sim.schedule_in(Nanos(5), move |_| *h.borrow_mut() += 1);
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
        // Cancelling again (already fired/cancelled) is a no-op.
        sim.cancel(id);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(Vec::new()));
        for &t in &[10u64, 20, 30, 40] {
            let hits = hits.clone();
            sim.schedule_at(SimTime(t), move |_| hits.borrow_mut().push(t));
        }
        sim.run_until(SimTime(25));
        assert_eq!(*hits.borrow(), vec![10, 20]);
        assert_eq!(sim.now(), SimTime(25));
        sim.run();
        assert_eq!(*hits.borrow(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn run_until_deadline_inclusive() {
        let mut sim = Simulator::new(0);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        sim.schedule_at(SimTime(25), move |_| *h.borrow_mut() = true);
        sim.run_until(SimTime(25));
        assert!(*hit.borrow());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(SimTime(100), |_| {});
        sim.run();
        sim.schedule_at(SimTime(50), |_| {});
    }

    #[test]
    fn deterministic_trace_for_same_seed() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Simulator::new(seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            // A little stochastic cascade.
            fn spawn(sim: &mut Simulator, depth: u32, log: Rc<RefCell<Vec<u64>>>) {
                if depth == 0 {
                    return;
                }
                let d = sim.rng().below(100) + 1;
                sim.schedule_in(Nanos(d), move |sim| {
                    log.borrow_mut().push(sim.now().as_nanos());
                    spawn(sim, depth - 1, log.clone());
                    spawn(sim, depth - 1, log);
                });
            }
            spawn(&mut sim, 6, log.clone());
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events far beyond the calendar horizon (overflow tier) still run
        // in exact order, including ties and interleavings with near ones.
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let horizon = (N_BUCKETS as u64) << BUCKET_SHIFT;
        for &t in &[3 * horizon, 5, horizon + 1, 10 * horizon, 3 * horizon] {
            let log = log.clone();
            sim.schedule_at(SimTime(t), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![5, horizon + 1, 3 * horizon, 3 * horizon, 10 * horizon]
        );
        // All four events past `horizon` overflow (bucket - cursor >= N).
        assert_eq!(sim.counters().far_inserts, 4);
        assert!(sim.counters().promotions >= 4);
    }

    #[test]
    fn cancel_after_fire_is_stateless_and_pending_stays_exact() {
        // Regression for the seed engine's leak: cancelling an
        // already-fired EventId parked its seq in the tombstone set
        // forever and skewed events_pending. The slab's generation check
        // makes the stale cancel a true no-op.
        let mut sim = Simulator::new(0);
        let id = sim.schedule_at(SimTime(10), |_| {});
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        sim.cancel(id); // Stale: must retain no state.
        assert_eq!(sim.counters().cancel_noops, 1);
        assert_eq!(sim.counters().cancelled, 0);
        sim.schedule_at(SimTime(20), |_| {});
        sim.schedule_at(SimTime(30), |_| {});
        // Seed engine reported 1 here (2 queued - 1 stale tombstone).
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn stale_cancel_does_not_kill_recycled_slot() {
        // The slot of a fired event is recycled for the next schedule;
        // a stale id for the old occupant must not cancel the new one.
        let mut sim = Simulator::new(0);
        let old = sim.schedule_at(SimTime(10), |_| {});
        sim.run();
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        let new = sim.schedule_at(SimTime(20), move |_| *h.borrow_mut() = true);
        assert_ne!(old, new, "recycled slot must carry a fresh generation");
        sim.cancel(old);
        sim.run();
        assert!(*hit.borrow(), "stale cancel must not suppress the new event");
    }

    #[test]
    fn cancelled_pending_count_and_double_cancel() {
        let mut sim = Simulator::new(0);
        let a = sim.schedule_at(SimTime(10), |_| {});
        let _b = sim.schedule_at(SimTime(20), |_| {});
        let _c = sim.schedule_at(SimTime(30), |_| {});
        assert_eq!(sim.events_pending(), 3);
        sim.cancel(a);
        assert_eq!(sim.events_pending(), 2);
        sim.cancel(a); // Double cancel: no-op, count unchanged.
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.counters().cancelled, 1);
        assert_eq!(sim.counters().cancel_noops, 1);
    }

    #[test]
    fn schedule_behind_the_cursor_after_run_until() {
        // run_until can fast-forward the clock deep into a bucket the
        // cursor never visited; a subsequent short-delay schedule must
        // still fire, in order.
        let mut sim = Simulator::new(0);
        let horizon = (N_BUCKETS as u64) << BUCKET_SHIFT;
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule_at(SimTime(20 * horizon), move |sim| {
            l.borrow_mut().push(sim.now().as_nanos());
        });
        sim.run_until(SimTime(7 * horizon + 5));
        assert_eq!(sim.now(), SimTime(7 * horizon + 5));
        for d in [3u64, 1, 2] {
            let l = log.clone();
            sim.schedule_in(Nanos(d), move |sim| {
                l.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run();
        let base = 7 * horizon + 5;
        assert_eq!(
            *log.borrow(),
            vec![base + 1, base + 2, base + 3, 20 * horizon]
        );
    }

    /// A component that logs `(now, arg)` and, for odd `arg`, schedules
    /// a follow-up plain event on itself.
    struct Probe {
        log: Vec<(u64, u64)>,
    }

    impl EventTarget for Probe {
        fn on_event(this: &Rc<RefCell<Probe>>, sim: &mut Simulator, arg: u64) {
            this.borrow_mut().log.push((sim.now().as_nanos(), arg));
            if arg % 2 == 1 {
                sim.schedule_event_in(Nanos(5), this, arg + 1);
            }
        }
    }

    #[test]
    fn plain_and_closure_events_share_one_order() {
        let mut sim = Simulator::new(0);
        let probe = Rc::new(RefCell::new(Probe { log: Vec::new() }));
        // Same timestamp throughout: only the insertion order decides.
        sim.schedule_event_at(SimTime(50), &probe, 10);
        let p = probe.clone();
        sim.schedule_at(SimTime(50), move |sim| {
            p.borrow_mut().log.push((sim.now().as_nanos(), 11));
        });
        sim.schedule_event_at(SimTime(50), &probe, 12);
        let cancelled = sim.schedule_event_at(SimTime(50), &probe, 13);
        sim.schedule_event_at(SimTime(50), &probe, 1);
        sim.cancel(cancelled);
        assert_eq!(sim.events_pending(), 4);
        sim.run();
        assert_eq!(
            probe.borrow().log,
            vec![(50, 10), (50, 11), (50, 12), (50, 1), (55, 2)]
        );
        let c = sim.counters();
        assert_eq!((c.scheduled, c.boxed, c.executed, c.cancelled), (6, 1, 5, 1));
    }

    #[test]
    fn pending_plain_event_holds_its_target_until_fired_or_cancelled() {
        let mut sim = Simulator::new(0);
        let probe = Rc::new(RefCell::new(Probe { log: Vec::new() }));
        let id = sim.schedule_event_at(SimTime(10), &probe, 0);
        sim.schedule_event_at(SimTime(20), &probe, 2);
        assert_eq!(Rc::strong_count(&probe), 3);
        sim.cancel(id);
        assert_eq!(Rc::strong_count(&probe), 2, "cancel releases the handle at once");
        sim.run();
        assert_eq!(Rc::strong_count(&probe), 1);
        assert_eq!(probe.borrow().log, vec![(20, 2)]);
    }

    #[test]
    fn buckets_keep_their_buffers_across_laps() {
        // One event per lap into the same ring slot: after the first lap
        // neither the bucket nor the active run may allocate again.
        let mut sim = Simulator::new(0);
        let probe = Rc::new(RefCell::new(Probe { log: Vec::new() }));
        let lap = (N_BUCKETS as u64) << BUCKET_SHIFT;
        let slot = 7usize;
        let at = |k: u64| SimTime(k * lap + ((slot as u64) << BUCKET_SHIFT));
        sim.schedule_event_at(at(0), &probe, 0);
        sim.run();
        let (bucket_cap, active_cap) = (sim.ring[slot].capacity(), sim.active.capacity());
        assert!(bucket_cap > 0 && active_cap > 0);
        let bucket_ptr = sim.ring[slot].as_ptr();
        for k in 1..4 {
            sim.schedule_event_at(at(k), &probe, 0);
            sim.run();
            assert_eq!(sim.ring[slot].as_ptr(), bucket_ptr);
            assert_eq!(sim.ring[slot].capacity(), bucket_cap);
            assert_eq!(sim.active.capacity(), active_cap);
        }
        assert_eq!(probe.borrow().log.len(), 4);
    }

    #[test]
    fn counters_track_the_queue() {
        let mut sim = Simulator::new(0);
        for t in 1..=10u64 {
            sim.schedule_at(SimTime(t), |_| {});
        }
        let far = sim.schedule_at(SimTime(1 << 40), |_| {});
        sim.cancel(far);
        sim.run();
        let c = sim.counters();
        assert_eq!(c.scheduled, 11);
        assert_eq!(c.boxed, 11);
        assert_eq!(c.executed, 10);
        assert_eq!(c.cancelled, 1);
        assert_eq!(c.pending_high_water, 11);
        assert_eq!(c.near_inserts, 10);
        assert_eq!(c.far_inserts, 1);
        assert!(c.bucket_high_water >= 1);
    }
}
