//! Property test (ix-testkit harness): under arbitrary schedule / cancel
//! / advance programs the hierarchical wheel agrees with a reference
//! model — a plain list of the live timers — on what fires and at which
//! tick, and, after every operation, on how many timers are live and
//! when the next one is due.
//!
//! Order is checked as far as the wheel promises it (see
//! `TimerWheel::advance`): deadlines fire in order; the timers of one
//! tick are compared as a set, because their order follows the wheel's
//! chains, not the order they were scheduled in.

use ix_testkit::prelude::*;

use ix_timerwheel::{TimerId, TimerWheel, DEFAULT_RESOLUTION_NS};

const RES: u64 = DEFAULT_RESOLUTION_NS;

/// Delays, in ticks, that fill few slots deep — so chains grow and
/// cancels land in their middles — and sit on the wheel's edges: either
/// side of a level boundary, a whole lap of level 1 (65 281 ticks from
/// the last tick of a level-0 lap lands in the slot level 1's cursor is
/// on), the top level, and past the span of all four — where the timer
/// parks in a top-level slot ahead of a nearer timer's.
const DELAY_TICKS: [u64; 14] =
    [1, 1, 2, 3, 200, 255, 256, 257, 300, 65_281, 65_536, 70_000, 3 << 24, (1 << 32) + (2 << 24)];

/// Advances, in ticks: single steps, level-0 laps, and gaps long enough
/// for `advance` to jump rather than tick.
const ADVANCE_TICKS: [u64; 9] = [1, 1, 2, 7, 255, 256, 1_100, 70_000, 1 << 24];

#[derive(Debug, Clone)]
enum OpKind {
    /// Schedule a timer this many ns out.
    Schedule(u64),
    /// Cancel the k-th still-live timer (mod live count).
    Cancel(usize),
    /// Advance by this many ns.
    Advance(u64),
    /// Advance to the last tick before level 0 wraps.
    AdvanceToLapEnd,
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        4 => (0..DELAY_TICKS.len()).prop_map(|i| OpKind::Schedule(DELAY_TICKS[i] * RES)),
        // Off the tick grid: the wheel rounds up.
        2 => (1u64..50_000_000).prop_map(OpKind::Schedule),
        4 => (0usize..64).prop_map(OpKind::Cancel),
        2 => (0..ADVANCE_TICKS.len()).prop_map(|i| OpKind::Advance(ADVANCE_TICKS[i] * RES)),
        2 => (1u64..5_000_000).prop_map(OpKind::Advance),
        1 => (0u8..1).prop_map(|_| OpKind::AdvanceToLapEnd),
    ]
}

/// The reference: every live timer, unordered.
struct Model {
    now_ns: u64,
    /// `(id, deadline tick, payload)`.
    live: Vec<(TimerId, u64, u64)>,
}

impl Model {
    fn now_tick(&self) -> u64 {
        self.now_ns / RES
    }

    /// Removes and returns what is due, as sorted `(deadline, payload)`.
    fn take_due(&mut self) -> Vec<(u64, u64)> {
        let now_tick = self.now_tick();
        let mut due = Vec::new();
        self.live.retain(|&(_, deadline, payload)| {
            let fires = deadline <= now_tick;
            if fires {
                due.push((deadline, payload));
            }
            !fires
        });
        due.sort_unstable();
        due
    }
}

/// Advances both sides to `model.now_ns` and compares what fired.
fn advance_both(wheel: &mut TimerWheel<u64>, model: &mut Model, deadline_of: &[u64]) {
    let mut fired: Vec<(u64, u64)> = Vec::new();
    wheel.advance(model.now_ns, |p| fired.push((deadline_of[p as usize], p)));
    prop_assert!(
        fired.windows(2).all(|w| w[0].0 <= w[1].0),
        "fired out of deadline order: {fired:?}"
    );
    fired.sort_unstable();
    prop_assert_eq!(fired, model.take_due(), "the wheel and the model fired different timers");
}

props! {
    #![config(cases = 256)]

    #[test]
    fn wheel_matches_reference(ops in collection::vec(op_strategy(), 1..200)) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model = Model { now_ns: 0, live: Vec::new() };
        // Deadline tick of every timer ever scheduled, by payload.
        let mut deadline_of: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                OpKind::Schedule(delay) => {
                    let payload = deadline_of.len() as u64;
                    // The wheel rounds *up* to the next tick, minimum 1.
                    let deadline = model.now_tick() + delay.div_ceil(RES).max(1);
                    deadline_of.push(deadline);
                    model.live.push((wheel.schedule(delay, payload), deadline, payload));
                }
                OpKind::Cancel(k) => {
                    if model.live.is_empty() {
                        continue;
                    }
                    let (id, _, payload) = model.live.swap_remove(k % model.live.len());
                    prop_assert_eq!(wheel.cancel(id), Some(payload), "live timer must cancel");
                    prop_assert_eq!(wheel.cancel(id), None, "and only once");
                }
                OpKind::Advance(dur) => {
                    model.now_ns += dur;
                    advance_both(&mut wheel, &mut model, &deadline_of);
                }
                OpKind::AdvanceToLapEnd => {
                    model.now_ns = (model.now_tick() | 255) * RES;
                    advance_both(&mut wheel, &mut model, &deadline_of);
                }
            }
            prop_assert_eq!(wheel.live(), model.live.len());
            let next = model.live.iter().map(|&(_, deadline, _)| deadline).min();
            prop_assert_eq!(
                wheel.next_deadline_ns(),
                next.map(|deadline| (deadline - model.now_tick()) * RES),
                "next deadline, {} live at tick {}", model.live.len(), model.now_tick()
            );
        }
        // Drain everything at the end.
        model.now_ns += 200 * 3_600 * 1_000_000_000u64;
        advance_both(&mut wheel, &mut model, &deadline_of);
        prop_assert_eq!(wheel.live(), 0, "wheel fully drained");
        prop_assert!(model.live.is_empty());
    }
}
