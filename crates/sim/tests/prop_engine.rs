//! Property test: the two-tier calendar scheduler executes the exact
//! event order of a reference `(time, seq)` priority-queue model, under
//! random schedule/cancel interleavings — including cancellations issued
//! both before the run and from inside executing events, nested
//! scheduling, delays spanning the near-horizon ring and the overflow
//! heap, and both event forms (boxed closures and plain-data events
//! delivered to an [`EventTarget`]) sharing one queue.
//!
//! Each program is a list of `(delay, flags)` ops interpreted twice: once
//! against the real [`Simulator`], once against a model that keeps every
//! outstanding event in a flat vector and always fires the minimal
//! `(time, seq)`. Any divergence in execution order, executed count, or
//! pending count — checked after every single step — is a scheduler
//! ordering bug.

use std::cell::RefCell;
use std::rc::Rc;

use ix_sim::{EventId, EventTarget, Nanos, SimTime, Simulator};
use ix_testkit::prelude::*;

/// Flag bits on each op.
const F_CHILD: u8 = 1; // Schedule a follow-up from inside the event.
const F_CANCEL_BEFORE: u8 = 2; // Cancel a pseudo-random op before the run.
const F_CANCEL_DURING: u8 = 4; // Cancel the next op from inside the event.
const F_FAR: u8 = 8; // Stretch the delay deep past the calendar horizon.
const F_PLAIN: u8 = 16; // Use the plain-data form for the op and its child.

type Op = (u64, u8);

fn effective_delay(&(delay, flags): &Op) -> u64 {
    if flags & F_FAR != 0 {
        delay * 1024
    } else {
        delay
    }
}

fn child_delay(&(delay, _): &Op) -> u64 {
    delay / 2 + 1
}

/// Tag a child event logs: its parent's index, offset.
const CHILD: u64 = 1_000_000;

/// Everything an executing op touches, shared by both event forms.
struct World {
    prog: Vec<Op>,
    log: Vec<u64>,
    ids: Vec<EventId>,
}

type WorldRef = Rc<RefCell<World>>;

/// What op `i` does when it fires: log, maybe cancel its successor,
/// maybe spawn a child in its own form.
fn fire_op(world: &WorldRef, sim: &mut Simulator, i: usize) {
    let (op, target) = {
        let mut w = world.borrow_mut();
        w.log.push(i as u64);
        let n = w.prog.len();
        (w.prog[i], w.ids[(i + 1) % n])
    };
    if op.1 & F_CANCEL_DURING != 0 {
        sim.cancel(target);
    }
    if op.1 & F_CHILD != 0 {
        let tag = i as u64 + CHILD;
        if op.1 & F_PLAIN != 0 {
            sim.schedule_event_in(Nanos(child_delay(&op)), world, tag);
        } else {
            let w = world.clone();
            sim.schedule_in(Nanos(child_delay(&op)), move |_| w.borrow_mut().log.push(tag));
        }
    }
}

impl EventTarget for World {
    fn on_event(this: &WorldRef, sim: &mut Simulator, arg: u64) {
        if arg >= CHILD {
            this.borrow_mut().log.push(arg);
        } else {
            fire_op(this, sim, arg as usize);
        }
    }
}

/// Runs `prog` on the real engine, one step at a time; returns the
/// execution log, the executed count and `events_pending` after every
/// step (index 0: before the first).
fn run_engine(prog: &[Op]) -> (Vec<u64>, u64, Vec<usize>) {
    let mut sim = Simulator::new(0);
    let world = Rc::new(RefCell::new(World {
        prog: prog.to_vec(),
        log: Vec::new(),
        ids: Vec::new(),
    }));
    let mut plain = 0;
    for (i, op) in prog.iter().enumerate() {
        let at = SimTime(effective_delay(op));
        let id = if op.1 & F_PLAIN != 0 {
            plain += 1;
            sim.schedule_event_at(at, &world, i as u64)
        } else {
            let w = world.clone();
            sim.schedule_at(at, move |sim| fire_op(&w, sim, i))
        };
        world.borrow_mut().ids.push(id);
    }
    assert_eq!(sim.counters().boxed, (prog.len() - plain) as u64);
    for (i, op) in prog.iter().enumerate() {
        if op.1 & F_CANCEL_BEFORE != 0 {
            let target = world.borrow().ids[i * 7 % prog.len()];
            sim.cancel(target);
        }
    }
    let mut pending = vec![sim.events_pending()];
    while sim.step() {
        pending.push(sim.events_pending());
    }
    assert_eq!(sim.events_pending(), 0, "queue must drain completely");
    let out = world.borrow().log.clone();
    (out, sim.events_executed(), pending)
}

/// Model entry: one outstanding event.
struct Entry {
    time: u64,
    seq: u64,
    tag: u64,
    /// `Some(op)` for initial events (may cancel/spawn); children carry
    /// `None`.
    op: Option<Op>,
    /// Op index, for cancel targeting.
    idx: usize,
}

/// Runs `prog` on the reference model: a flat vector popped by minimal
/// `(time, seq)`, with seqs assigned in the same order the engine
/// assigns them.
fn run_model(prog: &[Op]) -> (Vec<u64>, u64, Vec<usize>) {
    let mut next_seq = 0u64;
    let mut outstanding: Vec<Entry> = Vec::new();
    // seq assigned to initial op i (children are never cancel targets).
    let mut op_seq = Vec::new();
    for (i, op) in prog.iter().enumerate() {
        outstanding.push(Entry {
            time: effective_delay(op),
            seq: next_seq,
            tag: i as u64,
            op: Some(*op),
            idx: i,
        });
        op_seq.push(next_seq);
        next_seq += 1;
    }
    let mut cancelled: Vec<u64> = Vec::new();
    let mut fired: Vec<u64> = Vec::new();
    let cancel = |seq: u64, fired: &[u64], cancelled: &mut Vec<u64>| {
        if !fired.contains(&seq) && !cancelled.contains(&seq) {
            cancelled.push(seq);
        }
    };
    for (i, op) in prog.iter().enumerate() {
        if op.1 & F_CANCEL_BEFORE != 0 {
            cancel(op_seq[i * 7 % prog.len()], &fired, &mut cancelled);
        }
    }
    let mut log = Vec::new();
    let mut executed = 0u64;
    let live = |outstanding: &[Entry], cancelled: &[u64]| {
        outstanding.iter().filter(|e| !cancelled.contains(&e.seq)).count()
    };
    let mut pending = vec![live(&outstanding, &cancelled)];
    while let Some(pos) = outstanding
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.time, e.seq))
        .map(|(p, _)| p)
    {
        let e = outstanding.remove(pos);
        if cancelled.contains(&e.seq) {
            continue;
        }
        fired.push(e.seq);
        log.push(e.tag);
        executed += 1;
        if let Some(op) = e.op {
            if op.1 & F_CANCEL_DURING != 0 {
                cancel(op_seq[(e.idx + 1) % prog.len()], &fired, &mut cancelled);
            }
            if op.1 & F_CHILD != 0 {
                outstanding.push(Entry {
                    time: e.time + child_delay(&op),
                    seq: next_seq,
                    tag: e.idx as u64 + CHILD,
                    op: None,
                    idx: e.idx,
                });
                next_seq += 1;
            }
        }
        pending.push(live(&outstanding, &cancelled));
    }
    (log, executed, pending)
}

fn check(prog: &[Op]) {
    let (engine_log, engine_executed, engine_pending) = run_engine(prog);
    let (model_log, model_executed, model_pending) = run_model(prog);
    prop_assert_eq!(&engine_log, &model_log, "execution order diverged");
    prop_assert_eq!(engine_executed, model_executed);
    prop_assert_eq!(&engine_pending, &model_pending, "events_pending diverged");
}

props! {
    #![config(cases = 256)]

    /// The calendar scheduler's execution order equals the reference
    /// priority-queue model's for any schedule/cancel program.
    #[test]
    fn scheduler_matches_priority_queue_model(
        prog in collection::vec((0u64..2_200_000, any::<u8>()), 1..48),
    ) {
        check(&prog);
    }

    /// Same, with every timestamp drawn from a handful of values a few
    /// nanoseconds apart, so that order is decided by the sequence
    /// number alone: closure events, plain events, children and cancels
    /// all collide.
    #[test]
    fn colliding_timestamps_run_in_sequence_order(
        prog in collection::vec((0u64..4, any::<u8>()), 1..64),
    ) {
        check(&prog);
    }
}
