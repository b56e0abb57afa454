//! IXCP — the control plane (§4.1, §4.4).
//!
//! In the real system the control plane is the full Linux kernel plus the
//! IXCP user-level daemon: it initializes devices, allocates whole cores,
//! large-page memory, and NIC hardware queues to dataplanes, monitors
//! their load, and elastically adds or revokes hardware threads using a
//! protocol similar to Exokernel's resource revocation. The paper leaves
//! sophisticated *policies* to future work and evaluates static
//! configurations.
//!
//! Here IXCP is a set of free functions over a [`Dataplane`] with one
//! mechanism underneath, `remap`: rewrite the RSS redirection table of
//! every port, quiesce the threads whose flow groups leave, move the
//! affected protocol control blocks between shards in bulk, and wake the
//! active threads (§4.4). Each entry point is only a policy — the table
//! it computes and the threads it drains:
//!
//! * [`set_active_threads`] — grant threads `0..n`: bucket `b → b % n`;
//! * [`reprogram_and_migrate`] — install a caller's table, timed, and
//!   wake only the threads that own buckets;
//! * [`start_queue_watchdog`] — re-steer the buckets of RX queues that
//!   stopped draining onto healthy ones;
//! * [`start_elastic_controller`] — the policy the paper left to future
//!   work: per-epoch queue-delay sampling against a tail-latency SLA
//!   proxy, hysteresis-gated core add/revoke with a bounded per-epoch
//!   migration rate, retry/backoff when the watchdog flags a target core
//!   hung, and a last-resort admission gate that sheds *new* connections
//!   at the NIC filter when every core is saturated (graceful overload
//!   degradation).
//!
//! [`FilterControl`] publishes the NIC-edge filter's rule table by RCU.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use ix_net::filter::{FilterPolicy, RuleAction};
use ix_net::ip::IpProto;
use ix_net::rss::RSS_BUCKETS;
use ix_nic::nic::NicRef;
use ix_sim::{Nanos, Simulator};
use ix_tcp::Tcb;

use crate::dataplane::{Dataplane, ElasticThread, ThreadRef};
use crate::rcu::Rcu;

/// Counters from the queue-hang watchdog (graceful degradation: a
/// non-draining RX queue gets its RSS flow groups re-steered to healthy
/// queues, reusing the §4.4 migration mechanism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Sampling passes executed.
    pub scans: u64,
    /// Hangs detected: a queue with backlog that polled nothing for a
    /// whole period.
    pub hangs_detected: u64,
    /// RSS redirection buckets moved off hung queues (counted once per
    /// table: every port carries the same one).
    pub buckets_resteered: u64,
    /// Live connections migrated to healthy shards.
    pub flows_migrated: u64,
    /// Frames discarded from hung rings at re-steer time (the wedged DMA
    /// consumer cannot poll them; modelled as a queue reset, recovered by
    /// TCP retransmission).
    pub frames_discarded: u64,
}

/// Shared handle to the watchdog's counters.
pub type WatchdogRef = Rc<RefCell<WatchdogStats>>;

/// The watchdog's published health verdicts: the thread indices flagged
/// hung by the most recent scan (empty when every queue is draining).
/// The elastic controller consults this before activating a core or
/// steering flow groups toward it — migrating traffic onto a wedged
/// queue would just move it into a black hole, so the controller backs
/// off and retries instead.
pub type WatchdogHealth = Rc<RefCell<Vec<usize>>>;

/// Host-side measurement of one bulk migration pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrateReport {
    /// Live flows moved between shards.
    pub moved: u64,
    /// Host wall-clock nanoseconds for the whole pass
    /// (`extract_ns + absorb_ns`).
    pub host_ns: u64,
    /// Host nanoseconds draining mis-steered buckets from their owners
    /// (bucket-list walks, table removes, batch timer cancels). Reads
    /// scattered cold flow state — the latency-bound half.
    pub extract_ns: u64,
    /// Host nanoseconds adopting the batches at their destinations
    /// (one reservation, streaming inserts, batched timer re-arm).
    pub absorb_ns: u64,
}

/// Every distinct NIC port the dataplane's threads serve. RSS tables
/// must be reprogrammed identically on all of them (a flow hashes the
/// same way on every member port).
fn dataplane_nics(threads: &[ThreadRef]) -> Vec<NicRef> {
    let mut nics: Vec<NicRef> = Vec::new();
    for th in threads {
        for (nic, _q) in &th.borrow().base.queues {
            if !nics.iter().any(|n| Rc::ptr_eq(n, nic)) {
                nics.push(nic.clone());
            }
        }
    }
    nics
}

/// The current RSS redirection table (the same on every port).
fn redirection(threads: &[ThreadRef]) -> Vec<usize> {
    threads[0].borrow().base.queues[0].0.borrow().redirection().to_vec()
}

/// Which threads [`remap`] wakes once the flows have moved.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// Every unparked thread.
    Unparked,
    /// Only the unparked threads that own a bucket of the new table.
    Owners,
}

/// The one way IXCP moves flow groups (§4.4):
///
/// 1. writes `map` to every port's redirection table, so new packets
///    steer to their new owners at once;
/// 2. quiesces each thread in `drain`: frames already in its RX rings
///    were steered under the *old* table and go through its own shard
///    first, then its in-flight user work is flushed into TCP (the
///    Exokernel-style revocation handshake) — otherwise the flows would
///    leave orphaned events and un-sent replies behind;
/// 3. moves every flow whose bucket now maps elsewhere, under a host
///    wall clock: each mis-steered bucket is drained from its owner via
///    the per-bucket flow-table index into one batch per destination
///    (pre-sized, so each TCB is written once), and each destination
///    absorbs its batch in one call (one table reservation, batched
///    timer re-arm). `filter`'s current snapshot is republished to every
///    destination: a rule update published while the migration was in
///    flight must not leave adopted flows classified by a stale one;
/// 4. wakes the unparked threads `wake` names so adopted flows make
///    progress.
///
/// Buckets drain in (source thread, bucket, insertion) order — a
/// function of the flows' history alone, so migration order is
/// layout-independent.
fn remap(
    sim: &mut Simulator,
    threads: &[ThreadRef],
    map: &[usize],
    drain: &[usize],
    filter: Option<&FilterControl>,
    wake: Wake,
) -> MigrateReport {
    let now_ns = sim.now().as_nanos();
    for nic in dataplane_nics(threads) {
        nic.borrow_mut().set_redirection(map.to_vec());
    }
    for &i in drain {
        let th = &threads[i];
        {
            let mut t = th.borrow_mut();
            let b = &mut t.base;
            for (nic, q) in &b.queues {
                loop {
                    let frame = nic.borrow_mut().rx_ring(*q).poll();
                    let Some(frame) = frame else { break };
                    b.shard.input(now_ns, frame);
                }
                let mut nn = nic.borrow_mut();
                let un = nn.rx_ring(*q).unreplenished();
                nn.rx_ring(*q).replenish(un);
            }
        }
        ElasticThread::drain_user_work(th, sim);
    }

    let t0 = Instant::now();
    let mut counts = vec![0usize; threads.len()];
    for (i, th) in threads.iter().enumerate() {
        let t = th.borrow();
        for (b, &q) in map.iter().enumerate() {
            if q != i {
                counts[q] += t.base.shard.bucket_len(b as u16);
            }
        }
    }
    let mut batches: Vec<Vec<Tcb>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (i, th) in threads.iter().enumerate() {
        let mut t = th.borrow_mut();
        for (b, &q) in map.iter().enumerate() {
            if q != i {
                t.base.shard.extract_bucket_into(b as u16, &mut batches[q]);
            }
        }
    }
    let moved = batches.iter().map(|b| b.len() as u64).sum();
    let extract_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    for (q, batch) in batches.into_iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        threads[q].borrow_mut().base.shard.absorb_flows(now_ns, batch);
        if let Some(fc) = filter {
            fc.republish_shard(&threads[q]);
        }
    }
    let absorb_ns = t1.elapsed().as_nanos() as u64;

    for (i, th) in threads.iter().enumerate() {
        if !th.borrow().parked && (wake == Wake::Unparked || map.contains(&i)) {
            ElasticThread::schedule_iteration(th, sim);
        }
    }
    MigrateReport { moved, host_ns: extract_ns + absorb_ns, extract_ns, absorb_ns }
}

/// Installs `map` as the redirection table and migrates every flow it
/// moves, quiescing all threads first and waking only the threads that
/// own buckets afterwards; the timed entry point the fig9-scale harness
/// drives.
pub fn reprogram_and_migrate(
    sim: &mut Simulator,
    dp: &Dataplane,
    map: Vec<usize>,
    filter: Option<&FilterControl>,
) -> MigrateReport {
    let all: Vec<usize> = (0..dp.threads.len()).collect();
    remap(sim, &dp.threads, &map, &all, filter, Wake::Owners)
}

/// Changes the number of active elastic threads to `n` (§4.4): threads
/// `0..n` become active and the rest are parked, RSS bucket `b` steers
/// to queue `b % n`, and live connections follow their buckets. `filter`,
/// when supplied, is republished to migration destinations.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds the dataplane's thread count.
pub fn set_active_threads(
    sim: &mut Simulator,
    dp: &Dataplane,
    n: usize,
    filter: Option<&FilterControl>,
) {
    assert!(n >= 1 && n <= dp.threads.len(), "bad thread count {n}");
    for (i, th) in dp.threads.iter().enumerate() {
        th.borrow_mut().parked = i >= n;
    }
    let map: Vec<usize> = (0..RSS_BUCKETS).map(|b| b % n).collect();
    let all: Vec<usize> = (0..dp.threads.len()).collect();
    remap(sim, &dp.threads, &map, &all, filter, Wake::Unparked);
}

/// Starts a periodic watchdog over the dataplane's RX queues. Every
/// `period_ns` it samples each queue's poll progress; a queue that
/// holds a backlog across a whole period without draining a single
/// frame is declared hung, and its RSS flow groups are re-steered to
/// the healthy queues (the §4.4 migration mechanism driven by a health
/// signal instead of a scaling decision). Re-steer migrations republish
/// `filter` to their destinations. The watchdog stops rescheduling
/// itself once the next tick would land past `deadline_ns`, so bounded
/// experiment runs still drain to completion.
///
/// Returns the watchdog's counters and its health handle: the
/// per-scan hung-thread verdicts the elastic controller reads.
pub fn start_queue_watchdog(
    sim: &mut Simulator,
    dp: &Dataplane,
    period_ns: u64,
    deadline_ns: u64,
    filter: Option<Rc<FilterControl>>,
) -> (WatchdogRef, WatchdogHealth) {
    let stats: WatchdogRef = Rc::new(RefCell::new(WatchdogStats::default()));
    let health: WatchdogHealth = Rc::new(RefCell::new(Vec::new()));
    let ctx = WatchdogCtx {
        last: dp.threads.iter().map(|t| vec![None; t.borrow().base.queues.len()]).collect(),
        threads: dp.threads.clone(),
        stats: stats.clone(),
        health: health.clone(),
        filter,
        period_ns,
        deadline_ns,
    };
    sim.schedule_in(Nanos(period_ns), move |sim| watchdog_tick(sim, ctx));
    (stats, health)
}

/// Everything one watchdog pass needs (bundled so the self-rescheduling
/// closure moves one value).
struct WatchdogCtx {
    threads: Vec<ThreadRef>,
    /// Last sample per thread and queue slot: frames polled so far and
    /// the ring backlog at that instant.
    last: Vec<Vec<Option<(u64, usize)>>>,
    stats: WatchdogRef,
    health: WatchdogHealth,
    filter: Option<Rc<FilterControl>>,
    period_ns: u64,
    deadline_ns: u64,
}

/// One watchdog pass: sample every queue, detect hangs, publish the
/// verdicts, re-steer, and reschedule while within the deadline.
fn watchdog_tick(sim: &mut Simulator, mut ctx: WatchdogCtx) {
    ctx.stats.borrow_mut().scans += 1;
    // Sample every queue first, then re-steer all hung threads in ONE
    // pass. Re-steering per detection handled simultaneous hangs badly:
    // the first re-steer only knew about the first hung queue, so it
    // happily rotated buckets onto the *other* wedged queue — traffic
    // moved from one black hole into another and stayed stalled until
    // (at best) a later tick.
    let mut hung: Vec<usize> = Vec::new();
    for (ti, th) in ctx.threads.iter().enumerate() {
        let t = th.borrow();
        if t.parked {
            continue;
        }
        for (pi, (nic, q)) in t.base.queues.iter().enumerate() {
            let (pending, received) = {
                let mut n = nic.borrow_mut();
                let r = n.rx_ring(*q);
                (r.pending(), r.received)
            };
            // Frames polled out so far; if this stands still across a
            // period while a backlog sits in the ring, nothing is
            // draining the queue.
            let polled = received - pending as u64;
            let prev = ctx.last[ti][pi].replace((polled, pending));
            if let Some((prev_polled, prev_pending)) = prev {
                if pending > 0 && prev_pending > 0 && polled == prev_polled {
                    ctx.stats.borrow_mut().hangs_detected += 1;
                    if !hung.contains(&ti) {
                        hung.push(ti);
                    }
                }
            }
        }
    }
    // Publish this scan's verdicts (clearing recovered threads) so the
    // elastic controller never steers flow groups toward a wedged core.
    *ctx.health.borrow_mut() = hung.clone();
    if !hung.is_empty() {
        resteer_hung_queues(sim, &ctx, &hung);
    }
    if sim.now().as_nanos() + ctx.period_ns <= ctx.deadline_ns {
        let period_ns = ctx.period_ns;
        sim.schedule_in(Nanos(period_ns), move |sim| watchdog_tick(sim, ctx));
    }
}

/// Moves every RSS bucket of every `hung` thread to the healthy active
/// queues (round-robin), resets the wedged rings, and migrates the hung
/// shards' connections to their new owners.
///
/// All simultaneously hung queues are handled in one pass so the
/// `healthy` set excludes *every* wedged thread: re-steering them one
/// at a time could round-robin a bucket from hung queue A onto
/// still-hung queue B, stranding roughly `1/healthy` of A's traffic in
/// a second black hole.
fn resteer_hung_queues(sim: &mut Simulator, ctx: &WatchdogCtx, hung: &[usize]) {
    let healthy: Vec<usize> = (0..ctx.threads.len())
        .filter(|i| !hung.contains(i) && !ctx.threads[*i].borrow().parked)
        .collect();
    if healthy.is_empty() {
        return; // Nowhere to move traffic: degraded until the hang ends.
    }
    let mut map = redirection(&ctx.threads);
    let mut moved = 0u64;
    for e in map.iter_mut().filter(|e| hung.contains(e)) {
        *e = healthy[moved as usize % healthy.len()];
        moved += 1;
    }
    // Discard frames wedged behind the stuck DMA consumer: they cannot
    // be polled during the hang, and replaying them after migration
    // would resurrect stale segments on the wrong shard. TCP
    // retransmission recovers the loss.
    let mut discarded = 0u64;
    for &h in hung {
        for (nic, q) in &ctx.threads[h].borrow().base.queues {
            let mut n = nic.borrow_mut();
            let ring = n.rx_ring(*q);
            while ring.poll().is_some() {
                discarded += 1;
            }
            let un = ring.unreplenished();
            ring.replenish(un);
        }
    }
    if moved == 0 {
        return; // Already re-steered by an earlier detection.
    }
    let filter = ctx.filter.as_deref();
    let flows = remap(sim, &ctx.threads, &map, &[], filter, Wake::Unparked).moved;
    let mut s = ctx.stats.borrow_mut();
    s.buckets_resteered += moved;
    s.frames_discarded += discarded;
    s.flows_migrated += flows;
}

// ---------------------------------------------------------------------
// The elastic control loop (§4.4 mechanisms + the policy the paper left
// to future work).
// ---------------------------------------------------------------------

/// Consecutive over-SLA epochs before a core is added (hysteresis: a
/// one-epoch blip must not trigger a migration storm), and before the
/// admission gate closes.
const ADD_EPOCHS: u32 = 2;

/// Revocation headroom: one fewer core must hold the projected delay
/// under `sla_ns / REVOKE_HEADROOM` before a revoke starts, so add and
/// revoke thresholds never chatter against each other.
const REVOKE_HEADROOM: u64 = 4;

/// Epochs to wait before retrying an add whose target core the watchdog
/// flagged hung.
const HUNG_BACKOFF_EPOCHS: u32 = 8;

/// Tuning for the elastic controller. All thresholds are expressed
/// through one queue-delay SLA proxy: a core's backlog (frames waiting
/// in its RX rings) times the estimated per-frame service time is the
/// latency a newly arrived request will see before processing even
/// starts — the §3 observation that queues "build up only at the NIC
/// edge" makes this the one place tail latency is forecastable.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Sampling/decision period.
    pub epoch_ns: u64,
    /// Queue-delay SLA proxy target: a core whose backlog exceeds this
    /// is violating; sustained violation adds a core.
    pub sla_ns: u64,
    /// Estimated service time per backlogged frame (converts ring depth
    /// into queueing delay).
    pub per_frame_ns: u64,
    /// Consecutive idle epochs before a core is revoked. Much longer
    /// than the two over-SLA epochs that add one: growing late costs
    /// SLA violations, shrinking late only costs energy.
    pub revoke_epochs: u32,
    /// Never revoke below this many active threads.
    pub min_active: usize,
    /// Bounded migration rate: at most this many RSS redirection
    /// buckets move per epoch, so a scaling decision never migrates the
    /// whole connection table in one burst.
    pub max_buckets_per_epoch: usize,
    /// Graceful overload degradation: when every core is active and the
    /// delay proxy exceeds `shed_sla_ns`, publish a [`RuleAction::DropSyn`]
    /// rule for this port via the dataplane's [`FilterControl`] —
    /// shedding *new* connections at the NIC edge instead of letting
    /// established-flow latency collapse. Requires a filter handle.
    pub shed_port: Option<u16>,
    /// Queue-delay level that turns the admission gate on (only with
    /// every core already active).
    pub shed_sla_ns: u64,
    /// Consecutive calm epochs before the admission gate lifts —
    /// deliberately shorter than `revoke_epochs`: a closed gate turns
    /// away legitimate connections, so it reopens as soon as the
    /// overload clearly passes, while core revocation stays
    /// conservative.
    pub shed_calm_epochs: u32,
}

impl Default for ElasticConfig {
    fn default() -> ElasticConfig {
        ElasticConfig {
            epoch_ns: 200_000,
            sla_ns: 300_000,
            per_frame_ns: 2_000,
            revoke_epochs: 20,
            min_active: 1,
            max_buckets_per_epoch: 16,
            shed_port: None,
            shed_sla_ns: 600_000,
            shed_calm_epochs: 6,
        }
    }
}

/// Counters from the elastic control loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Decision epochs executed.
    pub epochs: u64,
    /// Cores added (spike absorption).
    pub adds: u64,
    /// Core revocations decided (idle consolidation).
    pub revokes: u64,
    /// Revoked threads fully drained and parked.
    pub parks: u64,
    /// Adds deferred because the watchdog flagged the target core hung
    /// (each defer backs off eight epochs before retrying).
    pub add_retries: u64,
    /// RSS redirection buckets moved (rate-bounded per epoch).
    pub buckets_moved: u64,
    /// Live connections migrated between shards.
    pub flows_migrated: u64,
    /// Admission gate turn-ons / turn-offs.
    pub shed_enables: u64,
    /// See `shed_enables`.
    pub shed_disables: u64,
    /// Epochs the admission gate spent active.
    pub shed_epochs: u64,
    /// Epochs where the delay proxy exceeded the SLA.
    pub sla_violation_epochs: u64,
    /// Σ (unparked threads) over epochs — the busy-cores × time energy
    /// proxy (multiply by `epoch_ns` for core-nanoseconds). A static
    /// allocation pays `threads × epochs`.
    pub busy_core_epochs: u64,
    /// High-water mark of the queue-delay proxy.
    pub max_delay_ns: u64,
}

/// Shared handle to the controller's counters.
pub type ElasticRef = Rc<RefCell<ElasticStats>>;

/// Mutable decision state between epochs.
#[derive(Debug, Default)]
struct ElasticState {
    target_active: usize,
    over_streak: u32,
    idle_streak: u32,
    shed_over_streak: u32,
    shed_calm_streak: u32,
    /// Epochs left before a hung-target add may be retried.
    backoff: u32,
    shed_on: bool,
}

/// Everything one controller epoch needs (bundled so the
/// self-rescheduling closure moves one value).
struct ElasticCtx {
    threads: Vec<ThreadRef>,
    cfg: ElasticConfig,
    filter: Option<Rc<FilterControl>>,
    health: Option<WatchdogHealth>,
    stats: ElasticRef,
    state: ElasticState,
    deadline_ns: u64,
}

/// Starts the elastic control loop over `dp`: every `cfg.epoch_ns` it
/// samples per-core queue depth, converts it to the queue-delay SLA
/// proxy, and issues hysteresis-gated core add / revoke commands with a
/// bounded per-epoch migration rate. `filter` enables the overload
/// admission gate (and keeps migration destinations' policy snapshots
/// fresh); `health` is the watchdog's published hung-set, consulted
/// before steering flow groups toward a core. The controller initial
/// target is the currently unparked thread count; it stops rescheduling
/// once the next epoch would land past `deadline_ns`.
pub fn start_elastic_controller(
    sim: &mut Simulator,
    dp: &Dataplane,
    cfg: ElasticConfig,
    filter: Option<Rc<FilterControl>>,
    health: Option<WatchdogHealth>,
    deadline_ns: u64,
) -> ElasticRef {
    let stats: ElasticRef = Rc::new(RefCell::new(ElasticStats::default()));
    let target = dp.threads.iter().filter(|t| !t.borrow().parked).count().max(1);
    let epoch_ns = cfg.epoch_ns;
    let ctx = ElasticCtx {
        threads: dp.threads.clone(),
        cfg,
        filter,
        health,
        stats: stats.clone(),
        state: ElasticState { target_active: target, ..ElasticState::default() },
        deadline_ns,
    };
    sim.schedule_in(Nanos(epoch_ns), move |sim| elastic_tick(sim, ctx));
    stats
}

/// One controller epoch: sample, decide, converge, park, gate.
fn elastic_tick(sim: &mut Simulator, mut ctx: ElasticCtx) {
    let now_ns = sim.now().as_nanos();
    let n = ctx.threads.len();
    let cfg = &ctx.cfg;
    let s = &mut ctx.state;
    let hung: Vec<usize> =
        ctx.health.as_ref().map(|h| h.borrow().clone()).unwrap_or_default();

    // --- Sample: per-core RX backlog over the unparked threads. The
    //     signal is the ring-depth high-water mark since the previous
    //     epoch, not the instantaneous depth: run-to-completion drains
    //     the ring at every iteration, so a point sample reads ~0 even
    //     on a core whose bursts queue far past the SLA. ---
    let mut max_pending = 0usize;
    let mut total_pending = 0usize;
    let mut busy = 0usize;
    for th in ctx.threads.iter() {
        let t = th.borrow();
        if t.parked {
            continue;
        }
        busy += 1;
        let mut mine = 0usize;
        for (nic, q) in &t.base.queues {
            mine += nic.borrow_mut().rx_ring(*q).take_depth_hwm();
        }
        max_pending = max_pending.max(mine);
        total_pending += mine;
    }
    let max_delay = max_pending as u64 * cfg.per_frame_ns;

    let mut wake_new: Option<usize> = None;
    {
        let mut st = ctx.stats.borrow_mut();
        st.epochs += 1;
        st.busy_core_epochs += busy as u64;
        st.max_delay_ns = st.max_delay_ns.max(max_delay);
        if s.backoff > 0 {
            s.backoff -= 1;
        }

        // --- Hysteresis bookkeeping. ---
        if max_delay > cfg.sla_ns {
            st.sla_violation_epochs += 1;
            s.over_streak += 1;
            s.idle_streak = 0;
        } else {
            s.over_streak = 0;
            // Idle iff one fewer core would still hold the delay proxy
            // with `REVOKE_HEADROOM` to spare.
            let projected = if s.target_active > 1 {
                total_pending as u64 * cfg.per_frame_ns / (s.target_active as u64 - 1)
            } else {
                u64::MAX
            };
            if projected.saturating_mul(REVOKE_HEADROOM) <= cfg.sla_ns {
                s.idle_streak += 1;
            } else {
                s.idle_streak = 0;
            }
        }

        // --- Scale decision. ---
        if s.over_streak >= ADD_EPOCHS && s.target_active < n && s.backoff == 0 {
            // Threads activate in index order, so the add target is the
            // first parked index.
            let next = s.target_active;
            if hung.contains(&next) {
                // The watchdog says this core is a black hole: defer the
                // add and back off before retrying rather than migrating
                // flow groups into it.
                st.add_retries += 1;
                s.backoff = HUNG_BACKOFF_EPOCHS;
            } else {
                s.target_active += 1;
                st.adds += 1;
                s.over_streak = 0;
                wake_new = Some(next);
            }
        } else if s.idle_streak >= cfg.revoke_epochs && s.target_active > cfg.min_active.max(1)
        {
            s.target_active -= 1;
            st.revokes += 1;
            s.idle_streak = 0;
        }
    }
    if let Some(next) = wake_new {
        ctx.threads[next].borrow_mut().parked = false;
        ElasticThread::schedule_iteration(&ctx.threads[next], sim);
    }

    // --- Converge the redirection tables toward bucket b → b % target,
    //     at most `max_buckets_per_epoch` buckets per epoch, draining the
    //     sources those buckets leave before their flows move. ---
    let target = s.target_active;
    let mut map = redirection(&ctx.threads);
    let (moved_buckets, sources) =
        converge_buckets(&mut map, target, cfg.max_buckets_per_epoch, &hung);
    if moved_buckets > 0 {
        ctx.stats.borrow_mut().buckets_moved += moved_buckets;
        let drain: Vec<usize> =
            sources.into_iter().filter(|&i| !ctx.threads[i].borrow().parked).collect();
        let flows =
            remap(sim, &ctx.threads, &map, &drain, ctx.filter.as_deref(), Wake::Unparked).moved;
        ctx.stats.borrow_mut().flows_migrated += flows;
    }

    // --- Park revoked threads once fully drained: no buckets steer to
    //     them, their rings are empty, and their shards hold no flows
    //     (the Exokernel-style revocation handshake completes here). ---
    for i in target..n {
        let th = &ctx.threads[i];
        if th.borrow().parked || map.contains(&i) {
            continue;
        }
        let (flows, backlog) = {
            let t = th.borrow();
            let mut backlog = 0usize;
            for (nic, q) in &t.base.queues {
                backlog += nic.borrow_mut().rx_ring(*q).pending();
            }
            (t.base.shard.flow_count(), backlog)
        };
        if flows == 0 && backlog == 0 {
            ElasticThread::drain_user_work(th, sim);
            th.borrow_mut().parked = true;
            ctx.stats.borrow_mut().parks += 1;
        }
    }

    // --- Admission gate (graceful overload degradation). ---
    if let (Some(port), Some(fc)) = (cfg.shed_port, ctx.filter.as_ref()) {
        let mut st = ctx.stats.borrow_mut();
        let saturated = s.target_active == n;
        if saturated && max_delay > cfg.shed_sla_ns {
            s.shed_over_streak += 1;
            s.shed_calm_streak = 0;
        } else {
            s.shed_over_streak = 0;
            if max_delay <= cfg.sla_ns / 2 {
                s.shed_calm_streak += 1;
            } else {
                s.shed_calm_streak = 0;
            }
        }
        if !s.shed_on && s.shed_over_streak >= ADD_EPOCHS {
            // Every core is active and still drowning: shed new
            // connections at the NIC edge so established flows keep
            // their latency. Established traffic passes untouched.
            s.shed_on = true;
            st.shed_enables += 1;
            fc.update(|p| p.clone().rule_port(IpProto::Tcp, port, RuleAction::DropSyn));
        } else if s.shed_on && s.shed_calm_streak >= cfg.shed_calm_epochs {
            // Sustained calm: lift the gate (explicit Pass overrides the
            // DropSyn rule; last writer wins in the rule table).
            s.shed_on = false;
            st.shed_disables += 1;
            fc.update(|p| p.clone().rule_port(IpProto::Tcp, port, RuleAction::Pass));
        }
        if s.shed_on {
            st.shed_epochs += 1;
        }
    }

    if now_ns + cfg.epoch_ns <= ctx.deadline_ns {
        let epoch_ns = cfg.epoch_ns;
        sim.schedule_in(Nanos(epoch_ns), move |sim| elastic_tick(sim, ctx));
    }
}

/// Moves up to `budget` buckets of `map` toward the canonical table
/// `bucket b → queue (b % target)`. Buckets whose wanted owner is in
/// `skip` (hung) stay where they are and retry next epoch. Returns the
/// number of buckets moved and the distinct old owners they moved away
/// from (whose rings must drain before their flows migrate).
fn converge_buckets(
    map: &mut [usize],
    target: usize,
    budget: usize,
    skip: &[usize],
) -> (u64, Vec<usize>) {
    let mut moved = 0u64;
    let mut sources: Vec<usize> = Vec::new();
    for (b, e) in map.iter_mut().enumerate() {
        if moved as usize >= budget {
            break;
        }
        let want = b % target;
        if *e != want && !skip.contains(&want) {
            if !sources.contains(e) {
                sources.push(*e);
            }
            *e = want;
            moved += 1;
        }
    }
    (moved, sources)
}

/// IXCP's handle on a dataplane's pre-stack filter: the rule table lives
/// in an [`Rcu`] cell owned here; every elastic thread's NIC queues and
/// TCP shard hold `Rc` snapshots of the current version. Updating rules
/// is a pure control-plane action — build the new table, publish it,
/// swap the snapshots — and the hot path never sees anything but an
/// immutable object it already holds, exactly the paper's "commutative
/// API calls + RCU for the rare shared state" recipe (§4.3).
pub struct FilterControl {
    rcu: Rcu<FilterPolicy>,
    readers: Vec<crate::rcu::ReaderId>,
    nics: Vec<NicRef>,
    threads: Vec<ThreadRef>,
    /// False after [`uninstall`](FilterControl::uninstall): updates keep
    /// versioning the table but nothing is published — an `update`
    /// racing an uninstall must not resurrect the filter on the hot
    /// path, and a migration absorb must not re-arm a retired policy.
    installed: Cell<bool>,
}

impl FilterControl {
    /// Publishes `policy` to every NIC port and shard of `dp` and
    /// returns the control handle. One RCU reader is registered per
    /// elastic thread (the real system's per-core quiescence bookkeeping).
    pub fn install(dp: &Dataplane, policy: FilterPolicy) -> FilterControl {
        let rcu = Rcu::new(policy);
        let nics = dataplane_nics(&dp.threads);
        let readers = dp.threads.iter().map(|_| rcu.register_reader()).collect();
        let fc = FilterControl {
            rcu,
            readers,
            nics,
            threads: dp.threads.clone(),
            installed: Cell::new(true),
        };
        fc.publish();
        fc
    }

    /// Pushes the current snapshot into every NIC and shard.
    fn publish(&self) {
        let snap = self.rcu.read();
        for nic in &self.nics {
            nic.borrow_mut().set_filter(Some(snap.clone()));
        }
        for th in &self.threads {
            th.borrow_mut().base.shard.set_filter_policy(Some(snap.clone()));
        }
    }

    /// Replaces the rule table: `f` builds the successor from the
    /// current version (add/remove rules, rebuild from scratch — the
    /// policy is a value). The new snapshot is republished and the old
    /// version reclaimed.
    pub fn update(&self, f: impl FnOnce(&FilterPolicy) -> FilterPolicy) {
        self.rcu.update(f);
        if self.installed.get() {
            self.publish();
        }
        // Control-plane actions run between run-to-completion cycles in
        // the single-threaded simulation, so every registered reader is
        // at a quiescent point the moment the snapshots are swapped;
        // retired versions reclaim immediately.
        for r in &self.readers {
            self.rcu.quiescent(*r);
        }
        self.rcu.reclaim();
    }

    /// Re-pushes the current snapshot into one shard. The §4.4
    /// migration absorb path calls this for every destination: a rule
    /// update published while the migration was in flight would
    /// otherwise leave the adopted flows classified by whatever stale
    /// snapshot the destination captured before the update. No-op after
    /// [`uninstall`](FilterControl::uninstall).
    pub fn republish_shard(&self, th: &ThreadRef) {
        if !self.installed.get() {
            return;
        }
        th.borrow_mut().base.shard.set_filter_policy(Some(self.rcu.read()));
    }

    /// Removes the filter from every NIC and shard (the dataplane
    /// returns to the exact unfiltered hot path). Later `update`s keep
    /// versioning the rule table without publishing it.
    pub fn uninstall(&self) {
        self.installed.set(false);
        for nic in &self.nics {
            nic.borrow_mut().set_filter(None);
        }
        for th in &self.threads {
            th.borrow_mut().base.shard.set_filter_policy(None);
        }
    }

    /// The current policy snapshot (what the hot path is classifying
    /// with).
    pub fn snapshot(&self) -> Rc<FilterPolicy> {
        self.rcu.read()
    }

    /// Retired-but-unreclaimed policy versions (tests pin this at 0
    /// after `update`).
    pub fn retired_len(&self) -> usize {
        self.rcu.retired_len()
    }
}

impl std::fmt::Debug for FilterControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterControl")
            .field("rules", &self.rcu.read().rule_count())
            .field("nics", &self.nics.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}
