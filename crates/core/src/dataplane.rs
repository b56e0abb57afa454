//! Elastic threads and the run-to-completion cycle (Fig 1b).
//!
//! Each elastic thread makes exclusive use of one hardware thread and one
//! NIC queue pair per port (§4.1). An iteration executes the six steps of
//! Fig 1b:
//!
//! 1. poll the RX descriptor ring(s) and replenish buffer descriptors
//!    (with ≥32-descriptor PCIe doorbell coalescing, §6);
//! 2. run a *bounded* batch of packets (≤ B) through the TCP/IP stack,
//!    generating event conditions;
//! 3. cross into user mode and let the application consume all event
//!    conditions and emit batched system calls;
//! 4. process the batched system calls;
//! 5. run kernel timers;
//! 6. place outgoing frames on the TX descriptor ring and ring the
//!    doorbell; reclaim completed descriptors.
//!
//! Batching is *adaptive*: the batch is whatever has accumulated, up to
//! B — the thread never waits to fill a batch (§3), so at low load the
//! batch size is 1 and latency is minimal, while under load batches grow
//! and amortize the fixed costs. All CPU work is charged to the thread's
//! core, split between the kernel (dataplane) and user domains — the
//! measurement behind the §5.5 "75% kernel time on Linux vs <10% on IX"
//! result.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ix_mempool::Mbuf;
use ix_net::rss::RSS_BUCKETS;
use ix_nic::cache::DdioModel;
use ix_nic::host::{CoreRef, CpuDomain, Host};
use ix_nic::nic::{Nic, NicRef, QueueId};
use ix_sim::{EventId, EventTarget, Nanos, SimTime, Simulator};
use ix_tcp::{StackConfig, TcpShard};
use ix_testkit::buffer_id;

use crate::api::{IxApp, Syscall, SyscallResult, UserCtx};
use crate::params::CostParams;

/// Counters for one elastic thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataplaneStats {
    /// Run-to-completion iterations executed.
    pub iterations: u64,
    /// Event conditions delivered to the application.
    pub events: u64,
    /// Batched system calls processed.
    pub syscalls: u64,
    /// Iterations whose batch hit the bound B.
    pub full_batches: u64,
    /// TX frames dropped because the ring was full: the rings' own
    /// count, summed by [`Dataplane::stats`] (0 in a thread's `stats`).
    pub tx_ring_drops: u64,
    /// Sum of batch sizes (for average batch size).
    pub batch_sum: u64,
    /// Cycles in which a per-iteration scratch buffer (RX frame batch,
    /// TX staging, event/result/syscall vectors) had to grow. Warm-up
    /// cycles establish the high-water capacities; steady state is
    /// pinned at 0 growths per cycle by `dataplane_e2e`.
    pub scratch_allocs: u64,
}

/// One elastic thread: a hardware thread + NIC queue(s) + a TCP shard +
/// the application's per-thread event loop.
pub struct ElasticThread {
    /// The shard, application, queues and scratch every engine's core has.
    pub base: EngineCore,
    cost: CostParams,
    ddio: DdioModel,
    /// Host-wide connection count (shared across threads) for the DDIO
    /// working-set model.
    host_conns: Rc<Cell<u64>>,
    my_conns_last: u64,
    iteration_scheduled: bool,
    /// Round-robin cursor for TX queue selection.
    tx_cursor: usize,
    /// Descriptors consumed since the last replenish doorbell.
    rx_since_replenish: Vec<usize>,
    /// Set by the control plane to quiesce this thread (revocation).
    pub parked: bool,
    /// Reusable per-cycle scratch: TX frames routed to their queues,
    /// parked here from the end of `run_iteration` until the cycle's
    /// commit event pushes them to the rings (one cycle is in flight at
    /// a time: the next iteration cannot start before the core is free,
    /// which is when the commit fires).
    out_scratch: Vec<(NicRef, QueueId, Mbuf)>,
    /// High-water sum of scratch capacities; growth past it counts one
    /// `scratch_allocs` (ping-ponging buffers of unequal capacity stay
    /// under the mark, so only real reallocation registers).
    scratch_cap_hwm: usize,
    /// Counters.
    pub stats: DataplaneStats,
}

/// Shared handle to an elastic thread.
pub type ThreadRef = Rc<RefCell<ElasticThread>>;

impl ElasticThread {
    /// Identity of every vector the thread recycles from cycle to cycle
    /// (see [`ix_testkit::buffer_id`]): the base's and `out_scratch`.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = self.base.scratch_buffers();
        ids.push(buffer_id(&self.out_scratch));
        ids
    }

    /// Schedules an iteration at the earliest instant the core is free.
    /// Idempotent: a pending iteration absorbs later triggers.
    pub fn schedule_iteration(th: &ThreadRef, sim: &mut Simulator) {
        let start = {
            let mut t = th.borrow_mut();
            if t.iteration_scheduled || t.parked {
                return;
            }
            t.iteration_scheduled = true;
            t.base.wake(sim)
        };
        sim.schedule_event_at(start, th, EV_ITERATE);
    }

    /// One run-to-completion cycle.
    fn run_iteration(th: &ThreadRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut guard = th.borrow_mut();
        let t = &mut *guard;
        t.iteration_scheduled = false;
        if t.parked {
            return;
        }
        t.stats.iterations += 1;
        // Fixed per-iteration work and per-packet work accumulate
        // separately: per-packet work gets the cold-batch scaling.
        let mut kernel: u64 = t.cost.poll_ns;
        let mut kernel_pkt: u64 = 0;

        // (1) Poll RX rings, round-robin across ports, bounded by B.
        // Frames accumulate into the thread's reusable scratch batch.
        let bound = t.cost.batch_bound;
        let mut frames = std::mem::take(&mut t.base.rx_scratch);
        debug_assert!(frames.is_empty());
        let nq = t.base.queues.len();
        'poll: loop {
            let mut any = false;
            for (qi, (nic, q)) in t.base.queues.iter().enumerate() {
                if frames.len() >= bound {
                    break 'poll;
                }
                // A hung RX queue (fault plane) stops draining: frames
                // stay in the ring until the window ends or the control
                // plane re-steers the flow groups away.
                if nic.borrow().rx_queue_hung(now_ns, *q) {
                    continue;
                }
                let f = nic.borrow_mut().rx_ring(*q).poll();
                if let Some(f) = f {
                    t.rx_since_replenish[qi] += 1;
                    frames.push(f);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let batch = frames.len();
        t.stats.batch_sum += batch as u64;
        if batch >= bound {
            t.stats.full_batches += 1;
        }
        t.base.rx_packets += batch as u64;
        // Replenish descriptors with doorbell coalescing (§6).
        for (pending, (nic, q)) in t.rx_since_replenish.iter_mut().zip(&t.base.queues) {
            if *pending >= t.cost.rx_replenish_batch {
                nic.borrow_mut().rx_ring(*q).replenish(*pending);
                *pending = 0;
                kernel += t.cost.pcie_doorbell_ns;
            }
        }

        // DDIO / connection working-set penalty (§5.4).
        let ddio_penalty = t.ddio.penalty_ns(t.host_conns.get());

        // (2) Protocol processing: the whole polled batch goes through
        // the stack in one call, grouped by flow. CPU cost is charged
        // per packet.
        for f in &frames {
            kernel_pkt += t.cost.rx_cost(f.len()) + ddio_penalty;
        }
        t.base.shard.input_batch(now_ns, &mut frames);
        t.base.rx_scratch = frames; // drained; capacity retained

        // (3) User-mode application processing and (4) its batched
        // system calls.
        let mut user: u64 = 0;
        if let Some(ran) = ElasticThread::user_phase(&mut t.base, now_ns, true) {
            kernel += 2 * t.cost.vmx_transition_ns + t.cost.event_ns * ran.events;
            kernel_pkt += t.cost.syscall_ns * ran.syscalls;
            t.stats.events += ran.events;
            t.stats.syscalls += ran.syscalls;
            user += ran.user_ns;
        }

        // (5) Kernel timers.
        kernel += t.cost.timer_pass_ns;
        t.base.shard.advance_timers(now_ns);

        // (6) Transmit: end-of-cycle ACKs reflect recv_done credits.
        t.base.shard.end_cycle(now_ns);
        let mut tx = t.base.shard.take_tx_swap(std::mem::take(&mut t.base.tx_scratch));
        let mut out = std::mem::take(&mut t.out_scratch);
        debug_assert!(out.is_empty(), "previous cycle's commit has run");
        for f in tx.drain(..) {
            kernel_pkt += t.cost.tx_cost(f.len());
            let (nic, q) = t.base.queues[t.tx_cursor % nq].clone();
            t.tx_cursor = t.tx_cursor.wrapping_add(1);
            out.push((nic, q, f));
        }
        t.base.tx_scratch = tx; // drained; capacity recycled into the shard
        if !out.is_empty() {
            kernel += t.cost.pcie_doorbell_ns;
        }

        // Update the host-wide connection count for the DDIO model.
        let fc = t.base.shard.flow_count() as u64;
        // `host_conns` always includes this thread's previous count, so
        // subtract-then-add cannot underflow.
        t.host_conns.set(t.host_conns.get() - t.my_conns_last + fc);
        t.my_conns_last = fc;

        // Cold-batch scaling of the per-packet work (§3).
        let scale = 1.0 + t.cost.cold_batch_penalty / batch.max(1) as f64;
        kernel += (kernel_pkt as f64 * scale).round() as u64;
        // Charge the core: kernel then user (order does not matter for
        // the end time; the split feeds the §5.5 measurement).
        let mid = t.base.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let end = t.base.core.borrow_mut().run(mid, Nanos(user), CpuDomain::User);
        t.base.tx_packets += out.len() as u64;
        // Scratch-growth accounting: any reallocation this cycle pushed
        // the capacity sum past its high-water mark.
        let b = &t.base;
        let cap_now = b.rx_scratch.capacity()
            + out.capacity()
            + b.tx_scratch.capacity()
            + b.ctx.events.capacity()
            + b.ctx.results.capacity()
            + b.ctx.syscalls.capacity()
            + b.kicks.capacity()
            + b.pending_results.capacity();
        if cap_now > t.scratch_cap_hwm {
            t.stats.scratch_allocs += 1;
            t.scratch_cap_hwm = cap_now;
        }
        t.out_scratch = out;
        drop(guard);

        // Outputs become visible at the end of the cycle.
        sim.schedule_event_at(end, th, EV_COMMIT);
    }

    /// Steps (3) and (4): loads the shard's event conditions and the
    /// previous batch's return codes straight into the user context and
    /// runs [`EngineCore::run_app`]. Returns `None`, having run nothing,
    /// when there is nothing to deliver — unless `ask_app` is set and
    /// the application wants a cycle anyway.
    fn user_phase(b: &mut EngineCore, now_ns: u64, ask_app: bool) -> Option<AppStep> {
        let ctx = &mut b.ctx;
        debug_assert!(ctx.events.is_empty() && ctx.results.is_empty() && ctx.syscalls.is_empty());
        ctx.events = b.shard.take_events_swap(std::mem::take(&mut ctx.events));
        ctx.results.reserve(b.pending_results.len());
        std::mem::swap(&mut ctx.results, &mut b.pending_results);
        let idle = ctx.events.is_empty() && ctx.results.is_empty();
        if idle && !(ask_app && b.wants_cycle(now_ns)) {
            return None;
        }
        Some(b.run_app(now_ns, Syscall::execute))
    }

    /// The end of a cycle: its frames reach the TX rings, the doorbells
    /// ring, and the thread decides what to do next.
    fn commit(th: &ThreadRef, sim: &mut Simulator) {
        let mut guard = th.borrow_mut();
        let t = &mut *guard;
        for (nic, q, f) in t.out_scratch.drain(..) {
            tx_push(&nic, q, f, &mut t.base.kicks);
        }
        ring_doorbells(&mut t.base.kicks, sim);
        drop(guard);
        ElasticThread::post_cycle(th, sim);
    }

    /// After a cycle commits: either chain the next iteration (work is
    /// pending) or go quiescent and arm a timer wake-up.
    fn post_cycle(th: &ThreadRef, sim: &mut Simulator) {
        let (more, wake_in) = {
            let t = th.borrow();
            let b = &t.base;
            if t.parked {
                (false, None)
            } else {
                let now_ns = sim.now().as_nanos();
                let rx_pending = b.queues.iter().any(|(nic, q)| {
                    let mut n = nic.borrow_mut();
                    // Backlog on a hung queue cannot be drained by
                    // iterating; sleep and let the notify edge (or the
                    // watchdog) wake us instead of busy-spinning.
                    n.rx_ring(*q).pending() > 0 && !n.rx_queue_hung(now_ns, *q)
                });
                let more = rx_pending
                    || !b.shard.quiescent()
                    || b.wants_cycle(now_ns)
                    || !b.pending_results.is_empty();
                if more {
                    (true, None)
                } else {
                    (false, b.idle_wake_in(now_ns))
                }
            }
        };
        if more {
            ElasticThread::schedule_iteration(th, sim);
        } else if let Some(ns) = wake_in {
            // Quiescent state: "hyperthread-friendly polling" — the wake
            // is free in virtual time; only real work costs CPU.
            let id = sim.schedule_event_in(Nanos(ns), th, EV_IDLE_WAKE);
            th.borrow_mut().base.idle_wake = Some(id);
        }
    }

    /// Synchronously completes in-flight user-level work before the
    /// control plane parks this thread (the Exokernel-style revocation
    /// protocol of §4.1): pending syscall results are delivered, the
    /// application flushes its buffered writes into the TCP stack, and
    /// the produced frames go out through [`tx_push`] and
    /// [`ring_doorbells`] at once — so migration finds every byte
    /// inside the (migratable) protocol state rather than stranded in
    /// user space. Control-plane transitions are rare and coarse-grained
    /// (§4.4), so their CPU cost is not charged to the measured domains.
    pub(crate) fn drain_user_work(th: &ThreadRef, sim: &mut Simulator) {
        let mut guard = th.borrow_mut();
        let t = &mut *guard;
        for _ in 0..32 {
            let now_ns = sim.now().as_nanos();
            if ElasticThread::user_phase(&mut t.base, now_ns, false).is_none() {
                break;
            }
            let b = &mut t.base;
            b.shard.advance_timers(now_ns);
            b.shard.end_cycle(now_ns);
            // Step (6), run synchronously. A commit still pending keeps
            // its own frames staged in `out_scratch`.
            let mut tx = b.shard.take_tx_swap(std::mem::take(&mut b.tx_scratch));
            b.tx_packets += tx.len() as u64;
            for f in tx.drain(..) {
                let (nic, q) = &b.queues[t.tx_cursor % b.queues.len()];
                t.tx_cursor = t.tx_cursor.wrapping_add(1);
                tx_push(nic, *q, f, &mut b.kicks);
            }
            b.tx_scratch = tx;
            ring_doorbells(&mut b.kicks, sim);
        }
    }
}

/// Plain-event arguments: the three things a thread schedules on itself.
const EV_ITERATE: u64 = 0;
const EV_COMMIT: u64 = 1;
const EV_IDLE_WAKE: u64 = 2;

impl EventTarget for ElasticThread {
    fn on_event(th: &ThreadRef, sim: &mut Simulator, arg: u64) {
        match arg {
            EV_ITERATE => ElasticThread::run_iteration(th, sim),
            EV_COMMIT => ElasticThread::commit(th, sim),
            _ => {
                debug_assert_eq!(arg, EV_IDLE_WAKE);
                th.borrow_mut().base.idle_wake = None;
                ElasticThread::schedule_iteration(th, sim);
            }
        }
    }
}

/// A dataplane: one application, N elastic threads on N hardware threads
/// (§4.1: "Each IX dataplane supports a single, multithreaded
/// application"). Cloning copies the handles, not the threads.
#[derive(Clone)]
pub struct Dataplane {
    /// The elastic threads.
    pub threads: Vec<ThreadRef>,
    /// Host-wide live connection count (for the DDIO model and stats).
    pub host_conns: Rc<Cell<u64>>,
}

impl Dataplane {
    /// Launches a dataplane on `host`, with one elastic thread per entry
    /// of `cores`; thread *i* serves RSS queue *i* of every port of the
    /// host and runs the application built by `app_factory(i)`.
    ///
    /// `listen_port`, if set, is opened on every thread (flow-consistent
    /// hashing keeps each connection on one thread).
    pub fn launch(
        sim: &mut Simulator,
        host: &Host,
        n_threads: usize,
        cost: CostParams,
        stack_cfg: StackConfig,
        listen_port: Option<u16>,
        app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> Dataplane {
        let host_conns = Rc::new(Cell::new(0u64));
        let ddio = DdioModel::new(host.nics[0].borrow().params());
        let threads = launch_cores(
            host,
            n_threads,
            &stack_cfg,
            listen_port,
            app_factory,
            |base| ElasticThread {
                cost: cost.clone(),
                ddio: ddio.clone(),
                host_conns: host_conns.clone(),
                my_conns_last: 0,
                iteration_scheduled: false,
                tx_cursor: 0,
                rx_since_replenish: vec![0; base.queues.len()],
                parked: false,
                out_scratch: Vec::new(),
                scratch_cap_hwm: 0,
                stats: DataplaneStats::default(),
                base,
            },
            |th, sim, _| ElasticThread::schedule_iteration(th, sim),
        );
        // Kick every thread once so pacing apps (load generators) start.
        for th in &threads {
            ElasticThread::schedule_iteration(th, sim);
        }
        Dataplane { threads, host_conns }
    }

    /// Seeds the ARP tables of every thread (fabric bring-up helper).
    pub fn seed_arp(&self, ip: ix_net::Ipv4Addr, mac: ix_net::MacAddr) {
        for th in &self.threads {
            th.borrow_mut().base.shard.arp_seed(ip, mac);
        }
    }

    /// Aggregated statistics over all elastic threads.
    pub fn stats(&self) -> DataplaneStats {
        let mut s = DataplaneStats::default();
        for th in &self.threads {
            let t = th.borrow();
            s.iterations += t.stats.iterations;
            s.events += t.stats.events;
            s.syscalls += t.stats.syscalls;
            s.full_batches += t.stats.full_batches;
            s.batch_sum += t.stats.batch_sum;
            s.scratch_allocs += t.stats.scratch_allocs;
            // The one TX drop count is the rings' own (see [`tx_push`]).
            let rings = t.base.queues.iter().map(|(nic, q)| nic.borrow_mut().tx_ring(*q).full_rejections);
            s.tx_ring_drops = rings.fold(s.tx_ring_drops, |n, drops| n + drops);
        }
        s
    }

    /// Pokes every thread (e.g. after enqueuing external work).
    pub fn kick(&self, sim: &mut Simulator) {
        for th in &self.threads {
            ElasticThread::schedule_iteration(th, sim);
        }
    }
}

/// Fig 1b step (6) for one frame, as every engine makes it: places
/// `frame` on TX queue `q` of `nic`, reclaims the descriptors the wire
/// has completed, and notes `nic` once in `kicks` for
/// [`ring_doorbells`]. A full ring drops the frame and counts it in its
/// own `full_rejections`, the one TX drop count.
pub fn tx_push(nic: &NicRef, q: QueueId, frame: Mbuf, kicks: &mut Vec<NicRef>) {
    let mut n = nic.borrow_mut();
    if let Err(rejected) = n.tx_ring(q).push(frame) {
        drop(rejected);
    }
    n.tx_ring(q).reclaim();
    drop(n);
    if !kicks.iter().any(|k| Rc::ptr_eq(k, nic)) {
        kicks.push(nic.clone());
    }
}

/// Rings the doorbell of every NIC [`tx_push`] noted, in the order
/// noted, and empties `kicks`.
pub fn ring_doorbells(kicks: &mut Vec<NicRef>, sim: &mut Simulator) {
    for nic in kicks.drain(..) {
        Nic::kick_tx(&nic, sim);
    }
}

/// The per-core state the IX dataplane and the Linux and mTCP models
/// share, built by [`launch_cores`] and wrapped by each engine's core as
/// its `base`. The engines differ in how they load the user context,
/// what each step costs and when it runs; what a core does the same way
/// on all three is written once here.
pub struct EngineCore {
    /// Core index (equals the RSS queue it owns).
    pub id: usize,
    /// The TCP/IP shard for this core's flows.
    pub shard: TcpShard,
    app: Box<dyn IxApp>,
    /// `(nic, queue)` pairs served by this core (one per port).
    pub queues: Vec<(NicRef, QueueId)>,
    /// The hardware thread the core's work is charged to.
    pub core: CoreRef,
    /// The application's user context, kept across cycles: the engine
    /// loads its event and result vectors, [`EngineCore::run_app`]
    /// drains its syscall batch in place.
    pub ctx: UserCtx,
    /// Return codes of the last batch, delivered with the next cycle.
    pub pending_results: Vec<SyscallResult>,
    /// The armed idle wake-up, if the core went quiescent.
    pub idle_wake: Option<EventId>,
    /// Recycled scratch: the polled RX batch.
    pub rx_scratch: Vec<Mbuf>,
    /// Recycled scratch: swapped into the shard's TX queue when its
    /// frames are taken.
    pub tx_scratch: Vec<Mbuf>,
    /// NICs [`tx_push`] noted for [`ring_doorbells`]; empty between events.
    pub kicks: Vec<NicRef>,
    /// Frames polled from the RX rings.
    pub rx_packets: u64,
    /// Frames bound for [`tx_push`] (on IX, counted when the cycle
    /// stages them for its commit).
    pub tx_packets: u64,
}

/// What one [`EngineCore::run_app`] did, for the engine's cost
/// accounting.
#[derive(Debug, Clone, Copy)]
pub struct AppStep {
    /// Event conditions delivered.
    pub events: u64,
    /// System calls executed.
    pub syscalls: u64,
    /// User-mode CPU the application charged, ns.
    pub user_ns: u64,
}

impl EngineCore {
    /// Fig 1b steps (3) and (4) on a loaded context: the application
    /// consumes `ctx.events` and `ctx.results`, then each system call it
    /// batched goes through `exec` — the engine's syscall semantics,
    /// [`Syscall::execute`] on IX and mTCP — and its return code into
    /// `pending_results`, for the next cycle.
    pub fn run_app(
        &mut self,
        now_ns: u64,
        mut exec: impl FnMut(Syscall, &mut TcpShard, u64, &mut UserCtx) -> SyscallResult,
    ) -> AppStep {
        let ctx = &mut self.ctx;
        let events = ctx.events.len() as u64;
        ctx.now_ns = now_ns;
        ctx.user_ns = 0;
        self.app.on_cycle(ctx);
        let mut syscalls = std::mem::take(&mut ctx.syscalls);
        let n = syscalls.len() as u64;
        for s in syscalls.drain(..) {
            self.pending_results.push(exec(s, &mut self.shard, now_ns, ctx));
        }
        ctx.unload(syscalls);
        AppStep { events, syscalls: n, user_ns: ctx.user_ns }
    }

    /// Whether the application wants a cycle with no network input.
    pub fn wants_cycle(&self, now_ns: u64) -> bool {
        self.app.wants_cycle(now_ns)
    }

    /// Nanoseconds from `now_ns` to the application's next deadline (at
    /// least 1), if it has one.
    pub fn app_deadline_in(&self, now_ns: u64) -> Option<u64> {
        self.app.next_deadline_ns().map(|d| d.saturating_sub(now_ns).max(1))
    }

    /// Nanoseconds from `now_ns` until a quiescent core must wake (at
    /// least 1): its shard's next timer or the application's deadline,
    /// whichever comes first.
    pub fn idle_wake_in(&self, now_ns: u64) -> Option<u64> {
        let wake = match (self.shard.next_timer_ns(), self.app_deadline_in(now_ns)) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        };
        wake.map(|w| w.max(1))
    }

    /// Cancels the armed idle wake-up, if any.
    pub fn cancel_idle_wake(&mut self, sim: &mut Simulator) {
        if let Some(w) = self.idle_wake.take() {
            sim.cancel(w);
        }
    }

    /// Wakes the core: cancels the idle wake-up and returns the earliest
    /// instant the core is free.
    pub fn wake(&mut self, sim: &mut Simulator) -> SimTime {
        self.cancel_idle_wake(sim);
        sim.now().max(self.core.borrow().busy_until)
    }

    /// Mutable access to the application (for test/bench inspection).
    pub fn app_mut(&mut self) -> &mut dyn IxApp {
        self.app.as_mut()
    }

    /// Identity of every vector the core recycles (see
    /// [`ix_testkit::buffer_id`]): its own scratch, the user context's
    /// and the shard's.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = vec![
            buffer_id(&self.rx_scratch),
            buffer_id(&self.tx_scratch),
            buffer_id(&self.kicks),
            buffer_id(&self.pending_results),
        ];
        ids.extend(self.ctx.scratch_buffers());
        ids.extend(self.shard.scratch_buffers());
        ids
    }
}

/// Brings up one engine's cores on `host`: the per-core wiring the IX
/// dataplane and the Linux and mTCP models share, so that they differ
/// only in how they schedule and charge the work.
///
/// Restricts RSS to the queues that have a core behind them
/// (redirection entry `i -> i % n` on every port). Core `i` gets a
/// [`TcpShard`] listening on `listen_port` (flow-consistent hashing
/// keeps each connection on one core) with the RSS steering oracle for
/// outbound connections (§4.4: the reply arrives on the queue the local
/// NIC's RSS assigns), queue `i` of every port, and the application
/// `app_factory(i)`, built right after its shard; `build` wraps that
/// [`EngineCore`] in the engine's core. A frame landing on a core's
/// queue calls `on_rx` with the queue's index in that list.
pub fn launch_cores<C: 'static>(
    host: &Host,
    n: usize,
    stack_cfg: &StackConfig,
    listen_port: Option<u16>,
    mut app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    mut build: impl FnMut(EngineCore) -> C,
    on_rx: fn(&Rc<RefCell<C>>, &mut Simulator, usize),
) -> Vec<Rc<RefCell<C>>> {
    assert!(n <= host.cores.len(), "not enough hardware threads");
    assert!(n <= host.nics[0].borrow().queues(), "not enough NIC queues");
    for nic in &host.nics {
        nic.borrow_mut().set_redirection((0..RSS_BUCKETS).map(|i| i % n).collect());
    }
    (0..n)
        .map(|i| {
            let mut shard = TcpShard::new(stack_cfg.clone(), host.ip, host.mac);
            if let Some(p) = listen_port {
                shard.listen(p);
            }
            let nic0 = host.nics[0].clone();
            shard.set_steering(i, Rc::new(move |bucket| nic0.borrow().redirection()[bucket as usize]));
            let base = EngineCore {
                id: i,
                shard,
                app: app_factory(i),
                queues: host.nics.iter().map(|n| (n.clone(), i)).collect(),
                core: host.cores[i].clone(),
                ctx: UserCtx::default(),
                pending_results: Vec::new(),
                idle_wake: None,
                rx_scratch: Vec::new(),
                tx_scratch: Vec::new(),
                kicks: Vec::new(),
                rx_packets: 0,
                tx_packets: 0,
            };
            let core = Rc::new(RefCell::new(build(base)));
            // Weak capture: the NIC must not keep the engine (and its
            // memory pools) alive — the notify edge would otherwise close
            // an Rc cycle through the core's queue list.
            for (qi, nic) in host.nics.iter().enumerate() {
                let weak = Rc::downgrade(&core);
                nic.borrow_mut().set_notify(
                    i,
                    Rc::new(move |sim: &mut Simulator, _| {
                        if let Some(core) = weak.upgrade() {
                            on_rx(&core, sim, qi);
                        }
                    }),
                );
            }
            core
        })
        .collect()
}
