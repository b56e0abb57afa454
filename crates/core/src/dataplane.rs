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

use ix_nic::cache::DdioModel;
use ix_nic::host::{CoreRef, CpuDomain, Host};
use ix_nic::nic::{Nic, NicRef, QueueId};
use ix_sim::{EventTarget, Nanos, Simulator};
use ix_tcp::{StackConfig, TcpShard};
use ix_testkit::buffer_id;

use crate::api::{IxApp, SyscallResult, UserCtx};
use crate::params::CostParams;

/// Counters for one elastic thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataplaneStats {
    /// Run-to-completion iterations executed.
    pub iterations: u64,
    /// Packets polled from RX rings.
    pub rx_packets: u64,
    /// Frames pushed to TX rings.
    pub tx_packets: u64,
    /// Event conditions delivered to the application.
    pub events: u64,
    /// Batched system calls processed.
    pub syscalls: u64,
    /// Iterations whose batch hit the bound B.
    pub full_batches: u64,
    /// TX frames dropped because the ring was full.
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
    /// Thread index within its dataplane.
    pub id: usize,
    cost: CostParams,
    /// The TCP/IP shard owned by this thread.
    pub shard: TcpShard,
    app: Box<dyn IxApp>,
    /// `(nic, queue)` pairs served by this thread (one per port).
    queues: Vec<(NicRef, QueueId)>,
    core: CoreRef,
    ddio: Option<DdioModel>,
    /// Host-wide connection count (shared across threads) for the DDIO
    /// working-set model.
    host_conns: Rc<Cell<u64>>,
    my_conns_last: u64,
    pending_results: Vec<SyscallResult>,
    iteration_scheduled: bool,
    idle_wake: Option<ix_sim::EventId>,
    /// Round-robin cursor for TX queue selection.
    tx_cursor: usize,
    /// Descriptors consumed since the last replenish doorbell.
    rx_since_replenish: Vec<usize>,
    /// Set by the control plane to quiesce this thread (revocation).
    pub parked: bool,
    /// Reusable per-cycle scratch: the polled RX frame batch.
    rx_scratch: Vec<ix_mempool::Mbuf>,
    /// Reusable per-cycle scratch: TX frames routed to their queues,
    /// parked here from the end of `run_iteration` until the cycle's
    /// commit event pushes them to the rings (one cycle is in flight at
    /// a time: the next iteration cannot start before the core is free,
    /// which is when the commit fires).
    out_scratch: Vec<(NicRef, QueueId, ix_mempool::Mbuf)>,
    /// Capacity recycled into the shard's TX queue each cycle.
    tx_scratch: Vec<ix_mempool::Mbuf>,
    /// The user context, kept across cycles: its event vector ping-pongs
    /// with the shard's event queue, its result vector with
    /// `pending_results`, and its syscall batch is drained in place.
    ctx: UserCtx,
    /// Reusable dedup list of NICs kicked by the commit event.
    kicked_scratch: Vec<NicRef>,
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
    /// Mutable access to the application (for test/bench inspection).
    pub fn app_mut(&mut self) -> &mut dyn IxApp {
        self.app.as_mut()
    }

    /// Identity of every vector the thread recycles from cycle to cycle
    /// (see [`ix_testkit::buffer_id`]): its own scratch, the user
    /// context's and the shard's.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = vec![
            buffer_id(&self.rx_scratch),
            buffer_id(&self.out_scratch),
            buffer_id(&self.tx_scratch),
            buffer_id(&self.kicked_scratch),
            buffer_id(&self.pending_results),
        ];
        ids.extend(self.ctx.scratch_buffers());
        ids.extend(self.shard.scratch_buffers());
        ids
    }

    /// The `(nic, queue)` pairs this thread serves (control-plane view).
    pub fn queues(&self) -> &[(NicRef, QueueId)] {
        &self.queues
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
            if let Some(w) = t.idle_wake.take() {
                sim.cancel(w);
            }
            let busy = t.core.borrow().busy_until;
            sim.now().max(busy)
        };
        sim.schedule_event_at(start, th, EV_ITERATE);
    }

    /// One run-to-completion cycle.
    fn run_iteration(th: &ThreadRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut t = th.borrow_mut();
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
        let mut frames = std::mem::take(&mut t.rx_scratch);
        debug_assert!(frames.is_empty());
        let nq = t.queues.len();
        'poll: for round in 0.. {
            let mut any = false;
            for qi in 0..nq {
                if frames.len() >= bound {
                    break 'poll;
                }
                let (nic, q) = t.queues[qi].clone();
                // A hung RX queue (fault plane) stops draining: frames
                // stay in the ring until the window ends or the control
                // plane re-steers the flow groups away.
                if nic.borrow().rx_queue_hung(now_ns, q) {
                    continue;
                }
                let f = nic.borrow_mut().rx_ring(q).poll();
                if let Some(f) = f {
                    t.rx_since_replenish[qi] += 1;
                    frames.push(f);
                    any = true;
                }
            }
            if !any {
                break;
            }
            let _ = round;
        }
        let batch = frames.len();
        t.stats.batch_sum += batch as u64;
        if batch >= bound {
            t.stats.full_batches += 1;
        }
        t.stats.rx_packets += batch as u64;
        // Replenish descriptors with doorbell coalescing (§6).
        for qi in 0..nq {
            let pending = t.rx_since_replenish[qi];
            if pending >= t.cost.rx_replenish_batch || (pending > 0 && t.cost.rx_replenish_batch <= 1) {
                let (nic, q) = t.queues[qi].clone();
                nic.borrow_mut().rx_ring(q).replenish(pending);
                t.rx_since_replenish[qi] = 0;
                kernel += t.cost.pcie_doorbell_ns;
            }
        }

        // DDIO / connection working-set penalty (§5.4).
        let ddio_penalty = match (&t.ddio, t.cost.use_ddio_model) {
            (Some(m), true) => m.penalty_ns(t.host_conns.get()),
            _ => 0,
        };

        // (2) Protocol processing: the whole polled batch goes through
        // the stack in one call, grouped by flow. CPU cost is charged
        // per packet.
        for f in &frames {
            kernel_pkt += t.cost.rx_cost(f.len()) + ddio_penalty;
        }
        t.shard.input_batch(now_ns, &mut frames);
        t.rx_scratch = frames; // drained; capacity retained

        // (3) User-mode application processing and (4) its batched
        // system calls.
        let mut user: u64 = 0;
        if let Some(ran) = ElasticThread::user_phase(&mut t, now_ns, true) {
            kernel += 2 * t.cost.vmx_transition_ns + t.cost.event_ns * ran.events;
            kernel_pkt += t.cost.syscall_ns * ran.syscalls;
            t.stats.events += ran.events;
            t.stats.syscalls += ran.syscalls;
            user += ran.user_ns;
        }

        // (5) Kernel timers.
        kernel += t.cost.timer_pass_ns;
        t.shard.advance_timers(now_ns);

        // (6) Transmit: end-of-cycle ACKs reflect recv_done credits.
        t.shard.end_cycle(now_ns);
        let recycled_tx = std::mem::take(&mut t.tx_scratch);
        let mut tx = t.shard.take_tx_swap(recycled_tx);
        let mut out = std::mem::take(&mut t.out_scratch);
        debug_assert!(out.is_empty(), "previous cycle's commit has run");
        for f in tx.drain(..) {
            kernel_pkt += t.cost.tx_cost(f.len());
            let (nic, q) = t.queues[t.tx_cursor % nq].clone();
            t.tx_cursor = t.tx_cursor.wrapping_add(1);
            out.push((nic, q, f));
        }
        t.tx_scratch = tx; // drained; capacity recycled into the shard
        if !out.is_empty() {
            kernel += t.cost.pcie_doorbell_ns;
        }

        // Update the host-wide connection count for the DDIO model.
        let fc = t.shard.flow_count() as u64;
        let prev = t.my_conns_last;
        // `host_conns` always includes this thread's previous count, so
        // subtract-then-add cannot underflow.
        t.host_conns.set(t.host_conns.get() - prev + fc);
        t.my_conns_last = fc;

        // Cold-batch scaling of the per-packet work (§3).
        let scale = 1.0 + t.cost.cold_batch_penalty / batch.max(1) as f64;
        kernel += (kernel_pkt as f64 * scale).round() as u64;
        // Charge the core: kernel then user (order does not matter for
        // the end time; the split feeds the §5.5 measurement).
        let mid = t.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let end = t.core.borrow_mut().run(mid, Nanos(user), CpuDomain::User);
        t.stats.tx_packets += out.len() as u64;
        // Scratch-growth accounting: any reallocation this cycle pushed
        // the capacity sum past its high-water mark.
        let cap_now = t.rx_scratch.capacity()
            + out.capacity()
            + t.tx_scratch.capacity()
            + t.ctx.events.capacity()
            + t.ctx.results.capacity()
            + t.ctx.syscalls.capacity()
            + t.kicked_scratch.capacity()
            + t.pending_results.capacity();
        if cap_now > t.scratch_cap_hwm {
            t.stats.scratch_allocs += 1;
            t.scratch_cap_hwm = cap_now;
        }
        t.out_scratch = out;
        drop(t);

        // Outputs become visible at the end of the cycle.
        sim.schedule_event_at(end, th, EV_COMMIT);
    }

    /// Steps (3) and (4): hands the shard's event conditions and the
    /// previous batch's return codes to the application, then executes
    /// the system calls it batched. Returns `None`, having run nothing,
    /// when there is nothing to deliver — unless `ask_app` is set and
    /// the application wants a cycle anyway.
    fn user_phase(t: &mut ElasticThread, now_ns: u64, ask_app: bool) -> Option<UserPhase> {
        let mut ctx = std::mem::take(&mut t.ctx);
        debug_assert!(ctx.events.is_empty() && ctx.results.is_empty() && ctx.syscalls.is_empty());
        ctx.events = t.shard.take_events_swap(std::mem::take(&mut ctx.events));
        ctx.results.reserve(t.pending_results.len());
        std::mem::swap(&mut ctx.results, &mut t.pending_results);
        let idle = ctx.events.is_empty() && ctx.results.is_empty();
        let ran = if idle && !(ask_app && t.app.wants_cycle(now_ns)) {
            None
        } else {
            let events = ctx.events.len() as u64;
            ctx.now_ns = now_ns;
            ctx.user_ns = 0;
            t.app.on_cycle(&mut ctx);
            let mut syscalls = std::mem::take(&mut ctx.syscalls);
            let n = syscalls.len() as u64;
            for s in syscalls.drain(..) {
                let r = s.execute(&mut t.shard, now_ns, &mut ctx);
                t.pending_results.push(r);
            }
            ctx.unload(syscalls);
            Some(UserPhase { events, syscalls: n, user_ns: ctx.user_ns })
        };
        t.ctx = ctx;
        ran
    }

    /// The end of a cycle: its frames reach the TX rings, the doorbells
    /// ring, and the thread decides what to do next.
    fn commit(th: &ThreadRef, sim: &mut Simulator) {
        let mut kicked = {
            let mut t = th.borrow_mut();
            let mut out = std::mem::take(&mut t.out_scratch);
            let mut kicked = std::mem::take(&mut t.kicked_scratch);
            debug_assert!(kicked.is_empty());
            for (nic, q, f) in out.drain(..) {
                if nic.borrow_mut().tx_ring(q).push(f).is_err() {
                    t.stats.tx_ring_drops += 1;
                }
                nic.borrow_mut().tx_ring(q).reclaim();
                if !kicked.iter().any(|n| Rc::ptr_eq(n, &nic)) {
                    kicked.push(nic);
                }
            }
            t.out_scratch = out; // drained; capacity retained
            kicked
        };
        for nic in kicked.drain(..) {
            Nic::kick_tx(&nic, sim);
        }
        th.borrow_mut().kicked_scratch = kicked;
        ElasticThread::post_cycle(th, sim);
    }

    /// After a cycle commits: either chain the next iteration (work is
    /// pending) or go quiescent and arm a timer wake-up.
    fn post_cycle(th: &ThreadRef, sim: &mut Simulator) {
        let (more, wake_in) = {
            let t = th.borrow();
            if t.parked {
                (false, None)
            } else {
                let now_ns = sim.now().as_nanos();
                let rx_pending = t.queues.iter().any(|(nic, q)| {
                    let mut n = nic.borrow_mut();
                    // Backlog on a hung queue cannot be drained by
                    // iterating; sleep and let the notify edge (or the
                    // watchdog) wake us instead of busy-spinning.
                    n.rx_ring(*q).pending() > 0 && !n.rx_queue_hung(now_ns, *q)
                });
                let more = rx_pending
                    || !t.shard.quiescent()
                    || t.app.wants_cycle(sim.now().as_nanos())
                    || !t.pending_results.is_empty();
                if more {
                    (true, None)
                } else {
                    let mut wake: Option<u64> = t.shard.next_timer_ns();
                    if let Some(d) = t.app.next_deadline_ns() {
                        let rel = d.saturating_sub(sim.now().as_nanos()).max(1);
                        wake = Some(wake.map_or(rel, |w| w.min(rel)));
                    }
                    (false, wake)
                }
            }
        };
        if more {
            ElasticThread::schedule_iteration(th, sim);
        } else if let Some(ns) = wake_in {
            // Quiescent state: "hyperthread-friendly polling" — the wake
            // is free in virtual time; only real work costs CPU.
            let id = sim.schedule_event_in(Nanos(ns.max(1)), th, EV_IDLE_WAKE);
            th.borrow_mut().idle_wake = Some(id);
        }
    }

    /// Synchronously completes in-flight user-level work before the
    /// control plane parks this thread (the Exokernel-style revocation
    /// protocol of §4.1): pending syscall results are delivered, the
    /// application flushes its buffered writes into the TCP stack, and
    /// the produced frames are committed — so migration finds every byte
    /// inside the (migratable) protocol state rather than stranded in
    /// user space. Control-plane transitions are rare and coarse-grained
    /// (§4.4), so their CPU cost is not charged to the measured domains.
    pub(crate) fn drain_user_work(th: &ThreadRef, sim: &mut Simulator) {
        for _ in 0..32 {
            let (out, kick) = {
                let mut t = th.borrow_mut();
                let now_ns = sim.now().as_nanos();
                if ElasticThread::user_phase(&mut t, now_ns, false).is_none() {
                    break;
                }
                t.shard.advance_timers(now_ns);
                t.shard.end_cycle(now_ns);
                let tx = t.shard.take_tx();
                let nq = t.queues.len();
                let mut out: Vec<(NicRef, QueueId, ix_mempool::Mbuf)> = Vec::new();
                for f in tx {
                    let (nic, q) = t.queues[t.tx_cursor % nq].clone();
                    t.tx_cursor = t.tx_cursor.wrapping_add(1);
                    out.push((nic, q, f));
                }
                (out, !t.queues.is_empty())
            };
            let mut kicked: Vec<NicRef> = Vec::new();
            for (nic, q, f) in out {
                let _ = nic.borrow_mut().tx_ring(q).push(f);
                nic.borrow_mut().tx_ring(q).reclaim();
                if !kicked.iter().any(|n| Rc::ptr_eq(n, &nic)) {
                    kicked.push(nic);
                }
            }
            if kick {
                for nic in kicked {
                    Nic::kick_tx(&nic, sim);
                }
            }
        }
    }
}

/// What one [`ElasticThread::user_phase`] did, for the caller's cost
/// accounting.
struct UserPhase {
    /// Event conditions delivered.
    events: u64,
    /// System calls executed.
    syscalls: u64,
    /// User-mode CPU the application charged, ns.
    user_ns: u64,
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
                th.borrow_mut().idle_wake = None;
                ElasticThread::schedule_iteration(th, sim);
            }
        }
    }
}

impl std::fmt::Debug for ElasticThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticThread")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish()
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
        mut app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> Dataplane {
        let host_conns = Rc::new(Cell::new(0u64));
        let ddio = DdioModel::new(host.nics[0].borrow().params());
        let threads = launch_cores(
            host,
            n_threads,
            &stack_cfg,
            listen_port,
            |id, shard, queues| ElasticThread {
                id,
                cost: cost.clone(),
                shard,
                app: app_factory(id),
                rx_since_replenish: vec![0; queues.len()],
                queues,
                core: host.cores[id].clone(),
                ddio: Some(ddio.clone()),
                host_conns: host_conns.clone(),
                my_conns_last: 0,
                pending_results: Vec::new(),
                iteration_scheduled: false,
                idle_wake: None,
                tx_cursor: 0,
                parked: false,
                rx_scratch: Vec::new(),
                out_scratch: Vec::new(),
                tx_scratch: Vec::new(),
                ctx: UserCtx::default(),
                kicked_scratch: Vec::new(),
                scratch_cap_hwm: 0,
                stats: DataplaneStats::default(),
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
            th.borrow_mut().shard.arp_seed(ip, mac);
        }
    }

    /// Aggregated statistics over all elastic threads.
    pub fn stats(&self) -> DataplaneStats {
        let mut s = DataplaneStats::default();
        for th in &self.threads {
            let t = th.borrow();
            s.iterations += t.stats.iterations;
            s.rx_packets += t.stats.rx_packets;
            s.tx_packets += t.stats.tx_packets;
            s.events += t.stats.events;
            s.syscalls += t.stats.syscalls;
            s.full_batches += t.stats.full_batches;
            s.tx_ring_drops += t.stats.tx_ring_drops;
            s.batch_sum += t.stats.batch_sum;
            s.scratch_allocs += t.stats.scratch_allocs;
        }
        s
    }

    /// Total kernel (dataplane) and user CPU nanoseconds across threads.
    pub fn cpu_split(&self) -> (u64, u64) {
        let mut k = 0;
        let mut u = 0;
        for th in &self.threads {
            let t = th.borrow();
            let c = t.core.borrow();
            k += c.kernel_ns;
            u += c.user_ns;
        }
        (k, u)
    }

    /// Pokes every thread (e.g. after enqueuing external work).
    pub fn kick(&self, sim: &mut Simulator) {
        for th in &self.threads {
            ElasticThread::schedule_iteration(th, sim);
        }
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
/// NIC's RSS assigns), and queue `i` of every port; `build` turns them
/// into the engine's core. A frame landing on a core's queue calls
/// `on_rx` with the queue's index in that list.
pub fn launch_cores<C: 'static>(
    host: &Host,
    n: usize,
    stack_cfg: &StackConfig,
    listen_port: Option<u16>,
    mut build: impl FnMut(usize, TcpShard, Vec<(NicRef, QueueId)>) -> C,
    on_rx: fn(&Rc<RefCell<C>>, &mut Simulator, usize),
) -> Vec<Rc<RefCell<C>>> {
    assert!(n <= host.cores.len(), "not enough hardware threads");
    assert!(n <= host.nics[0].borrow().queues(), "not enough NIC queues");
    for nic in &host.nics {
        nic.borrow_mut().set_redirection((0..128).map(|i| i % n).collect());
    }
    (0..n)
        .map(|i| {
            let mut shard = TcpShard::new(stack_cfg.clone(), host.ip, host.mac);
            if let Some(p) = listen_port {
                shard.listen(p);
            }
            let (nic0, local_ip) = (host.nics[0].clone(), host.ip);
            shard.set_steering(
                i,
                Rc::new(move |remote_ip, remote_port, local_port| {
                    nic0.borrow().queue_for_flow(remote_ip, local_ip, remote_port, local_port)
                }),
            );
            let queues = host.nics.iter().map(|n| (n.clone(), i)).collect();
            let core = Rc::new(RefCell::new(build(i, shard, queues)));
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
