//! The mTCP model: a user-level TCP stack with aggressive batching.
//!
//! mTCP [Jeong et al., NSDI '14] dedicates a per-core TCP thread that
//! polls the NIC (via DPDK/PSIO) and exchanges *batches* of events and
//! requests with the application thread at coarse granularity. This
//! eliminates per-packet system calls and achieves high packet rates, but
//! as the paper notes (§2.3, §5.2): "This aggressive batching amortizes
//! switching overheads at the expense of higher latency."
//!
//! The model: the TCP context polls and processes packets promptly
//! (polling, like IX), but completed events are *buffered* and handed to
//! the application only at batch boundaries — at most once per
//! [`MtcpParams::quantum_ns`] — and the application's responses are
//! likewise dispatched at the end of its slice. Both contexts share the
//! core (mTCP pins the TCP thread and the app thread to the same core's
//! hyperthread pair; we charge one core).

use std::cell::RefCell;
use std::rc::Rc;

use ix_core::api::{EventCond, IxApp, SyscallResult, UserCtx};
use ix_core::dataplane::launch_cores;
use ix_nic::host::{CoreRef, CpuDomain};
use ix_nic::nic::{Nic, NicRef, QueueId};
use ix_mempool::Mbuf;
use ix_sim::{EventTarget, Nanos, SimTime, Simulator};
use ix_tcp::{AckPolicy, StackConfig, TcpShard};

/// Cost and behaviour parameters of the mTCP model.
#[derive(Debug, Clone)]
pub struct MtcpParams {
    /// Batch-exchange period between the TCP thread and the app thread:
    /// the app sees events at most this often. mTCP's event loop blocks
    /// in `mtcp_epoll_wait` with batched wake-ups; larger values raise
    /// throughput and latency together.
    pub quantum_ns: u64,
    /// Per-packet receive processing in the TCP thread (user-level
    /// stack, no syscalls, but a general-purpose design with per-flow
    /// locking between its threads).
    pub rx_pkt_ns: u64,
    /// Per-byte receive cost × 1000.
    pub rx_byte_ns_x1000: u64,
    /// Per-packet transmit cost.
    pub tx_pkt_ns: u64,
    /// Per-event cost of moving one event through the shared queues.
    pub event_ns: u64,
    /// Per-request cost of moving one app request to the TCP thread.
    pub request_ns: u64,
    /// Context-switch cost at each batch boundary (two per exchange).
    pub switch_ns: u64,
    /// Fixed cost of one TCP-thread poll pass.
    pub poll_ns: u64,
    /// RX batch bound per poll pass.
    pub batch: usize,
}

impl Default for MtcpParams {
    fn default() -> MtcpParams {
        MtcpParams {
            quantum_ns: 50_000,
            rx_pkt_ns: 620,
            rx_byte_ns_x1000: 200,
            tx_pkt_ns: 420,
            event_ns: 120,
            request_ns: 120,
            switch_ns: 1_000,
            poll_ns: 80,
            batch: 64,
        }
    }
}

/// One mTCP core: TCP thread + application thread pair.
pub struct MtcpCore {
    /// Core index (equals the RSS queue it owns).
    pub id: usize,
    params: MtcpParams,
    /// The user-level TCP shard of the TCP thread.
    pub shard: TcpShard,
    app: Box<dyn IxApp>,
    queues: Vec<(NicRef, QueueId)>,
    core: CoreRef,
    /// Events buffered for the next app batch.
    evq: Vec<EventCond>,
    pending_results: Vec<SyscallResult>,
    /// The last time an app slice started (batch pacing).
    last_app: SimTime,
    app_scheduled: bool,
    tcp_scheduled: bool,
    idle_wake: Option<ix_sim::EventId>,
    /// NICs with freshly pushed TX descriptors awaiting a doorbell.
    pending_kicks: Vec<NicRef>,
    /// The application thread's user context, kept across slices: its
    /// event vector ping-pongs with `evq`, its result vector with
    /// `pending_results`, and its syscall batch is drained in place.
    ctx: UserCtx,
    /// Recycled per-pass scratch, each drained where it is used and put
    /// back: the polled batch, and the buffers swapped into the shard's
    /// event and TX queues when theirs are taken.
    rx_scratch: Vec<Mbuf>,
    events_scratch: Vec<EventCond>,
    tx_scratch: Vec<Mbuf>,
    /// Counters.
    pub stats: MtcpStats,
}

/// Counters for the mTCP model.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtcpStats {
    /// TCP-thread poll passes.
    pub polls: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Application batches delivered.
    pub app_batches: u64,
    /// Events delivered to the application.
    pub events: u64,
}

/// Shared handle.
pub type MtcpCoreRef = Rc<RefCell<MtcpCore>>;

impl MtcpCore {
    /// Schedules a TCP-thread pass as soon as the core frees up.
    fn schedule_tcp(this: &MtcpCoreRef, sim: &mut Simulator) {
        let start = {
            let mut t = this.borrow_mut();
            if t.tcp_scheduled {
                return;
            }
            t.tcp_scheduled = true;
            if let Some(w) = t.idle_wake.take() {
                sim.cancel(w);
            }
            let busy = t.core.borrow().busy_until;
            sim.now().max(busy)
        };
        sim.schedule_event_at(start, this, EV_TCP_PASS);
    }

    /// One TCP-thread pass: poll RX, run the stack, buffer events, flush
    /// transmit. No application interaction here — that is the point.
    fn tcp_pass(this: &MtcpCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut t = this.borrow_mut();
        t.tcp_scheduled = false;
        t.stats.polls += 1;
        let mut cost = t.params.poll_ns;
        let batch = t.params.batch;
        let mut frames = std::mem::take(&mut t.rx_scratch);
        crate::poll_rx(&t.queues, batch, &mut frames);
        t.stats.rx_packets += frames.len() as u64;
        for f in frames.drain(..) {
            cost += t.params.rx_pkt_ns + (f.len() as u64 * t.params.rx_byte_ns_x1000) / 1000;
            t.shard.input(now_ns, f);
        }
        t.rx_scratch = frames;
        t.shard.advance_timers(now_ns);
        // Buffer events for the app's next batch boundary.
        let recycled = std::mem::take(&mut t.events_scratch);
        let mut events = t.shard.take_events_swap(recycled);
        cost += t.params.event_ns * events.len() as u64;
        t.evq.append(&mut events);
        t.events_scratch = events;
        cost += MtcpCore::flush_tx(&mut t);
        let end = t.core.borrow_mut().run(now, Nanos(cost), CpuDomain::Kernel);
        // Decide follow-ups.
        let rx_pending = t
            .queues
            .iter()
            .any(|(nic, q)| nic.borrow_mut().rx_ring(*q).pending() > 0);
        let want_app = !t.evq.is_empty()
            || !t.pending_results.is_empty()
            || t.app.wants_cycle(now_ns);
        // The app thread wakes on a fixed period grid (batched epoll
        // wake-ups), not on demand: this is where mTCP's latency goes.
        let q = t.params.quantum_ns;
        let next_boundary = SimTime((end.as_nanos() / q + 1) * q);
        let app_at = next_boundary.max(end);
        let schedule_app = want_app && !t.app_scheduled;
        if schedule_app {
            t.app_scheduled = true;
        }
        // The idle wake-up, worked out only when the pass ends idle.
        let mut wake: Option<u64> = None;
        if !rx_pending && !schedule_app {
            wake = t.shard.next_timer_ns();
            if let Some(d) = t.app.next_deadline_ns() {
                let rel = d.saturating_sub(now_ns).max(1);
                wake = Some(wake.map_or(rel, |w| w.min(rel)));
            }
        }
        drop(t);
        MtcpCore::ring_doorbells(this, sim);
        if schedule_app {
            sim.schedule_event_at(app_at, this, EV_APP_SLICE);
        }
        if rx_pending {
            MtcpCore::schedule_tcp(this, sim);
        } else if let Some(ns) = wake {
            let id = sim.schedule_event_in(Nanos(ns.max(1)), this, EV_IDLE_WAKE);
            this.borrow_mut().idle_wake = Some(id);
        }
    }

    /// Rings the doorbell of every NIC a flush pushed descriptors to,
    /// once per frame pushed (a draining NIC ignores the repeats).
    fn ring_doorbells(this: &MtcpCoreRef, sim: &mut Simulator) {
        let mut kicks = std::mem::take(&mut this.borrow_mut().pending_kicks);
        for nic in kicks.drain(..) {
            Nic::kick_tx(&nic, sim);
        }
        let mut t = this.borrow_mut();
        debug_assert!(t.pending_kicks.is_empty(), "a doorbell flushes nothing");
        t.pending_kicks = kicks;
    }

    /// One application slice at a batch boundary: consume all buffered
    /// events, run the handler, dispatch its batched requests.
    fn app_slice(this: &MtcpCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut t = this.borrow_mut();
        t.app_scheduled = false;
        t.last_app = now;
        t.stats.app_batches += 1;
        let mut ctx = std::mem::take(&mut t.ctx);
        let core = &mut *t;
        ctx.load(&mut core.evq, &mut core.pending_results);
        t.stats.events += ctx.events.len() as u64;
        // Two context switches per exchange (into and out of the app).
        let mut kernel = 2 * t.params.switch_ns + t.params.event_ns * ctx.events.len() as u64;
        ctx.now_ns = now_ns;
        ctx.user_ns = 0;
        t.app.on_cycle(&mut ctx);
        let user = ctx.user_ns;
        let mut syscalls = std::mem::take(&mut ctx.syscalls);
        for s in syscalls.drain(..) {
            kernel += t.params.request_ns;
            let r = s.execute(&mut t.shard, now_ns, &mut ctx);
            t.pending_results.push(r);
        }
        ctx.unload(syscalls);
        t.ctx = ctx;
        kernel += MtcpCore::flush_tx(&mut t);
        let mid = t.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let end = t.core.borrow_mut().run(mid, Nanos(user), CpuDomain::User);
        let _ = end;
        drop(t);
        MtcpCore::ring_doorbells(this, sim);
        // The TCP thread resumes control of the core.
        MtcpCore::schedule_tcp(this, sim);
    }

    fn flush_tx(t: &mut MtcpCore) -> u64 {
        let recycled = std::mem::take(&mut t.tx_scratch);
        let mut tx = t.shard.take_tx_swap(recycled);
        let mut cost = 0;
        let nq = t.queues.len();
        for (i, f) in tx.drain(..).enumerate() {
            cost += t.params.tx_pkt_ns;
            let (nic, q) = t.queues[i % nq].clone();
            let _ = nic.borrow_mut().tx_ring(q).push(f);
            nic.borrow_mut().tx_ring(q).reclaim();
            t.pending_kicks.push(nic);
            t.stats.tx_packets += 1;
        }
        t.tx_scratch = tx;
        cost
    }
}

/// Plain-event arguments: what a core schedules on itself.
const EV_TCP_PASS: u64 = 0;
const EV_APP_SLICE: u64 = 1;
const EV_IDLE_WAKE: u64 = 2;

impl EventTarget for MtcpCore {
    fn on_event(this: &MtcpCoreRef, sim: &mut Simulator, arg: u64) {
        match arg {
            EV_TCP_PASS => MtcpCore::tcp_pass(this, sim),
            EV_APP_SLICE => MtcpCore::app_slice(this, sim),
            _ => {
                debug_assert_eq!(arg, EV_IDLE_WAKE);
                this.borrow_mut().idle_wake = None;
                MtcpCore::schedule_tcp(this, sim);
            }
        }
    }
}

impl MtcpCore {
    /// The hardware thread this core pair runs on (for CPU accounting).
    pub fn core_ref(&self) -> &CoreRef {
        &self.core
    }
}

impl std::fmt::Debug for MtcpCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtcpCore")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A host running the mTCP model. Cloning copies the handles, not the
/// cores.
#[derive(Clone)]
pub struct MtcpHost {
    /// Per-core state.
    pub cores: Vec<MtcpCoreRef>,
}

impl MtcpHost {
    /// Launches the mTCP model on `host` with `n_cores` cores.
    pub fn launch(
        sim: &mut Simulator,
        host: &ix_nic::host::Host,
        n_cores: usize,
        params: MtcpParams,
        mut stack_cfg: StackConfig,
        listen_port: Option<u16>,
        mut app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> MtcpHost {
        stack_cfg.ack_policy = AckPolicy::Delayed(100_000);
        let cores = launch_cores(
            host,
            n_cores,
            &stack_cfg,
            listen_port,
            |id, shard, queues| MtcpCore {
                id,
                params: params.clone(),
                shard,
                app: app_factory(id),
                queues,
                core: host.cores[id].clone(),
                evq: Vec::new(),
                pending_results: Vec::new(),
                last_app: SimTime::ZERO,
                app_scheduled: false,
                tcp_scheduled: false,
                idle_wake: None,
                pending_kicks: Vec::new(),
                ctx: UserCtx::default(),
                rx_scratch: Vec::new(),
                events_scratch: Vec::new(),
                tx_scratch: Vec::new(),
                stats: MtcpStats::default(),
            },
            |mc, sim, _| MtcpCore::schedule_tcp(mc, sim),
        );
        for mc in &cores {
            MtcpCore::schedule_tcp(mc, sim);
        }
        MtcpHost { cores }
    }

    /// Seeds ARP on every core's shard.
    pub fn seed_arp(&self, ip: ix_net::Ipv4Addr, mac: ix_net::MacAddr) {
        for c in &self.cores {
            c.borrow_mut().shard.arp_seed(ip, mac);
        }
    }

    /// Aggregate stats.
    pub fn stats(&self) -> MtcpStats {
        let mut s = MtcpStats::default();
        for c in &self.cores {
            let t = c.borrow();
            s.polls += t.stats.polls;
            s.rx_packets += t.stats.rx_packets;
            s.tx_packets += t.stats.tx_packets;
            s.app_batches += t.stats.app_batches;
            s.events += t.stats.events;
        }
        s
    }
}
