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

use ix_core::api::{EventCond, IxApp, Syscall};
use ix_core::dataplane::{launch_cores, ring_doorbells, EngineCore};
use ix_nic::host::CpuDomain;
use ix_sim::{EventTarget, Nanos, SimTime, Simulator};
use ix_tcp::{AckPolicy, StackConfig};
use ix_testkit::buffer_id;

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
    /// The shard, application, queues and scratch every engine's core has.
    pub base: EngineCore,
    params: MtcpParams,
    /// Events buffered for the next app batch; ping-pongs with
    /// `base.ctx.events`.
    evq: Vec<EventCond>,
    app_scheduled: bool,
    tcp_scheduled: bool,
    /// Recycled scratch swapped into the shard's event queue when its
    /// events are taken.
    events_scratch: Vec<EventCond>,
    /// Counters.
    pub stats: MtcpStats,
}

/// Counters for the mTCP model.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtcpStats {
    /// TCP-thread poll passes.
    pub polls: u64,
    /// Application batches delivered.
    pub app_batches: u64,
}

/// Shared handle.
pub type MtcpCoreRef = Rc<RefCell<MtcpCore>>;

impl MtcpCore {
    /// Identity of every vector the core recycles from pass to pass
    /// (see [`ix_testkit::buffer_id`]): the base's, `evq` and
    /// `events_scratch`.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = self.base.scratch_buffers();
        ids.extend([buffer_id(&self.evq), buffer_id(&self.events_scratch)]);
        ids
    }

    /// Schedules a TCP-thread pass as soon as the core frees up.
    fn schedule_tcp(this: &MtcpCoreRef, sim: &mut Simulator) {
        let start = {
            let mut t = this.borrow_mut();
            if t.tcp_scheduled {
                return;
            }
            t.tcp_scheduled = true;
            t.base.wake(sim)
        };
        sim.schedule_event_at(start, this, EV_TCP_PASS);
    }

    /// One TCP-thread pass: poll RX, run the stack, buffer events, flush
    /// transmit. No application interaction here — that is the point.
    fn tcp_pass(this: &MtcpCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut guard = this.borrow_mut();
        let t = &mut *guard;
        t.tcp_scheduled = false;
        t.stats.polls += 1;
        let mut cost = t.params.poll_ns;
        let mut frames = crate::poll_rx(&mut t.base, t.params.batch);
        for f in frames.drain(..) {
            cost += t.params.rx_pkt_ns + (f.len() as u64 * t.params.rx_byte_ns_x1000) / 1000;
            t.base.shard.input(now_ns, f);
        }
        t.base.rx_scratch = frames;
        t.base.shard.advance_timers(now_ns);
        // Buffer events for the app's next batch boundary.
        let mut events = t.base.shard.take_events_swap(std::mem::take(&mut t.events_scratch));
        cost += t.params.event_ns * events.len() as u64;
        t.evq.append(&mut events);
        t.events_scratch = events;
        cost += t.params.tx_pkt_ns * crate::flush_tx(&mut t.base);
        let end = t.base.core.borrow_mut().run(now, Nanos(cost), CpuDomain::Kernel);
        // Decide follow-ups.
        let rx_pending = t
            .base
            .queues
            .iter()
            .any(|(nic, q)| nic.borrow_mut().rx_ring(*q).pending() > 0);
        let want_app = !t.evq.is_empty()
            || !t.base.pending_results.is_empty()
            || t.base.wants_cycle(now_ns);
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
        let wake = if !rx_pending && !schedule_app { t.base.idle_wake_in(now_ns) } else { None };
        ring_doorbells(&mut t.base.kicks, sim);
        drop(guard);
        if schedule_app {
            sim.schedule_event_at(app_at, this, EV_APP_SLICE);
        }
        if rx_pending {
            MtcpCore::schedule_tcp(this, sim);
        } else if let Some(ns) = wake {
            let id = sim.schedule_event_in(Nanos(ns), this, EV_IDLE_WAKE);
            this.borrow_mut().base.idle_wake = Some(id);
        }
    }

    /// One application slice at a batch boundary: consume all buffered
    /// events, run the handler, dispatch its batched requests.
    fn app_slice(this: &MtcpCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let mut guard = this.borrow_mut();
        let t = &mut *guard;
        t.app_scheduled = false;
        t.stats.app_batches += 1;
        t.base.ctx.load(&mut t.evq, &mut t.base.pending_results);
        let ran = t.base.run_app(now.as_nanos(), Syscall::execute);
        // Two context switches per exchange (into and out of the app).
        let mut kernel = 2 * t.params.switch_ns + t.params.event_ns * ran.events;
        kernel += t.params.request_ns * ran.syscalls;
        kernel += t.params.tx_pkt_ns * crate::flush_tx(&mut t.base);
        let mid = t.base.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        t.base.core.borrow_mut().run(mid, Nanos(ran.user_ns), CpuDomain::User);
        ring_doorbells(&mut t.base.kicks, sim);
        drop(guard);
        // The TCP thread resumes control of the core.
        MtcpCore::schedule_tcp(this, sim);
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
                this.borrow_mut().base.idle_wake = None;
                MtcpCore::schedule_tcp(this, sim);
            }
        }
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
        app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> MtcpHost {
        stack_cfg.ack_policy = AckPolicy::Delayed(100_000);
        let cores = launch_cores(
            host,
            n_cores,
            &stack_cfg,
            listen_port,
            app_factory,
            |base| MtcpCore {
                base,
                params: params.clone(),
                evq: Vec::new(),
                app_scheduled: false,
                tcp_scheduled: false,
                events_scratch: Vec::new(),
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
            c.borrow_mut().base.shard.arp_seed(ip, mac);
        }
    }

    /// Aggregate stats.
    pub fn stats(&self) -> MtcpStats {
        let mut s = MtcpStats::default();
        for c in &self.cores {
            let t = c.borrow();
            s.polls += t.stats.polls;
            s.app_batches += t.stats.app_batches;
        }
        s
    }
}
