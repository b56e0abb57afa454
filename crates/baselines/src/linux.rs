//! The Linux kernel networking model (the paper's primary baseline).
//!
//! Models a tuned Linux 3.16 setup per §5.1: application threads pinned
//! one per core, NIC interrupts affinitized to the core owning the RSS
//! queue, interrupt moderation configured, `SO_REUSEPORT`-style parallel
//! accept (each core's shard listens independently). The phenomena that
//! separate Linux from IX in the paper are all mechanisms here, not fudge
//! factors:
//!
//! * **Interrupt-driven receive**: a frame arrival raises a hardirq
//!   (subject to moderation), whose softirq (NAPI) processes up to a
//!   budget of packets, ACKing immediately from kernel context —
//!   independent of application progress (contrast §3).
//! * **Scheduler wake-ups**: the application blocks in `epoll_wait`; data
//!   readiness wakes it after a scheduling delay, and the woken thread
//!   pays context-switch and per-syscall costs (`epoll_wait`, `read`,
//!   `write`) plus user-copy per byte — the overheads IX's batched,
//!   zero-copy API eliminates.
//! * **Kernel socket buffering**: `write` copies into a kernel send
//!   buffer that drains as the window opens ("conventional OSes buffer
//!   send data beyond raw TCP constraints", §4.3); receive data waits in
//!   kernel buffers until `read`, which is when the window is credited.
//!
//! CPU time is split between [`CpuDomain::Kernel`] (interrupts, softirq,
//! syscall work) and [`CpuDomain::User`] (application work) — this split
//! is the §5.5 measurement that shows memcached spending ~75% of its CPU
//! in the Linux kernel.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use ix_core::api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};
use ix_core::dataplane::{launch_cores, ring_doorbells, EngineCore};
use ix_mempool::{LentQueues, Spares};
use ix_net::ip::IpProto;
use ix_net::peek;
use ix_nic::host::CpuDomain;
use ix_sim::{EventTarget, Nanos, SimTime, Simulator};
use ix_testkit::{buffer_id, Bytes};
use ix_tcp::{AckPolicy, FlowId, FlowMap, StackConfig, TcpShard};

/// Cost and behaviour parameters of the Linux model.
#[derive(Debug, Clone)]
pub struct LinuxParams {
    /// Interrupt delivery latency from NIC assertion to handler entry.
    pub irq_latency_ns: u64,
    /// CPU cost of the hardirq handler.
    pub hardirq_ns: u64,
    /// Minimum spacing between interrupts per queue (interrupt
    /// moderation / ITR, tuned per §5.1).
    pub irq_moderation_ns: u64,
    /// Per-packet kernel receive processing in softirq (driver + IP +
    /// TCP + socket demux + skb management + locking).
    pub softirq_pkt_ns: u64,
    /// Cost of a GRO-coalesced continuation packet: frames after the
    /// first for the *same flow* within one NAPI batch are merged by
    /// generic receive offload and cost only this much. Irrelevant for
    /// small-RPC workloads (one frame per flow per batch); essential for
    /// single-flow bulk transfers (NetPIPE, Fig 2).
    pub gro_pkt_ns: u64,
    /// NAPI poll budget per softirq pass.
    pub napi_budget: usize,
    /// Scheduler wake-up latency: readiness to the thread running.
    pub sched_wakeup_ns: u64,
    /// Context-switch CPU cost when the app thread resumes.
    pub ctx_switch_ns: u64,
    /// Base cost of any system call (entry/exit, spectre-era era
    /// mitigations excluded: 2014 kernel).
    pub syscall_ns: u64,
    /// `epoll_wait` base cost plus per-returned-event cost.
    pub epoll_wait_ns: u64,
    /// Per-event `epoll` bookkeeping.
    pub epoll_event_ns: u64,
    /// `read()` per call, excluding the copy.
    pub read_ns: u64,
    /// `write()` per call, excluding the copy.
    pub write_ns: u64,
    /// User↔kernel copy cost per byte × 1000.
    pub copy_byte_ns_x1000: u64,
    /// Transmit path per packet (socket → qdisc → driver → ring).
    pub tx_pkt_ns: u64,
    /// Kernel send-buffer capacity per socket (`wmem`).
    pub sndbuf: usize,
    /// Timer tick period (jiffy; HZ=1000).
    pub jiffy_ns: u64,
}

impl Default for LinuxParams {
    fn default() -> LinuxParams {
        LinuxParams {
            irq_latency_ns: 1_800,
            hardirq_ns: 700,
            irq_moderation_ns: 12_000,
            softirq_pkt_ns: 3_200,
            gro_pkt_ns: 350,
            napi_budget: 64,
            sched_wakeup_ns: 5_500,
            ctx_switch_ns: 1_300,
            syscall_ns: 120,
            epoll_wait_ns: 450,
            epoll_event_ns: 180,
            read_ns: 450,
            write_ns: 650,
            copy_byte_ns_x1000: 350,
            tx_pkt_ns: 900,
            sndbuf: 256 * 1024,
            jiffy_ns: 1_000_000,
        }
    }
}

/// A cheap GRO batching key for a TCP/IPv4 frame (source address over
/// the two ports); 0 for any other frame.
fn flow_key_of(data: &[u8]) -> u64 {
    match peek::pre_parse(data) {
        Some(p) if p.proto == IpProto::Tcp => {
            // `| 1` folds flows whose destination ports differ only in
            // bit 0 into one key; kept as is because fixing it moves rows.
            u64::from(p.src_ip.0) << 32 | u64::from(p.src_port) << 16 | u64::from(p.dst_port) | 1
        }
        _ => 0,
    }
}

/// Kernel-side send buffer for one socket. The entry lives as long as
/// the socket; the queue's own buffer is borrowed from the core's spare
/// stack only while bytes wait for the window.
#[derive(Debug, Default)]
struct KernelSndBuf {
    chunks: VecDeque<Bytes>,
    bytes: usize,
    /// The app was told the buffer is full and awaits a `Sent` event.
    app_waiting: bool,
}

impl KernelSndBuf {
    /// Pushes buffered bytes into the stack, as far as the window goes.
    /// A queue this empties hands its buffer back to `spare`.
    fn drain(&mut self, shard: &mut TcpShard, spare: &mut Spares<VecDeque<Bytes>>, now_ns: u64, flow: FlowId) {
        while let Some(front) = self.chunks.front_mut() {
            // The chunk is already a refcounted block the kernel owns: the
            // retransmit queue aliases it (the user-to-kernel copy was
            // charged when `write` accepted it).
            match shard.send_bytes(now_ns, flow, front) {
                Ok(0) => break,
                Ok(n) if n < front.len() => {
                    let rest = front.slice(n..);
                    *front = rest;
                    self.bytes -= n;
                    break;
                }
                Ok(n) => {
                    self.bytes -= n;
                    self.chunks.pop_front();
                }
                Err(_) => {
                    self.chunks.clear();
                    self.bytes = 0;
                    break;
                }
            }
        }
        spare.reclaim(&mut self.chunks);
    }
}

/// One core's kernel send buffers, by flow key (never iterated), and
/// the spare stack behind their chunk queues: a socket borrows a queue
/// buffer only while it has bytes the window has not taken.
#[derive(Default)]
struct SndBufs {
    map: FlowMap<KernelSndBuf>,
    spare: Spares<VecDeque<Bytes>>,
}

impl SndBufs {
    /// Executes one syscall with Linux semantics: `Sendv` on a sendable
    /// flow copies into the kernel send buffer, and `Close`/`Abort` drop
    /// that buffer first; the stack does the rest, as on IX. The call's
    /// kernel cost beyond the crossing is added to `kernel`.
    fn dispatch(
        &mut self,
        s: Syscall,
        shard: &mut TcpShard,
        now_ns: u64,
        ctx: &mut UserCtx,
        params: &LinuxParams,
        kernel: &mut u64,
    ) -> SyscallResult {
        match s {
            Syscall::Sendv { handle, sg } => {
                *kernel += params.write_ns;
                if let Err(e) = shard.sendable(handle) {
                    ctx.recycle_sg(sg);
                    return SyscallResult::Err(e);
                }
                let total: usize = sg.iter().map(Bytes::len).sum();
                // A socket's first write creates its entry; the spare
                // stack has room for every socket's buffer from then on.
                self.spare.note_borrowers(self.map.len() + 1);
                let buf = self.map.get_or_insert_default(handle.key);
                let accepted = total.min(params.sndbuf.saturating_sub(buf.bytes));
                *kernel += (accepted as u64 * params.copy_byte_ns_x1000) / 1000;
                let mut accept = accepted;
                for chunk in &sg {
                    if accept == 0 {
                        break;
                    }
                    let take = accept.min(chunk.len());
                    self.spare.push_back(&mut buf.chunks, chunk.slice(..take));
                    buf.bytes += take;
                    accept -= take;
                }
                ctx.recycle_sg(sg);
                if accepted < total {
                    buf.app_waiting = true;
                }
                // Drain as much as the window allows right now.
                buf.drain(shard, &mut self.spare, now_ns, handle);
                SyscallResult::Sent(accepted as u32)
            }
            Syscall::Close { handle } | Syscall::Abort { handle } => {
                self.remove(handle.key);
                s.execute(shard, now_ns, ctx)
            }
            other => other.execute(shard, now_ns, ctx),
        }
    }

    /// The window of `flow` opened: pushes its buffered bytes into the
    /// stack. Returns the space left in a buffer of `cap` bytes if the
    /// application was waiting for it and some was freed (EPOLLOUT).
    fn on_sent(&mut self, shard: &mut TcpShard, now_ns: u64, flow: FlowId, cap: usize) -> Option<u32> {
        let buf = self.map.get_mut(flow.key)?;
        let had = buf.bytes;
        buf.drain(shard, &mut self.spare, now_ns, flow);
        let freed = buf.bytes < had || buf.bytes == 0;
        if !(buf.app_waiting && freed) {
            return None;
        }
        buf.app_waiting = false;
        Some((cap - buf.bytes) as u32)
    }

    /// Discards a closed socket's send buffer, taking back whatever
    /// buffer its chunk queue still holds.
    fn remove(&mut self, key: u64) {
        if let Some(mut buf) = self.map.remove(key) {
            buf.chunks.clear();
            self.spare.reclaim(&mut buf.chunks);
        }
    }
}

/// One Linux core: RSS queue, softirq context, and a pinned application
/// thread with its event loop.
pub struct LinuxCore {
    /// The shard, application, queues and scratch every engine's core
    /// has; its shard is the kernel's, for this core's flows.
    pub base: EngineCore,
    params: LinuxParams,
    /// Events awaiting the application (socket readiness queue);
    /// ping-pongs with `base.ctx.events`.
    app_events: Vec<EventCond>,
    sndbufs: SndBufs,
    /// Application thread is blocked in `epoll_wait`.
    app_blocked: bool,
    /// An app-run event is scheduled.
    app_scheduled: bool,
    /// A softirq pass is scheduled (interrupts disabled meanwhile).
    softirq_scheduled: bool,
    /// Last interrupt time per queue index, for moderation.
    last_irq: Vec<SimTime>,
    /// Timer tick armed.
    tick_armed: bool,
    /// Recycled per-pass scratch, each drained where it is used and put
    /// back: the NAPI batch's GRO flow keys, the sockets one wake-up
    /// reads, and the buffer swapped into the shard's event queue when
    /// its events are taken.
    seen_flows: Vec<u64>,
    read_sockets: Vec<u64>,
    events_scratch: Vec<EventCond>,
    /// Counters.
    pub stats: LinuxStats,
}

/// Counters for the Linux model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinuxStats {
    /// Hardirqs taken.
    pub interrupts: u64,
    /// Softirq passes.
    pub softirqs: u64,
    /// Application wake-ups (epoll returns).
    pub wakeups: u64,
}

/// Shared handle.
pub type LinuxCoreRef = Rc<RefCell<LinuxCore>>;

impl LinuxCore {
    /// Identity of every vector the core recycles from pass to pass
    /// (see [`ix_testkit::buffer_id`]): the base's and its own scratch.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = self.base.scratch_buffers();
        ids.extend([
            buffer_id(&self.app_events),
            buffer_id(&self.seen_flows),
            buffer_id(&self.read_sockets),
            buffer_id(&self.events_scratch),
        ]);
        ids
    }

    /// Census of the lent chunk-queue buffers: how many sockets hold
    /// one, what drained sockets still own (nothing), and what sits on
    /// the spare stack.
    #[doc(hidden)]
    pub fn lent_queues(&self) -> LentQueues {
        self.sndbufs.spare.census(self.sndbufs.map.values().map(|b| &b.chunks))
    }

    /// Interrupt entry: a frame arrived on this core's queue.
    fn on_rx(this: &LinuxCoreRef, sim: &mut Simulator, qi: usize) {
        let fire_at = {
            let mut t = this.borrow_mut();
            if t.softirq_scheduled {
                return; // NAPI already polling; interrupts masked.
            }
            t.softirq_scheduled = true;
            let earliest = t.last_irq[qi] + Nanos(t.params.irq_moderation_ns);
            let at = (sim.now() + Nanos(t.params.irq_latency_ns)).max(earliest);
            t.last_irq[qi] = at;
            t.stats.interrupts += 1;
            at
        };
        sim.schedule_event_at(fire_at, this, EV_SOFTIRQ);
    }

    /// One NAPI pass: hardirq cost + up to `napi_budget` packets.
    fn softirq(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut guard = this.borrow_mut();
        let t = &mut *guard;
        t.stats.softirqs += 1;
        let mut kernel = t.params.hardirq_ns;
        let mut frames = crate::poll_rx(&mut t.base, t.params.napi_budget);
        // GRO: within this NAPI batch, the first frame of each flow pays
        // the full stack path; same-flow continuations are coalesced.
        for f in frames.drain(..) {
            let key = flow_key_of(f.data());
            if key != 0 && t.seen_flows.contains(&key) {
                kernel += t.params.gro_pkt_ns;
            } else {
                kernel += t.params.softirq_pkt_ns;
                if key != 0 {
                    t.seen_flows.push(key);
                }
            }
            t.base.shard.input(now_ns, f);
        }
        t.base.rx_scratch = frames;
        t.seen_flows.clear();
        // Kernel timers piggyback on softirq.
        t.base.shard.advance_timers(now_ns);
        // Stack events → socket readiness; Sent events drain sndbufs.
        t.absorb_stack_events(now_ns);
        // Transmit anything the stack produced (ACKs, retransmits,
        // sndbuf drains) from softirq context.
        kernel += t.params.tx_pkt_ns * crate::flush_tx(&mut t.base);
        let end = t.base.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let more_rx = t
            .base
            .queues
            .iter()
            .any(|(nic, q)| nic.borrow_mut().rx_ring(*q).pending() > 0);
        let ready = !t.app_events.is_empty();
        let wake_app = t.wake_app(sim, ready);
        ring_doorbells(&mut t.base.kicks, sim);
        let delay = t.params.sched_wakeup_ns;
        drop(guard);
        if wake_app {
            // Scheduler wake-up: the thread starts after the delay, once
            // the core is free.
            sim.schedule_event_at(end + Nanos(delay), this, EV_APP_RUN);
        }
        if more_rx {
            // Budget exhausted: NAPI re-polls without a new interrupt.
            sim.schedule_event_at(end, this, EV_SOFTIRQ);
        } else {
            this.borrow_mut().softirq_scheduled = false;
            LinuxCore::ensure_tick(this, sim);
        }
    }

    /// Takes the application thread out of `epoll_wait`, or out of its
    /// sleep until a pacing deadline (data readiness preempts the timed
    /// sleep), when `ready` and no run is scheduled yet. Returns whether
    /// it did; the caller schedules the run.
    fn wake_app(&mut self, sim: &mut Simulator, ready: bool) -> bool {
        let sleeping = self.app_blocked || self.base.idle_wake.is_some();
        let run_pending = self.app_scheduled && self.base.idle_wake.is_none();
        if !ready || !sleeping || run_pending {
            return false;
        }
        self.base.cancel_idle_wake(sim);
        self.app_blocked = false;
        self.app_scheduled = true;
        true
    }

    /// Maps stack upcalls to application-visible events, intercepting
    /// `Sent` to drain the kernel send buffers. Returns whether the stack
    /// had any.
    fn absorb_stack_events(&mut self, now_ns: u64) -> bool {
        let mut events = self.base.shard.take_events_swap(std::mem::take(&mut self.events_scratch));
        let had_events = !events.is_empty();
        for ev in events.drain(..) {
            match ev {
                EventCond::Sent { flow, cookie, bytes_acked, .. } => {
                    let cap = self.params.sndbuf;
                    if let Some(window) = self.sndbufs.on_sent(&mut self.base.shard, now_ns, flow, cap) {
                        self.app_events.push(EventCond::Sent { flow, cookie, bytes_acked, window });
                    }
                }
                EventCond::Dead { flow, .. } => {
                    self.sndbufs.remove(flow.key);
                    self.app_events.push(ev);
                }
                other => self.app_events.push(other),
            }
        }
        self.events_scratch = events;
        had_events
    }

    /// The application thread runs: `epoll_wait` returned.
    fn app_run(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let mut guard = this.borrow_mut();
        let t = &mut *guard;
        t.app_scheduled = false;
        t.stats.wakeups += 1;
        t.base.ctx.load(&mut t.app_events, &mut t.base.pending_results);
        let (p, events) = (&t.params, &t.base.ctx.events);
        // Kernel-side costs of waking and harvesting events.
        let mut kernel = p.ctx_switch_ns + p.syscall_ns + p.epoll_wait_ns + p.epoll_event_ns * events.len() as u64;
        // Per-socket read() costs: one syscall per ready socket per wake
        // (the application drains each socket with a single read), plus
        // the user copy per byte.
        for ev in events {
            if let EventCond::Recv { payload, flow, .. } = ev {
                if !t.read_sockets.contains(&flow.key) {
                    t.read_sockets.push(flow.key);
                    kernel += p.syscall_ns + p.read_ns;
                }
                // Linux copies every received byte across the kernel
                // boundary at read() — the cost IX's zero-copy recv
                // avoids by construction.
                kernel += (payload.len() as u64 * p.copy_byte_ns_x1000) / 1000;
            }
        }
        t.read_sockets.clear();
        // Application system calls, one kernel crossing each.
        let sndbufs = &mut t.sndbufs;
        let ran = t.base.run_app(now.as_nanos(), |s, shard, now_ns, ctx| {
            sndbufs.dispatch(s, shard, now_ns, ctx, p, &mut kernel)
        });
        kernel += p.syscall_ns * ran.syscalls;
        kernel += p.tx_pkt_ns * crate::flush_tx(&mut t.base);
        let mid = t.base.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let end = t.base.core.borrow_mut().run(mid, Nanos(ran.user_ns), CpuDomain::User);
        drop(guard);
        sim.schedule_event_at(end, this, EV_APP_EPILOGUE);
    }

    /// After the app slice: kick TX, decide whether to loop or block.
    fn app_epilogue(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now_ns = sim.now().as_nanos();
        let mut guard = this.borrow_mut();
        let t = &mut *guard;
        ring_doorbells(&mut t.base.kicks, sim);
        let rerun = !t.app_events.is_empty() || !t.base.pending_results.is_empty() || t.base.wants_cycle(now_ns);
        if rerun {
            if !t.app_scheduled {
                t.app_scheduled = true;
                // Immediate re-loop: the thread did not block.
                sim.schedule_event_at(sim.now(), this, EV_APP_RUN);
            }
        } else if let Some(ns) = t.base.app_deadline_in(now_ns) {
            t.base.cancel_idle_wake(sim);
            t.app_blocked = false;
            t.app_scheduled = true;
            t.base.idle_wake = Some(sim.schedule_event_in(Nanos(ns), this, EV_IDLE_WAKE));
        } else {
            t.app_blocked = true;
        }
        drop(guard);
        LinuxCore::ensure_tick(this, sim);
    }

    /// Arms the periodic timer tick while the core has live state.
    fn ensure_tick(this: &LinuxCoreRef, sim: &mut Simulator) {
        let mut t = this.borrow_mut();
        if t.tick_armed || (t.base.shard.flow_count() == 0 && !t.base.shard.has_timers()) {
            return;
        }
        t.tick_armed = true;
        sim.schedule_event_in(Nanos(t.params.jiffy_ns), this, EV_TICK);
    }

    /// The timer softirq: advance the wheel, flush retransmissions.
    fn tick(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        {
            let mut guard = this.borrow_mut();
            let t = &mut *guard;
            t.tick_armed = false;
            t.base.shard.advance_timers(now_ns);
            let had_events = t.absorb_stack_events(now_ns);
            let cost = 300 + t.params.tx_pkt_ns * crate::flush_tx(&mut t.base);
            t.base.core.borrow_mut().run(now, Nanos(cost), CpuDomain::Kernel);
            if t.wake_app(sim, had_events) {
                sim.schedule_event_in(Nanos(t.params.sched_wakeup_ns), this, EV_APP_RUN);
            }
            ring_doorbells(&mut t.base.kicks, sim);
        }
        LinuxCore::ensure_tick(this, sim);
    }
}

/// Plain-event arguments: what a core schedules on itself.
const EV_SOFTIRQ: u64 = 0;
const EV_APP_RUN: u64 = 1;
const EV_APP_EPILOGUE: u64 = 2;
const EV_IDLE_WAKE: u64 = 3;
const EV_TICK: u64 = 4;

impl EventTarget for LinuxCore {
    fn on_event(this: &LinuxCoreRef, sim: &mut Simulator, arg: u64) {
        match arg {
            EV_SOFTIRQ => LinuxCore::softirq(this, sim),
            EV_APP_RUN => LinuxCore::app_run(this, sim),
            EV_APP_EPILOGUE => LinuxCore::app_epilogue(this, sim),
            EV_IDLE_WAKE => {
                this.borrow_mut().base.idle_wake = None;
                LinuxCore::app_run(this, sim);
            }
            _ => {
                debug_assert_eq!(arg, EV_TICK);
                LinuxCore::tick(this, sim);
            }
        }
    }
}

/// A host running the Linux model: one pinned app thread + softirq
/// context per core. Cloning copies the handles, not the cores.
#[derive(Clone)]
pub struct LinuxHost {
    /// Per-core state.
    pub cores: Vec<LinuxCoreRef>,
}

impl LinuxHost {
    /// Launches the Linux model on `host` with `n_cores` cores.
    pub fn launch(
        sim: &mut Simulator,
        host: &ix_nic::host::Host,
        n_cores: usize,
        params: LinuxParams,
        mut stack_cfg: StackConfig,
        listen_port: Option<u16>,
        app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> LinuxHost {
        // The kernel uses classic delayed ACKs with a short piggyback
        // window, window scaling (wscale 7, as Linux 3.16 negotiates),
        // and tcp_rmem-sized receive buffers.
        stack_cfg.ack_policy = AckPolicy::Delayed(100_000);
        stack_cfg.window_scale = 7;
        stack_cfg.recv_window = stack_cfg.recv_window.max(512 * 1024);
        let cores = launch_cores(
            host,
            n_cores,
            &stack_cfg,
            listen_port,
            app_factory,
            |base| LinuxCore {
                params: params.clone(),
                last_irq: vec![SimTime::ZERO; base.queues.len()],
                base,
                app_events: Vec::new(),
                sndbufs: SndBufs::default(),
                app_blocked: true,
                app_scheduled: false,
                softirq_scheduled: false,
                tick_armed: false,
                seen_flows: Vec::new(),
                read_sockets: Vec::new(),
                events_scratch: Vec::new(),
                stats: LinuxStats::default(),
            },
            LinuxCore::on_rx,
        );
        // Prime pacing apps (load generators).
        for lc in &cores {
            let mut t = lc.borrow_mut();
            if t.base.wants_cycle(sim.now().as_nanos()) {
                t.app_blocked = false;
                t.app_scheduled = true;
                drop(t);
                sim.schedule_event_at(sim.now(), lc, EV_APP_RUN);
            }
        }
        LinuxHost { cores }
    }

    /// Seeds ARP on every core's shard.
    pub fn seed_arp(&self, ip: ix_net::Ipv4Addr, mac: ix_net::MacAddr) {
        for c in &self.cores {
            c.borrow_mut().base.shard.arp_seed(ip, mac);
        }
    }

    /// Aggregate stats.
    pub fn stats(&self) -> LinuxStats {
        let mut s = LinuxStats::default();
        for c in &self.cores {
            let t = c.borrow();
            s.interrupts += t.stats.interrupts;
            s.softirqs += t.stats.softirqs;
            s.wakeups += t.stats.wakeups;
        }
        s
    }
}
