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

use ix_testkit::{buffer_id, Bytes};
use ix_core::api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};
use ix_core::dataplane::{launch_cores, ring_doorbells};
use ix_nic::host::{CoreRef, CpuDomain};
use ix_nic::nic::{NicRef, QueueId};
use ix_mempool::{LentQueues, Mbuf, Spares};
use ix_sim::{EventTarget, Nanos, SimTime, Simulator};
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

/// Extracts a cheap flow key (src ip ⊕ ports) from a raw frame for GRO
/// batching; 0 when the frame is not TCP/IPv4.
fn flow_key_of(data: &[u8]) -> u64 {
    use ix_net::eth::EthHeader;
    if data.len() < EthHeader::LEN + 24 {
        return 0;
    }
    if u16::from_be_bytes([data[12], data[13]]) != 0x0800 {
        return 0;
    }
    let ip = &data[EthHeader::LEN..];
    if ip[9] != 6 {
        return 0;
    }
    let ihl = (ip[0] & 0x0f) as usize * 4;
    if ip.len() < ihl + 4 {
        return 0;
    }
    let src = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]) as u64;
    let ports = u32::from_be_bytes([ip[ihl], ip[ihl + 1], ip[ihl + 2], ip[ihl + 3]]) as u64;
    (src << 32) | ports | 1
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

/// One Linux core: RSS queue, softirq context, and a pinned application
/// thread with its event loop.
pub struct LinuxCore {
    /// Core index (equals the RSS queue it owns).
    pub id: usize,
    params: LinuxParams,
    /// The kernel TCP shard for this core's flows.
    pub shard: TcpShard,
    app: Box<dyn IxApp>,
    queues: Vec<(NicRef, QueueId)>,
    core: CoreRef,
    /// Events awaiting the application (socket readiness queue).
    app_events: Vec<EventCond>,
    pending_results: Vec<SyscallResult>,
    /// Send buffers by flow key. Never iterated.
    sndbufs: FlowMap<KernelSndBuf>,
    /// The buffers behind the send buffers' chunk queues, lent to a
    /// socket only while it has bytes the window has not taken.
    spare_chunks: Spares<VecDeque<Bytes>>,
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
    idle_wake: Option<ix_sim::EventId>,
    /// NICs with freshly pushed TX descriptors awaiting a doorbell.
    pending_kicks: Vec<NicRef>,
    /// The application thread's user context, kept across wake-ups: its
    /// event vector ping-pongs with `app_events`, its result vector with
    /// `pending_results`, and its syscall batch is drained in place.
    ctx: UserCtx,
    /// Recycled per-pass scratch, each drained where it is used and put
    /// back: the NAPI batch, its GRO flow keys, the sockets one wake-up
    /// reads, and the buffers swapped into the shard's event and TX
    /// queues when theirs are taken.
    rx_scratch: Vec<Mbuf>,
    seen_flows: Vec<u64>,
    read_sockets: Vec<u64>,
    events_scratch: Vec<EventCond>,
    tx_scratch: Vec<Mbuf>,
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
    /// Packets processed in softirq.
    pub rx_packets: u64,
    /// Frames transmitted.
    pub tx_packets: u64,
    /// Application wake-ups (epoll returns).
    pub wakeups: u64,
    /// System calls issued by the application.
    pub syscalls: u64,
    /// Bytes copied between user and kernel space.
    pub bytes_copied: u64,
}

/// Shared handle.
pub type LinuxCoreRef = Rc<RefCell<LinuxCore>>;

impl LinuxCore {
    /// Mutable access to the application (for test/bench inspection).
    pub fn app_mut(&mut self) -> &mut dyn IxApp {
        self.app.as_mut()
    }

    /// Identity of every vector the core recycles from pass to pass
    /// (see [`ix_testkit::buffer_id`]): its own scratch, the user
    /// context's and the shard's.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = vec![
            buffer_id(&self.app_events),
            buffer_id(&self.pending_results),
            buffer_id(&self.pending_kicks),
            buffer_id(&self.rx_scratch),
            buffer_id(&self.seen_flows),
            buffer_id(&self.read_sockets),
            buffer_id(&self.events_scratch),
            buffer_id(&self.tx_scratch),
        ];
        ids.extend(self.ctx.scratch_buffers());
        ids.extend(self.shard.scratch_buffers());
        ids
    }

    /// Census of the lent chunk-queue buffers: how many sockets hold
    /// one, what drained sockets still own (nothing), and what sits on
    /// the spare stack.
    #[doc(hidden)]
    pub fn lent_queues(&self) -> LentQueues {
        self.spare_chunks.census(self.sndbufs.values().map(|b| &b.chunks))
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
        let mut t = this.borrow_mut();
        t.stats.softirqs += 1;
        let mut kernel = t.params.hardirq_ns;
        let budget = t.params.napi_budget;
        let mut frames = std::mem::take(&mut t.rx_scratch);
        crate::poll_rx(&t.queues, budget, &mut frames);
        t.stats.rx_packets += frames.len() as u64;
        // GRO: within this NAPI batch, the first frame of each flow pays
        // the full stack path; same-flow continuations are coalesced.
        let mut seen_flows = std::mem::take(&mut t.seen_flows);
        for f in frames.drain(..) {
            let key = flow_key_of(f.data());
            if key != 0 && seen_flows.contains(&key) {
                kernel += t.params.gro_pkt_ns;
            } else {
                kernel += t.params.softirq_pkt_ns;
                if key != 0 {
                    seen_flows.push(key);
                }
            }
            t.shard.input(now_ns, f);
        }
        t.rx_scratch = frames;
        seen_flows.clear();
        t.seen_flows = seen_flows;
        // Kernel timers piggyback on softirq.
        t.shard.advance_timers(now_ns);
        // Stack events → socket readiness; Sent events drain sndbufs.
        LinuxCore::absorb_stack_events(&mut t, now_ns);
        // Transmit anything the stack produced (ACKs, retransmits,
        // sndbuf drains) from softirq context.
        let c = &mut *t;
        let sent = crate::flush_tx(&mut c.shard, &c.queues, &mut c.tx_scratch, &mut c.pending_kicks);
        c.stats.tx_packets += sent;
        kernel += c.params.tx_pkt_ns * sent;
        let end = t.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let more_rx = t
            .queues
            .iter()
            .any(|(nic, q)| nic.borrow_mut().rx_ring(*q).pending() > 0);
        // Wake the app if it is blocked in epoll OR sleeping until a
        // pacing deadline (data readiness preempts the timed sleep).
        let wake_app = !t.app_events.is_empty()
            && (t.app_blocked || t.idle_wake.is_some())
            && !(t.app_scheduled && t.idle_wake.is_none());
        if wake_app {
            if let Some(w) = t.idle_wake.take() {
                sim.cancel(w);
            }
            t.app_blocked = false;
            t.app_scheduled = true;
        }
        ring_doorbells(&mut t.pending_kicks, sim);
        drop(t);
        if wake_app {
            // Scheduler wake-up: the thread starts after the delay, once
            // the core is free.
            let delay = this.borrow().params.sched_wakeup_ns;
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

    /// Maps stack upcalls to application-visible events, intercepting
    /// `Sent` to drain the kernel send buffers. Returns whether the stack
    /// had any.
    fn absorb_stack_events(t: &mut LinuxCore, now_ns: u64) -> bool {
        let recycled = std::mem::take(&mut t.events_scratch);
        let mut events = t.shard.take_events_swap(recycled);
        let had_events = !events.is_empty();
        for ev in events.drain(..) {
            match ev {
                EventCond::Sent { flow, cookie, bytes_acked, .. } => {
                    // Window opened: push buffered bytes into the stack.
                    let mut freed = false;
                    if let Some(buf) = t.sndbufs.get_mut(flow.key) {
                        let had = buf.bytes;
                        Self::drain_sndbuf(&mut t.shard, &mut t.spare_chunks, now_ns, flow, buf);
                        freed = buf.bytes < had || buf.bytes == 0;
                    }
                    // The app sees a Sent only if it was waiting for
                    // buffer space (EPOLLOUT semantics).
                    let waiting = t
                        .sndbufs
                        .get_mut(flow.key)
                        .map(|b| {
                            let w = b.app_waiting && freed;
                            if w {
                                b.app_waiting = false;
                            }
                            w
                        })
                        .unwrap_or(false);
                    if waiting {
                        let window = t
                            .sndbufs
                            .get(flow.key)
                            .map(|b| (t.params.sndbuf - b.bytes) as u32)
                            .unwrap_or(0);
                        t.app_events.push(EventCond::Sent { flow, cookie, bytes_acked, window });
                    }
                }
                EventCond::Dead { flow, .. } => {
                    t.drop_sndbuf(flow.key);
                    t.app_events.push(ev);
                }
                other => t.app_events.push(other),
            }
        }
        t.events_scratch = events;
        had_events
    }

    /// Discards a closed socket's send buffer, taking back whatever
    /// buffer its chunk queue still holds.
    fn drop_sndbuf(&mut self, key: u64) {
        if let Some(mut buf) = self.sndbufs.remove(key) {
            buf.chunks.clear();
            self.spare_chunks.reclaim(&mut buf.chunks);
        }
    }

    /// Pushes buffered bytes into the stack, as far as the window goes.
    /// A queue this empties hands its buffer back to `spare_chunks`.
    fn drain_sndbuf(
        shard: &mut TcpShard,
        spare_chunks: &mut Spares<VecDeque<Bytes>>,
        now_ns: u64,
        flow: FlowId,
        buf: &mut KernelSndBuf,
    ) {
        while let Some(front) = buf.chunks.front_mut() {
            // The chunk is already a refcounted block the kernel owns: the
            // retransmit queue aliases it (the user-to-kernel copy was
            // charged when `write` accepted it).
            match shard.send_bytes(now_ns, flow, front) {
                Ok(0) => break,
                Ok(n) if n < front.len() => {
                    let rest = front.slice(n..);
                    *front = rest;
                    buf.bytes -= n;
                    break;
                }
                Ok(n) => {
                    buf.bytes -= n;
                    buf.chunks.pop_front();
                }
                Err(_) => {
                    buf.chunks.clear();
                    buf.bytes = 0;
                    break;
                }
            }
        }
        spare_chunks.reclaim(&mut buf.chunks);
    }

    /// The application thread runs: `epoll_wait` returned.
    fn app_run(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut t = this.borrow_mut();
        t.app_scheduled = false;
        t.stats.wakeups += 1;
        let mut ctx = std::mem::take(&mut t.ctx);
        let core = &mut *t;
        ctx.load(&mut core.app_events, &mut core.pending_results);
        // Kernel-side costs of waking and harvesting events.
        let mut kernel = t.params.ctx_switch_ns
            + t.params.syscall_ns
            + t.params.epoll_wait_ns
            + t.params.epoll_event_ns * ctx.events.len() as u64;
        // Per-socket read() costs: one syscall per ready socket per wake
        // (the application drains each socket with a single read), plus
        // the user copy per byte.
        let mut read_sockets = std::mem::take(&mut t.read_sockets);
        for ev in &ctx.events {
            if let EventCond::Recv { payload, flow, .. } = ev {
                if !read_sockets.contains(&flow.key) {
                    read_sockets.push(flow.key);
                    kernel += t.params.syscall_ns + t.params.read_ns;
                    t.stats.syscalls += 1;
                }
                // Linux copies every received byte across the kernel
                // boundary at read() — the cost IX's zero-copy recv
                // avoids by construction.
                kernel += (payload.len() as u64 * t.params.copy_byte_ns_x1000) / 1000;
                t.stats.bytes_copied += payload.len() as u64;
            }
        }
        read_sockets.clear();
        t.read_sockets = read_sockets;
        ctx.now_ns = now_ns;
        ctx.user_ns = 0;
        t.app.on_cycle(&mut ctx);
        let user = ctx.user_ns;
        // Application system calls, one kernel crossing each.
        let mut syscalls = std::mem::take(&mut ctx.syscalls);
        for s in syscalls.drain(..) {
            t.stats.syscalls += 1;
            kernel += t.params.syscall_ns;
            let r = LinuxCore::dispatch(&mut t, &mut ctx, now_ns, s, &mut kernel);
            t.pending_results.push(r);
        }
        ctx.unload(syscalls);
        t.ctx = ctx;
        let c = &mut *t;
        let sent = crate::flush_tx(&mut c.shard, &c.queues, &mut c.tx_scratch, &mut c.pending_kicks);
        c.stats.tx_packets += sent;
        kernel += c.params.tx_pkt_ns * sent;
        let mid = t.core.borrow_mut().run(now, Nanos(kernel), CpuDomain::Kernel);
        let end = t.core.borrow_mut().run(mid, Nanos(user), CpuDomain::User);
        drop(t);
        sim.schedule_event_at(end, this, EV_APP_EPILOGUE);
    }

    /// After the app slice: kick TX, decide whether to loop or block.
    fn app_epilogue(this: &LinuxCoreRef, sim: &mut Simulator) {
        ring_doorbells(&mut this.borrow_mut().pending_kicks, sim);
        let (rerun, wake_in) = {
            let t = this.borrow();
            let more = !t.app_events.is_empty()
                || !t.pending_results.is_empty()
                || t.app.wants_cycle(sim.now().as_nanos());
            let mut wake = None;
            if let Some(d) = t.app.next_deadline_ns() {
                wake = Some(d.saturating_sub(sim.now().as_nanos()).max(1));
            }
            (more, wake)
        };
        if rerun {
            let mut t = this.borrow_mut();
            if !t.app_scheduled {
                t.app_scheduled = true;
                drop(t);
                // Immediate re-loop: the thread did not block.
                sim.schedule_event_at(sim.now(), this, EV_APP_RUN);
            }
        } else {
            let mut t = this.borrow_mut();
            t.app_blocked = true;
            if let Some(ns) = wake_in {
                if let Some(w) = t.idle_wake.take() {
                    sim.cancel(w);
                }
                t.app_blocked = false;
                t.app_scheduled = true;
                drop(t);
                let id = sim.schedule_event_in(Nanos(ns), this, EV_IDLE_WAKE);
                this.borrow_mut().idle_wake = Some(id);
            }
        }
        LinuxCore::ensure_tick(this, sim);
    }

    /// Executes one syscall with Linux semantics: `Sendv` on a sendable
    /// flow copies into the kernel send buffer, and `Close`/`Abort` drop
    /// that buffer first; the stack does the rest, as on IX.
    fn dispatch(
        t: &mut LinuxCore,
        ctx: &mut UserCtx,
        now_ns: u64,
        s: Syscall,
        kernel: &mut u64,
    ) -> SyscallResult {
        match s {
            Syscall::Sendv { handle, sg } => {
                *kernel += t.params.write_ns;
                if let Err(e) = t.shard.sendable(handle) {
                    ctx.recycle_sg(sg);
                    return SyscallResult::Err(e);
                }
                let total: usize = sg.iter().map(Bytes::len).sum();
                // A socket's first write creates its entry; the spare
                // stack has room for every socket's buffer from then on.
                t.spare_chunks.note_borrowers(t.sndbufs.len() + 1);
                let buf = t.sndbufs.get_or_insert_default(handle.key);
                let space = t.params.sndbuf.saturating_sub(buf.bytes);
                let mut accept = total.min(space);
                let accepted = accept;
                *kernel += (accepted as u64 * t.params.copy_byte_ns_x1000) / 1000;
                t.stats.bytes_copied += accepted as u64;
                for chunk in &sg {
                    if accept == 0 {
                        break;
                    }
                    let take = accept.min(chunk.len());
                    t.spare_chunks.push_back(&mut buf.chunks, chunk.slice(..take));
                    buf.bytes += take;
                    accept -= take;
                }
                ctx.recycle_sg(sg);
                if accepted < total {
                    buf.app_waiting = true;
                }
                // Drain as much as the window allows right now.
                Self::drain_sndbuf(&mut t.shard, &mut t.spare_chunks, now_ns, handle, buf);
                SyscallResult::Sent(accepted as u32)
            }
            Syscall::Close { handle } | Syscall::Abort { handle } => {
                t.drop_sndbuf(handle.key);
                s.execute(&mut t.shard, now_ns, ctx)
            }
            other => other.execute(&mut t.shard, now_ns, ctx),
        }
    }

    /// Arms the periodic timer tick while the core has live state.
    fn ensure_tick(this: &LinuxCoreRef, sim: &mut Simulator) {
        let arm = {
            let t = this.borrow();
            !t.tick_armed && (t.shard.flow_count() > 0 || t.shard.has_timers())
        };
        if !arm {
            return;
        }
        this.borrow_mut().tick_armed = true;
        let jiffy = this.borrow().params.jiffy_ns;
        sim.schedule_event_in(Nanos(jiffy), this, EV_TICK);
    }

    /// The timer softirq: advance the wheel, flush retransmissions.
    fn tick(this: &LinuxCoreRef, sim: &mut Simulator) {
        let now = sim.now();
        let now_ns = now.as_nanos();
        {
            let mut t = this.borrow_mut();
            t.tick_armed = false;
            t.shard.advance_timers(now_ns);
            let had_events = LinuxCore::absorb_stack_events(&mut t, now_ns);
            let c = &mut *t;
            let sent = crate::flush_tx(&mut c.shard, &c.queues, &mut c.tx_scratch, &mut c.pending_kicks);
            c.stats.tx_packets += sent;
            let cost = 300 + c.params.tx_pkt_ns * sent;
            t.core.borrow_mut().run(now, Nanos(cost), CpuDomain::Kernel);
            let wake = had_events
                && (t.app_blocked || t.idle_wake.is_some())
                && !(t.app_scheduled && t.idle_wake.is_none());
            if wake {
                if let Some(w) = t.idle_wake.take() {
                    sim.cancel(w);
                }
                t.app_blocked = false;
                t.app_scheduled = true;
                let delay = t.params.sched_wakeup_ns;
                drop(t);
                sim.schedule_event_in(Nanos(delay), this, EV_APP_RUN);
            }
        }
        ring_doorbells(&mut this.borrow_mut().pending_kicks, sim);
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
                this.borrow_mut().idle_wake = None;
                LinuxCore::app_run(this, sim);
            }
            _ => {
                debug_assert_eq!(arg, EV_TICK);
                LinuxCore::tick(this, sim);
            }
        }
    }
}

impl std::fmt::Debug for LinuxCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxCore")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish()
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
        mut app_factory: impl FnMut(usize) -> Box<dyn IxApp>,
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
            |id, shard, queues| LinuxCore {
                id,
                params: params.clone(),
                shard,
                app: app_factory(id),
                last_irq: vec![SimTime::ZERO; queues.len()],
                queues,
                core: host.cores[id].clone(),
                app_events: Vec::new(),
                pending_results: Vec::new(),
                sndbufs: FlowMap::new(),
                spare_chunks: Spares::new(),
                app_blocked: true,
                app_scheduled: false,
                softirq_scheduled: false,
                tick_armed: false,
                idle_wake: None,
                pending_kicks: Vec::new(),
                ctx: UserCtx::default(),
                rx_scratch: Vec::new(),
                seen_flows: Vec::new(),
                read_sockets: Vec::new(),
                events_scratch: Vec::new(),
                tx_scratch: Vec::new(),
                stats: LinuxStats::default(),
            },
            LinuxCore::on_rx,
        );
        // Prime pacing apps (load generators).
        for lc in &cores {
            let wants = lc.borrow().app.wants_cycle(sim.now().as_nanos());
            if wants {
                let mut t = lc.borrow_mut();
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
            c.borrow_mut().shard.arp_seed(ip, mac);
        }
    }

    /// Aggregate kernel/user CPU split across cores.
    pub fn cpu_split(&self) -> (u64, u64) {
        let mut k = 0;
        let mut u = 0;
        for c in &self.cores {
            let t = c.borrow();
            let core = t.core.borrow();
            k += core.kernel_ns;
            u += core.user_ns;
        }
        (k, u)
    }

    /// Aggregate stats.
    pub fn stats(&self) -> LinuxStats {
        let mut s = LinuxStats::default();
        for c in &self.cores {
            let t = c.borrow();
            s.interrupts += t.stats.interrupts;
            s.softirqs += t.stats.softirqs;
            s.rx_packets += t.stats.rx_packets;
            s.tx_packets += t.stats.tx_packets;
            s.wakeups += t.stats.wakeups;
            s.syscalls += t.stats.syscalls;
            s.bytes_copied += t.stats.bytes_copied;
        }
        s
    }
}
