//! The sharded TCP/IP stack: one [`TcpShard`] per RSS queue / elastic
//! thread. This file holds the shard, its counters and the connection
//! API of Table 1; the rest of the `impl` lives beside it, by concern:
//! `rx` (the receive path and the established-state machine), `listen`
//! (handshakes: passive open, SYN cookies, active-open completion), `tx`
//! (send, ACK generation, segment and frame builders), `timers`
//! (retransmission, persist, TIME_WAIT) and `migrate` (flow-group
//! extract/absorb).

mod listen;
mod migrate;
mod rx;
mod timers;
mod tx;

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

use ix_mempool::{LentQueues, Mbuf, MbufPool, Spares};
use ix_net::eth::MacAddr;
use ix_net::filter::FilterPolicy;
use ix_net::ip::Ipv4Addr;
use ix_net::rss;
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_testkit::{buffer_id, Bytes};
use ix_timerwheel::TimerWheel;

use crate::arp_table::ArpTable;
use crate::config::{AckPolicy, StackConfig, RSS_PROBE_LIMIT};
use crate::event::{FlowId, TcpEvent};
use crate::flow_table::{FlowMap, FlowMapMem};
use crate::tcb::{Tcb, TcbCold, TcpState, TimerKind, TxSeg};

/// Headroom reserved when allocating a TX mbuf: enough for the worst-case
/// Eth + IPv4 + TCP header stack, so the payload is written once into the
/// tail and every header is prepended in place (the mbuf layout of §4.2).
const TX_HEADROOM: usize = ix_net::MAX_TX_HEADER_LEN;

/// Errors surfaced to the API layer (and mapped to syscall return codes
/// by the dataplane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// Unknown or stale flow handle.
    BadHandle,
    /// Operation invalid in the flow's current state.
    BadState,
    /// No ephemeral port satisfied the RSS steering constraint.
    PortExhausted,
    /// The shard's mbuf pool is empty.
    OutOfMbufs,
    /// recv_done credited more bytes than were outstanding.
    BadCredit,
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::BadHandle => write!(f, "bad flow handle"),
            StackError::BadState => write!(f, "invalid state for operation"),
            StackError::PortExhausted => write!(f, "ephemeral ports exhausted"),
            StackError::OutOfMbufs => write!(f, "mbuf pool exhausted"),
            StackError::BadCredit => write!(f, "recv_done credit exceeds outstanding"),
        }
    }
}

impl std::error::Error for StackError {}

/// Aggregate stack counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// TCP segments processed.
    pub rx_segments: u64,
    /// TCP segments emitted.
    pub tx_segments: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RSTs sent.
    pub rst_tx: u64,
    /// RSTs received.
    pub rst_rx: u64,
    /// Frames dropped for bad checksums / malformed headers.
    pub parse_drops: u64,
    /// Subset of `parse_drops` rejected specifically by checksum
    /// verification (IP header, TCP/UDP pseudo-header, ICMP). A frame
    /// corrupted on the wire lands here — and is never delivered.
    pub checksum_drops: u64,
    /// Retransmission timeouts that fired (including SYN timeouts).
    pub rto_fires: u64,
    /// Fast retransmits triggered by three duplicate ACKs.
    pub fast_retransmits: u64,
    /// Zero-window persist probes sent.
    pub persist_probes: u64,
    /// Longest loss-recovery episode observed, ns: from the first loss
    /// signal (RTO fire or fast-retransmit entry) until the cumulative
    /// ACK covers the recovery point captured at that instant.
    pub max_recovery_ns: u64,
    /// TCP segments to ports nobody listens on.
    pub no_listener: u64,
    /// Active opens completed.
    pub conns_opened: u64,
    /// Passive opens completed.
    pub conns_accepted: u64,
    /// Payload bytes received in order.
    pub bytes_rx: u64,
    /// Payload bytes accepted for transmission.
    pub bytes_tx: u64,
    /// ARP packets sent.
    pub arp_tx: u64,
    /// ICMP echoes answered.
    pub icmp_echo: u64,
    /// UDP datagrams received and dropped: no application takes UDP.
    pub udp_rx: u64,
    /// Outbound packets dropped because the mbuf pool was empty.
    pub pool_drops: u64,
    /// Payload byte-copies performed on the transmit path. The zero-copy
    /// fast path writes each data segment's payload exactly once — into
    /// the tail of its pool mbuf; the ARP-cold park path adds one write
    /// at serialization and one more when the parked frame is released.
    pub tx_payload_writes: u64,
    /// Transient heap buffers allocated while emitting (staging Vecs).
    /// Zero on the fast path; the ARP-cold park path allocates one to
    /// hold the serialized L3 frame while the next hop resolves.
    pub tx_transient_allocs: u64,
    /// Payload byte-copies performed on the receive path between the
    /// ring's DMA buffer and the application's view. The zero-copy RX
    /// path delivers refcounted `Bytes` views of the mbuf itself, so
    /// this is a tripwire mirroring `tx_payload_writes`: the
    /// `rx_zerocopy` suite pins it at 0 per in-order delivery.
    pub rx_payload_copies: u64,
    /// Staging copies taken while buffering or draining out-of-order
    /// segments. Reassembly holds the received mbufs themselves and
    /// trims them in place on drain, so this too stays 0.
    pub rx_ooo_copies: u64,
    /// Receive buffers currently held between in-order delivery and the
    /// application's `recv_done` credit, plus out-of-order buffers
    /// awaiting reassembly. A gauge, not a rate: this is the real pool
    /// pressure behind the `rcv_outstanding` window arithmetic.
    pub rx_pool_outstanding: u64,
    /// SYNs silently dropped because the half-open (`SynRcvd`) backlog
    /// was full. A flood's TCB footprint is capped by `syn_backlog`; the
    /// peer's SYN retransmit gets another chance once slots drain.
    pub synrcvd_overflow_drops: u64,
    /// Stateless SYN-cookie SYN-ACKs minted (no TCB allocated).
    pub syn_cookies_sent: u64,
    /// Handshakes completed by a validated cookie ACK (TCB allocated
    /// directly in `Established`).
    pub syn_cookies_accepted: u64,
    /// ACKs to a listened port whose cookie failed validation (forged,
    /// expired, or simply stray) — answered with RST per RFC 793 §3.4.
    pub syn_cookies_rejected: u64,
}

impl StackStats {
    /// Folds another shard's counters into this one. Every counter sums,
    /// except `max_recovery_ns`, which keeps the maximum (it is a
    /// per-episode high-water mark, not a rate).
    pub fn absorb(&mut self, other: &StackStats) {
        self.rx_segments += other.rx_segments;
        self.tx_segments += other.tx_segments;
        self.retransmits += other.retransmits;
        self.rst_tx += other.rst_tx;
        self.rst_rx += other.rst_rx;
        self.parse_drops += other.parse_drops;
        self.checksum_drops += other.checksum_drops;
        self.rto_fires += other.rto_fires;
        self.fast_retransmits += other.fast_retransmits;
        self.persist_probes += other.persist_probes;
        self.max_recovery_ns = self.max_recovery_ns.max(other.max_recovery_ns);
        self.no_listener += other.no_listener;
        self.conns_opened += other.conns_opened;
        self.conns_accepted += other.conns_accepted;
        self.bytes_rx += other.bytes_rx;
        self.bytes_tx += other.bytes_tx;
        self.arp_tx += other.arp_tx;
        self.icmp_echo += other.icmp_echo;
        self.udp_rx += other.udp_rx;
        self.pool_drops += other.pool_drops;
        self.tx_payload_writes += other.tx_payload_writes;
        self.tx_transient_allocs += other.tx_transient_allocs;
        self.rx_payload_copies += other.rx_payload_copies;
        self.rx_ooo_copies += other.rx_ooo_copies;
        self.rx_pool_outstanding += other.rx_pool_outstanding;
        self.synrcvd_overflow_drops += other.synrcvd_overflow_drops;
        self.syn_cookies_sent += other.syn_cookies_sent;
        self.syn_cookies_accepted += other.syn_cookies_accepted;
        self.syn_cookies_rejected += other.syn_cookies_rejected;
    }
}

/// Timer payload: identifies the flow (with generation) and the kind.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    key: u64,
    gen: u32,
    kind: TimerKind,
}

/// Steering oracle: which local queue the NIC's redirection table maps
/// an RSS bucket to. Used for ephemeral-port probing (§4.4).
pub type SteerFn = Rc<dyn Fn(u16) -> usize>;

/// One TCP segment out of the validating parse ([`TcpShard::parse`]):
/// Ethernet, IPv4 and TCP headers verified (both checksums included) and
/// pulled, the mbuf positioned at the payload.
struct ParsedFrame {
    /// Packed [`FlowId`] key of the segment's tuple (the only part of
    /// the IPv4 header TCP processing reads past the parse).
    key: u64,
    hdr: TcpHeader,
    /// Taken by the run step (runs visit a staged batch out of arrival
    /// order, so the mbuf moves out of its slot rather than the slot
    /// out of the array).
    payload: Option<Mbuf>,
}

/// One shard of the TCP/IP stack: the flows RSS assigns to one queue /
/// elastic thread. All operations are synchronization-free.
pub struct TcpShard {
    cfg: StackConfig,
    /// Local IPv4 address.
    pub local_ip: Ipv4Addr,
    /// Local MAC address.
    pub local_mac: MacAddr,
    /// Per-packet demux: open-addressing table over the packed
    /// [`FlowId`] word into a contiguous TCB slab (DESIGN.md §5).
    flows: FlowMap<Tcb>,
    listeners: HashSet<u16>,
    arp: ArpTable,
    wheel: TimerWheel<TimerEntry>,
    pool: MbufPool,
    /// Outbound frames awaiting the engine's TX pass.
    tx: Vec<Mbuf>,
    /// Upcall events awaiting the engine.
    events: Vec<TcpEvent>,
    /// Flows with a deferred ACK pending (EndOfCycle policy).
    pending_acks: Vec<u64>,
    /// Reusable list of the timers one `advance_timers` pass fired.
    fired_scratch: Vec<TimerEntry>,
    /// The buffers behind every flow's retransmit queue and held-receive
    /// queue, and the cold blocks: lent to a flow only while its queue
    /// is non-empty (its cold state set), back on these stacks
    /// otherwise, so an idle flow owns its slab slot and nothing else
    /// (DESIGN.md §13). Two queue stacks because the two queues empty
    /// at different times — `rx_held` when the application credits,
    /// `rtq` when the peer acknowledges.
    spare_rtq: Spares<VecDeque<TxSeg>>,
    spare_rx_held: Spares<VecDeque<Mbuf>>,
    spare_cold: Spares<Box<TcbCold>>,
    steer: Option<(usize, SteerFn)>,
    next_gen: u32,
    iss: u32,
    ip_ident: u16,
    eph_cursor: u16,
    now_ns: u64,
    /// The filter policy snapshot the control plane published to this
    /// shard (same RCU snapshot the NIC holds). The stack consults it
    /// only on the passive-open path, to agree with the NIC about which
    /// SYNs get the cookie challenge.
    filter_policy: Option<Rc<FilterPolicy>>,
    /// Per-shard SYN-cookie secret (deterministic: derived from the
    /// local address so goldens reproduce; a real deployment would use
    /// boot-time entropy).
    cookie_secret: u64,
    /// Live `SynRcvd` TCBs — the half-open backlog gauge bounded by
    /// `cfg.syn_backlog`.
    synrcvd_count: usize,
    /// Reusable staging array of [`TcpShard::input_batch`]: the batch's
    /// validated TCP segments awaiting their flow's run. Kept on the
    /// shard so steady-state cycles allocate nothing once the high-water
    /// batch size has been seen; single-frame input never touches it.
    batch_segs: Vec<ParsedFrame>,
    /// Per-batch flow groups: `(flow key, chain head, chain tail)` into
    /// `batch_next`. A polled batch holds at most a few dozen distinct
    /// flows, so a linear scan of this list beats sorting the staging
    /// array (no per-segment O(log n) comparisons, no struct moves), and
    /// chaining preserves arrival order within each flow by
    /// construction.
    batch_groups: Vec<(u64, u32, u32)>,
    /// Intrusive next-pointers parallel to `batch_segs` (u32::MAX ends a
    /// chain).
    batch_next: Vec<u32>,
    /// Counters.
    pub stats: StackStats,
}

const EPH_LO: u16 = 16_384;

impl TcpShard {
    /// Creates a shard for a host with the given addresses.
    pub fn new(cfg: StackConfig, local_ip: Ipv4Addr, local_mac: MacAddr) -> TcpShard {
        let pool = MbufPool::new(cfg.mbuf_pool);
        let cookie_secret = crate::flow_table::mix(
            0x5359_4e43_4f4f_4b49 ^ ((local_ip.0 as u64) << 16) ^ local_mac.0[5] as u64,
        );
        TcpShard {
            cfg,
            local_ip,
            local_mac,
            flows: FlowMap::new(),
            listeners: HashSet::new(),
            arp: ArpTable::new(),
            wheel: TimerWheel::new(),
            pool,
            tx: Vec::new(),
            events: Vec::new(),
            pending_acks: Vec::new(),
            fired_scratch: Vec::new(),
            spare_rtq: Spares::new(),
            spare_rx_held: Spares::new(),
            spare_cold: Spares::new(),
            steer: None,
            next_gen: 1,
            iss: 0x1000,
            ip_ident: 0,
            eph_cursor: EPH_LO,
            now_ns: 0,
            filter_policy: None,
            cookie_secret,
            synrcvd_count: 0,
            batch_segs: Vec::new(),
            batch_groups: Vec::new(),
            batch_next: Vec::new(),
            stats: StackStats::default(),
        }
    }

    /// Installs (or clears) the filter-policy snapshot the control plane
    /// published. Only the passive-open path reads it — to decide which
    /// SYNs are answered statelessly with a cookie.
    pub fn set_filter_policy(&mut self, policy: Option<Rc<FilterPolicy>>) {
        self.filter_policy = policy;
    }

    /// The filter-policy snapshot this shard currently classifies with
    /// (the control plane pins freshness across migration absorbs).
    pub fn filter_policy(&self) -> Option<&Rc<FilterPolicy>> {
        self.filter_policy.as_ref()
    }

    /// Live half-open (`SynRcvd`) connections on this shard.
    pub fn synrcvd_len(&self) -> usize {
        self.synrcvd_count
    }

    /// Installs the RSS steering oracle: this shard serves `queue`, and
    /// `steer` maps a reply tuple's bucket to its queue. Outbound
    /// connections then probe ephemeral ports until the reply lands here
    /// (§4.4).
    pub fn set_steering(&mut self, queue: usize, steer: SteerFn) {
        self.steer = Some((queue, steer));
    }

    /// Pre-populates the ARP table (the fabric helper uses this so
    /// experiments skip the resolution handshake; protocol tests
    /// exercise real ARP by leaving it cold).
    pub fn arp_seed(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    /// Number of live flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// TCB-slab occupancy and resident bytes (live flows, high-water
    /// slab slots, slab+table footprint) for peak-RSS-style accounting.
    pub fn flow_mem_stats(&self) -> FlowMapMem {
        self.flows.mem_stats()
    }

    /// Snapshot of the shard's mbuf-pool statistics (alloc/free churn,
    /// outstanding and peak occupancy) for engine instrumentation.
    pub fn pool_stats(&self) -> ix_mempool::PoolStats {
        self.pool.stats()
    }

    /// Transmit buffers whose storage the shard's pool has materialized
    /// so far.
    pub fn pool_provisioned(&self) -> usize {
        self.pool.provisioned()
    }

    /// Identity of every vector the shard recycles from cycle to cycle
    /// (see [`ix_testkit::buffer_id`]): the TX and event queues the
    /// engine swaps, the deferred-ACK list, the fired-timer list and the
    /// three `input_batch` staging arrays (last, in that order).
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        vec![
            buffer_id(&self.tx),
            buffer_id(&self.events),
            buffer_id(&self.pending_acks),
            buffer_id(&self.fired_scratch),
            buffer_id(&self.batch_segs),
            buffer_id(&self.batch_groups),
            buffer_id(&self.batch_next),
        ]
    }

    /// `(address, capacity)` of the timer wheel's entry arena, in the
    /// form of [`TcpShard::scratch_buffers`]: it grows to the most
    /// timers ever armed at once and no timer operation allocates
    /// otherwise.
    #[doc(hidden)]
    pub fn timer_arena(&self) -> (usize, usize) {
        self.wheel.arena_id()
    }

    /// Census of the lent queue buffers, `[rtq, rx_held]`: how many
    /// flows hold one, what idle flows still own (nothing), and what
    /// sits on each spare stack.
    #[doc(hidden)]
    pub fn lent_queues(&self) -> [LentQueues; 2] {
        [
            self.spare_rtq.census(self.flows.values().map(|t| &t.rtq)),
            self.spare_rx_held.census(self.flows.values().map(|t| &t.rx_held)),
        ]
    }

    /// Diagnostic view of a flow's retransmit-queue payloads (O(1)
    /// refcounted clones). Tests use `Bytes::ptr_eq` on these to prove
    /// that queuing, retransmission, and reaping share — and release —
    /// one storage block instead of copying payload.
    pub fn rtq_payloads(&self, flow: FlowId) -> Vec<Bytes> {
        match self.flows.get(flow.key) {
            Some(tcb) if tcb.id.gen == flow.gen => {
                tcb.rtq.iter().map(|seg| seg.data.clone()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Diagnostic view of a flow's held receive buffers (delivered but
    /// not yet credited via `recv_done`), as O(1) refcounted views.
    /// Tests use `Bytes::ptr_eq` on these to prove the application's
    /// `Recv` payloads alias the buffers the stack retains — and that
    /// `recv_done` actually releases them.
    pub fn rx_held_payloads(&self, flow: FlowId) -> Vec<Bytes> {
        match self.flows.get(flow.key) {
            Some(tcb) if tcb.id.gen == flow.gen => {
                tcb.rx_held.iter().map(|m| m.as_bytes()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Takes the frames generated since the last call (the engine moves
    /// them to the NIC TX ring), leaving the (empty) `replacement`
    /// in its place so the engine can recycle buffer capacity across
    /// run-to-completion cycles instead of reallocating each one. The
    /// two buffers serve alternate cycles, so the one going on duty is
    /// sized for the batch the other just carried: the pair reaches its
    /// high-water capacity together instead of one burst apart.
    pub fn take_tx_swap(&mut self, mut replacement: Vec<Mbuf>) -> Vec<Mbuf> {
        debug_assert!(replacement.is_empty());
        replacement.reserve(self.tx.len());
        std::mem::replace(&mut self.tx, replacement)
    }

    /// Takes the pending upcall events, leaving the (empty)
    /// `replacement` in their place, as [`TcpShard::take_tx_swap`] does
    /// for frames.
    pub fn take_events_swap(&mut self, mut replacement: Vec<TcpEvent>) -> Vec<TcpEvent> {
        debug_assert!(replacement.is_empty());
        replacement.reserve(self.events.len());
        std::mem::replace(&mut self.events, replacement)
    }

    /// True when the shard has nothing queued in any direction.
    pub fn quiescent(&self) -> bool {
        self.tx.is_empty() && self.events.is_empty() && self.pending_acks.is_empty()
    }

    /// Frames currently queued for transmission (without draining them).
    pub fn tx_len(&self) -> usize {
        self.tx.len()
    }

    /// Nanoseconds until the next timer fires, if any.
    pub fn next_timer_ns(&self) -> Option<u64> {
        self.wheel.next_deadline_ns()
    }

    /// True while any timer is armed: [`TcpShard::next_timer_ns`] is
    /// `Some`, without working out when.
    pub fn has_timers(&self) -> bool {
        self.wheel.live() > 0
    }

    // ------------------------------------------------------------------
    // Connection API (the syscall surface of Table 1).
    // ------------------------------------------------------------------

    /// Active open (Table 1: `connect{cookie, dst IP, dst port}`).
    /// Allocates an RSS-aligned ephemeral port, sends the SYN, and will
    /// later raise `Connected`.
    pub fn connect(
        &mut self,
        now_ns: u64,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        cookie: u64,
    ) -> Result<FlowId, StackError> {
        self.now_ns = now_ns;
        let (local_port, bucket) = self.pick_ephemeral(dst_ip, dst_port)?;
        let key = FlowId::pack(dst_ip, dst_port, local_port);
        let gen = self.next_gen;
        self.next_gen += 1;
        let id = FlowId { key, gen };
        self.iss = self.iss.wrapping_add(64_000 + (self.flows.len() as u32 & 0x3f));
        let iss = self.iss;
        let mut tcb = self.new_tcb(id, cookie, TcpState::SynSent, iss);
        tcb.snd_nxt = iss.wrapping_add(1); // SYN occupies one.
        tcb.open_time_ns = now_ns;
        let syn = SegmentSpec {
            flags: TcpFlags::SYN,
            seq: iss,
            // SYN windows are never scaled (RFC 7323).
            ack: 0,
            window: tcb.advertised_window().min(65_535) as u16,
            mss: Some(self.cfg.mss as u16),
            wscale: if self.cfg.window_scale > 0 { Some(self.cfg.window_scale) } else { None },
            payload: &[],
        };
        self.emit_segment_for(&tcb, syn);
        let timer = self.wheel.schedule(
            self.cfg.syn_rto_ns,
            TimerEntry { key, gen, kind: TimerKind::Rto },
        );
        tcb.rto_timer = Some(timer);
        tcb.rss_bucket = bucket;
        self.flows.insert_in_bucket(key, bucket, tcb);
        Ok(id)
    }

    /// Attaches the user cookie to a knocked connection (Table 1:
    /// `accept{handle, cookie}`).
    pub fn accept(&mut self, flow: FlowId, cookie: u64) -> Result<(), StackError> {
        let tcb = self.get_mut(flow)?;
        tcb.cookie = cookie;
        Ok(())
    }

    /// Credits consumed receive buffers back to the window (Table 1:
    /// `recv_done{handle, bytes acked}` — "advances the receive window
    /// and frees memory buffers").
    pub fn recv_done(&mut self, now_ns: u64, flow: FlowId, bytes: u32) -> Result<(), StackError> {
        self.now_ns = now_ns;
        let policy = self.cfg.ack_policy;
        let mss = self.cfg.mss;
        let tcb = live_flow(&mut self.flows, flow)?;
        if bytes > tcb.rcv_outstanding {
            return Err(StackError::BadCredit);
        }
        let before = tcb.advertised_window();
        tcb.rcv_outstanding -= bytes;
        let after = tcb.advertised_window();
        // Free the receive buffers the credit covers (Table 1: recv_done
        // "advances the receive window and frees memory buffers").
        // Credit accumulates against the oldest held mbuf — deliveries
        // and credits need not align — and each fully credited buffer
        // drops back to its owning pool here.
        tcb.rx_front_credit += bytes;
        let mut released = 0u64;
        while let Some(front) = tcb.rx_held.front() {
            let flen = front.len() as u32;
            if tcb.rx_front_credit < flen {
                break;
            }
            tcb.rx_front_credit -= flen;
            tcb.rx_held.pop_front();
            released += 1;
        }
        self.spare_rx_held.reclaim(&mut tcb.rx_held);
        self.stats.rx_pool_outstanding -= released;
        let key = flow.key;
        match policy {
            AckPolicy::EndOfCycle => self.mark_ack(key),
            AckPolicy::Immediate | AckPolicy::Delayed(_) => {
                // Kernel-style window update: when the window reopens
                // from (nearly) closed, or when the application has freed
                // at least two segments since the last advertisement —
                // the rule that keeps bulk senders from stalling against
                // a delayed ACK on an odd final segment.
                let tcb = self.flows.get(key).expect("validated");
                let last = tcb.adv_wnd_last;
                if (before < mss && after >= mss) || after >= last.saturating_add(2 * mss) {
                    self.emit_bare_ack(key);
                }
            }
        }
        Ok(())
    }

    /// Graceful close (Table 1: `close{handle}` on an open connection) —
    /// sends FIN; for a not-yet-accepted (knocked) connection this
    /// rejects it with RST.
    pub fn close(&mut self, now_ns: u64, flow: FlowId) -> Result<(), StackError> {
        self.now_ns = now_ns;
        let tcb = self.get_mut(flow)?;
        match tcb.state {
            TcpState::Established => {
                self.queue_fin(flow.key);
                self.flows.get_mut(flow.key).expect("live").state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.queue_fin(flow.key);
                self.flows.get_mut(flow.key).expect("live").state = TcpState::LastAck;
            }
            TcpState::SynRcvd => {
                // Reject a knocked connection.
                let (seq, ack) = (tcb.snd_nxt, tcb.rcv_nxt);
                self.send_rst(flow.key, seq, ack);
                self.destroy(flow.key);
            }
            TcpState::SynSent => {
                self.destroy(flow.key);
            }
            _ => return Err(StackError::BadState),
        }
        Ok(())
    }

    /// Hard close: RST and drop, no TIME_WAIT. The §5.3 echo benchmark
    /// closes this way "to avoid exhausting ephemeral ports".
    pub fn abort(&mut self, now_ns: u64, flow: FlowId) -> Result<(), StackError> {
        self.now_ns = now_ns;
        let tcb = self.get_mut(flow)?;
        let (seq, ack) = (tcb.snd_nxt, tcb.rcv_nxt);
        self.send_rst(flow.key, seq, ack);
        self.destroy(flow.key);
        Ok(())
    }

    fn get_mut(&mut self, flow: FlowId) -> Result<&mut Tcb, StackError> {
        live_flow(&mut self.flows, flow)
    }

    /// Picks an ephemeral port whose reply tuple RSS-hashes back to this
    /// shard's queue (§4.4: "we simply probe the ephemeral port range"),
    /// with the reply tuple's bucket.
    fn pick_ephemeral(&mut self, dst_ip: Ipv4Addr, dst_port: u16) -> Result<(u16, u16), StackError> {
        for _ in 0..RSS_PROBE_LIMIT {
            let port = self.eph_cursor;
            self.eph_cursor = if self.eph_cursor == u16::MAX { EPH_LO } else { self.eph_cursor + 1 };
            if self.flows.contains_key(FlowId::pack(dst_ip, dst_port, port)) {
                continue;
            }
            // The NIC hashes the reply: remote → local.
            let bucket = rss::bucket(dst_ip, self.local_ip, dst_port, port);
            match &self.steer {
                Some((queue, f)) if f(bucket) != *queue => continue,
                _ => return Ok((port, bucket)),
            }
        }
        Err(StackError::PortExhausted)
    }

    /// A fresh PCB. It owns no buffer, only the right to borrow.
    fn new_tcb(&mut self, id: FlowId, cookie: u64, state: TcpState, iss: u32) -> Tcb {
        self.expect_flows(self.flows.len() + 1);
        Tcb::new(&self.cfg, id, cookie, state, iss)
    }

    /// Tells the spare stacks how many flows may come to borrow.
    fn expect_flows(&mut self, flows: usize) {
        self.spare_rtq.note_borrowers(flows);
        self.spare_rx_held.note_borrowers(flows);
        self.spare_cold.note_borrowers(flows);
    }

    /// Removes a flow and cancels its timers. Dropping the TCB releases
    /// any receive buffers it still held (uncredited deliveries and
    /// out-of-order segments) back to their pools.
    fn destroy(&mut self, key: u64) {
        if let Some(mut tcb) = self.flows.remove(key) {
            self.stats.rx_pool_outstanding -= (tcb.rx_held.len() + tcb.ooo_len()) as u64;
            if tcb.state == TcpState::SynRcvd {
                self.synrcvd_count -= 1;
            }
            for t in tcb.take_timers().into_iter().flatten() {
                self.wheel.cancel(t);
            }
            tcb.rtq.clear();
            self.spare_rtq.reclaim(&mut tcb.rtq);
            tcb.rx_held.clear();
            self.spare_rx_held.reclaim(&mut tcb.rx_held);
            if let Some(mut cold) = tcb.cold.take() {
                *cold = TcbCold::default();
                self.spare_cold.give(cold);
            }
        }
    }
}

/// Resolves a flow handle, rejecting a stale generation. A function of
/// the flow map alone, for callers that go on to use other fields of
/// the shard beside the TCB.
fn live_flow(flows: &mut FlowMap<Tcb>, flow: FlowId) -> Result<&mut Tcb, StackError> {
    match flows.get_mut(flow.key) {
        Some(t) if t.id.gen == flow.gen => Ok(t),
        _ => Err(StackError::BadHandle),
    }
}

/// Parameters of an outgoing segment.
struct SegmentSpec<'a> {
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    window: u16,
    mss: Option<u16>,
    wscale: Option<u8>,
    payload: &'a [u8],
}

impl SegmentSpec<'static> {
    /// A segment with no options and no payload.
    fn bare(flags: TcpFlags, seq: u32, ack: u32, window: u16) -> Self {
        SegmentSpec { flags, seq, ack, window, mss: None, wscale: None, payload: &[] }
    }
}

impl std::fmt::Debug for TcpShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpShard")
            .field("local_ip", &self.local_ip)
            .field("flows", &self.flows.len())
            .field("stats", &self.stats)
            .finish()
    }
}
