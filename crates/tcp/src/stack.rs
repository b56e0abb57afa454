//! The sharded TCP/IP stack: segment processing, connection management,
//! ARP/ICMP/UDP, timers, and output generation.

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

use ix_mempool::{Mbuf, MbufPool};
use ix_net::arp::{ArpOp, ArpPacket};
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::filter::FilterPolicy;
use ix_net::icmp::{IcmpHeader, IcmpType};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{seq_le, seq_lt, TcpFlags, TcpHeader};
use ix_net::udp::UdpHeader;
use ix_net::NetError;
use ix_testkit::{buffer_id, Bytes};
use ix_timerwheel::TimerWheel;

use crate::arp_table::ArpTable;
use crate::config::{AckPolicy, StackConfig};
use crate::event::{DeadReason, FlowId, TcpEvent};
use crate::flow_table::{FlowMap, FlowMapMem, NO_BUCKET, NUM_BUCKETS};
use crate::syncookie;
use crate::tcb::{Tcb, TcpState, TimerKind, TxSeg};

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

/// A received UDP datagram (surfaced separately from TCP events).
#[derive(Debug)]
pub struct UdpDatagram {
    /// Sender address.
    pub src_ip: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Local destination port.
    pub dst_port: u16,
    /// Payload.
    pub mbuf: Mbuf,
}

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
    /// UDP datagrams received / sent.
    pub udp_rx: u64,
    /// UDP datagrams sent.
    pub udp_tx: u64,
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
    /// Owned retransmit-storage blocks materialized by the slice-based
    /// `send` entry point (one per call; segments slice it O(1)).
    /// `send_bytes` callers share their own block and never count here.
    pub tx_rtq_blocks: u64,
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
        self.udp_tx += other.udp_tx;
        self.pool_drops += other.pool_drops;
        self.tx_payload_writes += other.tx_payload_writes;
        self.tx_transient_allocs += other.tx_transient_allocs;
        self.tx_rtq_blocks += other.tx_rtq_blocks;
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

/// Steering oracle: given (remote_ip, remote_port, local_port), which
/// local queue would the *reply* traffic be delivered to. Used for
/// ephemeral-port probing (§4.4).
pub type SteerFn = Rc<dyn Fn(Ipv4Addr, u16, u16) -> usize>;

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
    /// [`FlowId`] word into a contiguous TCB slab (DESIGN.md §5d).
    flows: FlowMap<Tcb>,
    listeners: HashSet<u16>,
    arp: ArpTable,
    wheel: TimerWheel<TimerEntry>,
    pool: MbufPool,
    /// Outbound frames awaiting the engine's TX pass.
    tx: Vec<Mbuf>,
    /// Upcall events awaiting the engine.
    events: Vec<TcpEvent>,
    /// Received UDP datagrams.
    udp: Vec<UdpDatagram>,
    /// Flows with a deferred ACK pending (EndOfCycle policy).
    pending_acks: Vec<u64>,
    /// Reusable list of the timers one `advance_timers` pass fired.
    fired_scratch: Vec<TimerEntry>,
    /// Emptied retransmit and held-receive queues of destroyed flows,
    /// handed to the next flow created: on a connection-churn path a
    /// TCB's queues keep their buffers across slab-slot reuse.
    spare_queues: Vec<(VecDeque<TxSeg>, VecDeque<Mbuf>)>,
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
            udp: Vec::new(),
            pending_acks: Vec::new(),
            fired_scratch: Vec::new(),
            spare_queues: Vec::new(),
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
    /// `steer` predicts the queue for a reply tuple. Outbound connections
    /// then probe ephemeral ports until the reply lands here (§4.4).
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

    /// RSS redirection-table bucket for a flow's *reply* tuple: the
    /// same Toeplitz hash (and the same argument order) the NIC runs
    /// over an arriving frame's `(src, dst, sport, dport)`, masked to
    /// the 128-entry table. Computed once per flow at adoption;
    /// extract/absorb then move whole buckets without re-hashing.
    fn rss_bucket_for(&self, remote_ip: Ipv4Addr, remote_port: u16, local_port: u16) -> u16 {
        let hash = ix_net::rss::hash_ipv4_tuple(
            &ix_net::rss::TOEPLITZ_DEFAULT_KEY,
            remote_ip,
            self.local_ip,
            remote_port,
            local_port,
        );
        (hash & (NUM_BUCKETS as u32 - 1)) as u16
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

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Drains the frames generated since the last call; the engine moves
    /// them to the NIC TX ring.
    pub fn take_tx(&mut self) -> Vec<Mbuf> {
        std::mem::take(&mut self.tx)
    }

    /// Drains pending upcall events.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    /// Takes the outbound frame queue, leaving the (empty) `replacement`
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
    /// `replacement` in their place (capacity-recycling counterpart of
    /// [`TcpShard::take_events`]).
    pub fn take_events_swap(&mut self, mut replacement: Vec<TcpEvent>) -> Vec<TcpEvent> {
        debug_assert!(replacement.is_empty());
        replacement.reserve(self.events.len());
        std::mem::replace(&mut self.events, replacement)
    }

    /// Drains received UDP datagrams.
    pub fn take_udp(&mut self) -> Vec<UdpDatagram> {
        std::mem::take(&mut self.udp)
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

    // ------------------------------------------------------------------
    // Flow migration (control-plane elastic thread add/revoke, §4.4):
    // "when a core is revoked from a dataplane, the corresponding
    // network flows must be assigned to another elastic thread."
    // ------------------------------------------------------------------

    /// Extracts every flow in one RSS bucket — the §4.4 flow-group
    /// migration primitive — cancelling their timers on this shard and
    /// appending them to a caller-owned batch for
    /// [`TcpShard::absorb_flows`] on their new shard. O(bucket
    /// population): the bucket's insertion-ordered list is the work
    /// list; no scan, no sort, no per-flow Toeplitz hash, so the order is
    /// a function of the flows' insertion history alone. The control
    /// plane pre-sizes one batch per destination (via
    /// [`TcpShard::bucket_len`]) and extracts every mis-steered bucket
    /// straight into it — one TCB write each, no intermediate per-bucket
    /// `Vec` and no growth re-copies mid-migration.
    pub fn extract_bucket_into(&mut self, bucket: u16, out: &mut Vec<Tcb>) {
        let keys: Vec<u64> = self.flows.bucket_keys(bucket).collect();
        self.extract_keys_into(&keys, out);
    }

    /// Live flows currently homed on RSS bucket `bucket` (O(bucket
    /// population)).
    pub fn bucket_len(&self, bucket: u16) -> usize {
        self.flows.bucket_len(bucket)
    }

    /// Removes the given flows, cancelling their timers in bulk and
    /// recording each residual delay for re-arming on the destination.
    fn extract_keys_into(&mut self, keys: &[u64], out: &mut Vec<Tcb>) {
        for &k in keys {
            let mut tcb = self.flows.remove(k).expect("indexed key present");
            // Held receive buffers migrate with the flow; the gauge
            // follows them to the absorbing shard.
            self.stats.rx_pool_outstanding -= (tcb.rx_held.len() + tcb.ooo.len()) as u64;
            // The half-open gauge follows migrating handshakes too.
            if tcb.state == TcpState::SynRcvd {
                self.synrcvd_count -= 1;
            }
            // Cancel every armed timer in one batch, recording residual
            // delays so `absorb_flows` re-arms the destination wheel
            // with the same remainder. One wheel round-trip per timer
            // (the payload's kind routes the residual), not two.
            let ids = [
                tcb.rto_timer.take(),
                tcb.persist_timer.take(),
                tcb.timewait_timer.take(),
                tcb.delack_timer.take(),
            ];
            self.wheel.cancel_batch(ids.into_iter().flatten(), |entry, remaining| {
                match entry.kind {
                    TimerKind::Rto => tcb.migrate_rto_ns = Some(remaining),
                    TimerKind::Persist => tcb.migrate_persist_ns = Some(remaining),
                    TimerKind::TimeWait => tcb.migrate_timewait_ns = Some(remaining),
                    TimerKind::DelAck => tcb.migrate_delack_ns = Some(remaining),
                }
            });
            // Stale pending-ACK entries for this key become no-ops
            // (flush checks `need_ack` against the live map).
            out.push(tcb);
        }
    }

    /// Adopts flows migrated from another shard, re-arming their timers
    /// on this shard's wheel with the residual delays the extract
    /// recorded — a timer that had 300 µs left on the source core has
    /// 300 µs left here, so migration neither loses a pending timeout
    /// nor postpones it (frequent migration must not starve the RTO).
    /// Flows that arrive without carry-state (tests constructing TCBs by
    /// hand, watchdog re-steers of discarded-ring flows) fall back to
    /// protocol-state defaults for RTO and TIME_WAIT.
    /// Takes the batch by vector so an empty destination (whole-shard
    /// migration always lands on one) can adopt the buffer wholesale as
    /// its TCB slab — zero per-TCB copies, via the in-place `collect`
    /// over the niche-optimized `Option<Tcb>`. A live destination
    /// stages each TCB into a free slot instead. Either way the flow
    /// table is reserved once, every TCB is threaded onto its bucket
    /// list in batch order, the probe table is committed in one
    /// home-slot-ordered pass, and timers are armed in cache-sized
    /// chunks against slot handles — no `get_mut` re-lookup per timer,
    /// no incremental table growth mid-absorb, no hash-random
    /// probe-array writes.
    pub fn absorb_flows(&mut self, now_ns: u64, flows: Vec<Tcb>) {
        /// Flows per timer-arming flush. Timer ids are written back into
        /// TCBs through their slot handles; flushing every ~2k flows
        /// (≈1 MB of TCBs) keeps those write-backs L2-resident instead
        /// of re-faulting the whole batch from DRAM after a 250k-flow
        /// insert pass has evicted its own head.
        const ABSORB_CHUNK: usize = 2048;

        /// Drain `reqs` into the wheel in one batched pass, routing each
        /// returned [`TimerId`] into its TCB via the slot handle in
        /// `targets` — no `get_mut` re-probe per timer.
        fn flush_timers(
            wheel: &mut TimerWheel<TimerEntry>,
            flows: &mut FlowMap<Tcb>,
            reqs: &mut Vec<(u64, TimerEntry)>,
            targets: &mut Vec<(u32, TimerKind)>,
        ) {
            let mut i = 0usize;
            wheel.schedule_batch(reqs.drain(..), |id| {
                let (slot, kind) = targets[i];
                i += 1;
                let tcb = flows.slot_mut(slot);
                match kind {
                    TimerKind::Rto => tcb.rto_timer = Some(id),
                    TimerKind::TimeWait => tcb.timewait_timer = Some(id),
                    TimerKind::Persist => tcb.persist_timer = Some(id),
                    TimerKind::DelAck => tcb.delack_timer = Some(id),
                }
            });
            targets.clear();
        }

        self.now_ns = now_ns;
        let n = flows.len();
        if n == 0 {
            return;
        }
        // Value placement: an empty map adopts the batch vector as its
        // slab in place (slot i == batch index i, zero TCB copies); a
        // live map stages each value into a free slot.
        let slots: Vec<u32> = if self.flows.is_empty() {
            self.flows.adopt_slab(flows);
            (0..n as u32).collect()
        } else {
            self.flows.reserve(n);
            flows
                .into_iter()
                .map(|tcb| {
                    let key = tcb.id.key;
                    self.flows.stage_push(key, tcb)
                })
                .collect()
        };
        let local_ip = self.local_ip;
        // Timer requests accumulated per chunk: `reqs` feeds the wheel,
        // `targets` routes each returned TimerId back to its TCB's
        // handle field by slot index.
        let chunk = ABSORB_CHUNK.min(n);
        let mut reqs: Vec<(u64, TimerEntry)> = Vec::with_capacity(chunk + 4);
        let mut targets: Vec<(u32, TimerKind)> = Vec::with_capacity(chunk + 4);
        for &slot in &slots {
            let key;
            let bucket;
            {
                let tcb = self.flows.slot_mut(slot);
                // Deconflict generation counters so stale-handle
                // protection keeps working after migration.
                self.next_gen = self.next_gen.max(tcb.id.gen + 1);
                key = tcb.id.key;
                let gen = tcb.id.gen;
                let need_rto = !tcb.rtq.is_empty()
                    || matches!(tcb.state, TcpState::SynSent | TcpState::SynRcvd);
                // Clear migrate residuals only when set: an idle
                // established flow takes the read-only path through this
                // loop, so its cache lines stay clean — no write-back of
                // the whole 94 MB batch just to store `None` over `None`.
                let rto = tcb.migrate_rto_ns.unwrap_or(tcb.rto_ns);
                if tcb.migrate_rto_ns.is_some() {
                    tcb.migrate_rto_ns = None;
                }
                let need_tw = tcb.state == TcpState::TimeWait;
                let tw = tcb.migrate_timewait_ns.unwrap_or(self.cfg.time_wait_ns);
                if tcb.migrate_timewait_ns.is_some() {
                    tcb.migrate_timewait_ns = None;
                }
                let persist = tcb.migrate_persist_ns;
                if persist.is_some() {
                    tcb.migrate_persist_ns = None;
                }
                let delack = tcb.migrate_delack_ns;
                if delack.is_some() {
                    tcb.migrate_delack_ns = None;
                }
                // A pending delayed ACK stays on the timer path below; a
                // plain `need_ack` rides the end-of-cycle flush.
                if tcb.need_ack && delack.is_none() {
                    self.pending_acks.push(key);
                }
                self.stats.rx_pool_outstanding += (tcb.rx_held.len() + tcb.ooo.len()) as u64;
                if tcb.state == TcpState::SynRcvd {
                    self.synrcvd_count += 1;
                }
                // Flows migrated from a sibling shard carry their
                // bucket; hand-built TCBs (tests, watchdog re-steers)
                // get it computed here, once, for the rest of their
                // life. Inlined `rss_bucket_for` — `tcb` borrows the
                // flow map, so no whole-`self` call is possible here.
                if tcb.rss_bucket == NO_BUCKET {
                    let hash = ix_net::rss::hash_ipv4_tuple(
                        &ix_net::rss::TOEPLITZ_DEFAULT_KEY,
                        tcb.remote_ip,
                        local_ip,
                        tcb.remote_port,
                        tcb.local_port,
                    );
                    tcb.rss_bucket = (hash & (NUM_BUCKETS as u32 - 1)) as u16;
                }
                bucket = tcb.rss_bucket;
                if need_rto {
                    reqs.push((rto, TimerEntry { key, gen, kind: TimerKind::Rto }));
                    targets.push((slot, TimerKind::Rto));
                }
                if need_tw {
                    reqs.push((tw, TimerEntry { key, gen, kind: TimerKind::TimeWait }));
                    targets.push((slot, TimerKind::TimeWait));
                }
                if let Some(d) = persist {
                    reqs.push((d, TimerEntry { key, gen, kind: TimerKind::Persist }));
                    targets.push((slot, TimerKind::Persist));
                }
                if let Some(d) = delack {
                    reqs.push((d, TimerEntry { key, gen, kind: TimerKind::DelAck }));
                    targets.push((slot, TimerKind::DelAck));
                }
            }
            self.flows.stage_adopted(slot, key, bucket);
            // Arm this chunk's timers while its TCBs are still
            // cache-resident; timer write-back goes through slot
            // handles, which don't need the (still-pending) commit.
            if targets.len() >= ABSORB_CHUNK {
                flush_timers(&mut self.wheel, &mut self.flows, &mut reqs, &mut targets);
            }
        }
        flush_timers(&mut self.wheel, &mut self.flows, &mut reqs, &mut targets);
        // The loop above only staged (slab + bucket list); one commit
        // probes the whole batch into the table in ascending home-slot
        // order — streaming writes over the probe array instead of one
        // random cold line per flow.
        self.flows.commit_staged();
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
        let local_port = self.pick_ephemeral(dst_ip, dst_port)?;
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
        tcb.rss_bucket = self.rss_bucket_for(dst_ip, dst_port, local_port);
        let bucket = tcb.rss_bucket;
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

    /// Transmits as much of `data` as the sliding window permits and
    /// returns the number of bytes accepted (Table 1 `sendv` semantics:
    /// "the number of bytes that were accepted and sent by the TCP stack,
    /// as constrained by correct TCP sliding window operation").
    ///
    /// The accepted prefix is copied once into a fresh refcounted storage
    /// block; the retransmit queue holds O(1) slices of that block. When
    /// the caller already owns the payload as a [`Bytes`], use
    /// [`TcpShard::send_bytes`] to skip even that copy.
    pub fn send(&mut self, now_ns: u64, flow: FlowId, data: &[u8]) -> Result<usize, StackError> {
        self.send_impl(now_ns, flow, data, None)
    }

    /// Zero-copy variant of [`TcpShard::send`]: the retransmit queue
    /// slices the caller's own storage block, so no payload byte is
    /// copied until each segment is serialized into its pool mbuf — the
    /// paper's `sendv` contract end-to-end. `Bytes` is immutable by
    /// construction, which is exactly the §3 requirement that the
    /// application not touch transmitted buffers until acknowledged.
    pub fn send_bytes(&mut self, now_ns: u64, flow: FlowId, data: &Bytes) -> Result<usize, StackError> {
        self.send_impl(now_ns, flow, data.as_slice(), Some(data))
    }

    fn send_impl(
        &mut self,
        now_ns: u64,
        flow: FlowId,
        data: &[u8],
        shared: Option<&Bytes>,
    ) -> Result<usize, StackError> {
        self.now_ns = now_ns;
        let cfg_mss = self.cfg.mss as usize;
        let tcb = self.get_mut(flow)?;
        match tcb.state {
            TcpState::Established | TcpState::CloseWait => {}
            _ => return Err(StackError::BadState),
        }
        if tcb.fin_queued {
            return Err(StackError::BadState);
        }
        let usable = tcb.usable_window() as usize;
        let accepted = usable.min(data.len());
        let mss = (tcb.mss as usize).min(cfg_mss);
        let had_flight = tcb.flight() > 0;
        let key = flow.key;
        if accepted > 0 {
            // One storage block backs every rtq entry of this call: the
            // caller's own block (send_bytes — nothing copied) or a single
            // copy of the accepted prefix. Segments slice it O(1), so
            // retransmission later needs no payload copy either.
            let block = match shared {
                Some(b) => b.slice(..accepted),
                None => {
                    self.stats.tx_rtq_blocks += 1;
                    Bytes::copy_from_slice(&data[..accepted])
                }
            };
            let mut off = 0usize;
            while off < accepted {
                let len = mss.min(accepted - off);
                let tcb = self.flows.get_mut(key).expect("validated");
                let seq = tcb.snd_nxt;
                tcb.snd_nxt = tcb.snd_nxt.wrapping_add(len as u32);
                tcb.rtq.push_back(TxSeg {
                    seq,
                    data: block.slice(off..off + len),
                    fin: false,
                    tx_time_ns: now_ns,
                    retransmitted: false,
                });
                let spec = SegmentSpec {
                    flags: TcpFlags { psh: off + len == accepted, ..TcpFlags::ACK },
                    seq,
                    ack: tcb.rcv_nxt,
                    window: tcb.advertised_window_field(),
                    mss: None,
                    wscale: None,
                    payload: &data[off..off + len],
                };
                // ACK piggybacked: clear any deferred ACK obligation.
                self.emit_segment_for_key(key, spec);
                off += len;
            }
        }
        if accepted > 0 {
            self.stats.bytes_tx += accepted as u64;
            let tcb = self.flows.get_mut(key).expect("validated");
            tcb.need_ack = false;
            let delack = tcb.delack_timer.take();
            if let Some(t) = delack {
                self.wheel.cancel(t); // The data segment carried the ACK.
            }
            if !had_flight {
                self.restart_rto(key);
            }
        } else {
            // Zero usable window: arm the persist probe so a lost window
            // update cannot deadlock the connection.
            let tcb = self.flows.get(key).expect("validated");
            if tcb.snd_wnd == 0 && tcb.persist_timer.is_none() {
                let gen = tcb.id.gen;
                let t = self.wheel.schedule(
                    self.cfg.persist_ns,
                    TimerEntry { key, gen, kind: TimerKind::Persist },
                );
                self.flows.get_mut(key).expect("validated").persist_timer = Some(t);
            }
        }
        Ok(accepted)
    }

    /// Credits consumed receive buffers back to the window (Table 1:
    /// `recv_done{handle, bytes acked}` — "advances the receive window
    /// and frees memory buffers").
    pub fn recv_done(&mut self, now_ns: u64, flow: FlowId, bytes: u32) -> Result<(), StackError> {
        self.now_ns = now_ns;
        let policy = self.cfg.ack_policy;
        let mss = self.cfg.mss;
        let tcb = self.get_mut(flow)?;
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
        match self.flows.get_mut(flow.key) {
            Some(t) if t.id.gen == flow.gen => Ok(t),
            _ => Err(StackError::BadHandle),
        }
    }

    /// Picks an ephemeral port whose reply tuple RSS-hashes back to this
    /// shard's queue (§4.4: "we simply probe the ephemeral port range").
    fn pick_ephemeral(&mut self, dst_ip: Ipv4Addr, dst_port: u16) -> Result<u16, StackError> {
        let limit = self.cfg.rss_probe_limit;
        for _ in 0..limit {
            let port = self.eph_cursor;
            self.eph_cursor = if self.eph_cursor == u16::MAX { EPH_LO } else { self.eph_cursor + 1 };
            if self.flows.contains_key(FlowId::pack(dst_ip, dst_port, port)) {
                continue;
            }
            match &self.steer {
                Some((queue, f)) if f(dst_ip, dst_port, port) != *queue => continue,
                _ => return Ok(port),
            }
        }
        Err(StackError::PortExhausted)
    }

    // ------------------------------------------------------------------
    // Input path.
    // ------------------------------------------------------------------

    /// Records a frame rejected by header parsing, distinguishing
    /// checksum failures (wire corruption) from structural damage.
    fn count_parse_drop(&mut self, err: NetError) {
        self.stats.parse_drops += 1;
        if err == NetError::BadChecksum {
            self.stats.checksum_drops += 1;
        }
    }

    /// Processes one received frame (Ethernet and up): the receive path
    /// on a batch of one — parse, run step, ACK-policy pass — without a
    /// trip through the staging arrays [`TcpShard::input_batch`] groups
    /// a larger batch in.
    pub fn input(&mut self, now_ns: u64, frame: Mbuf) {
        self.now_ns = now_ns;
        if let Some(mut seg) = self.parse(frame) {
            let slot = self.flows.slot_of(seg.key);
            self.run_segment(slot, &mut false, &mut seg);
            self.ack_policy_pass();
        }
    }

    /// Test oracle for `tests/rx_batch.rs`, not a receive path: the same
    /// parse and state machine, one frame at a time — never grouped,
    /// never coalesced, never through `fast_segment`.
    #[doc(hidden)]
    pub fn input_reference(&mut self, now_ns: u64, frame: Mbuf) {
        self.now_ns = now_ns;
        if let Some(ParsedFrame { key, hdr, payload }) = self.parse(frame) {
            let live = self.flows.contains_key(key);
            self.dispatch_tcp_segment(live, key, hdr, payload.expect("fresh from the parse"));
            self.ack_policy_pass();
        }
    }

    /// The validating parse, Ethernet and up — the one place a received
    /// frame's headers are decoded. ARP, ICMP and UDP are handled here,
    /// at once; a TCP segment comes back for its flow's run. Whatever is
    /// rejected lands on the drop counters, once.
    fn parse(&mut self, mut frame: Mbuf) -> Option<ParsedFrame> {
        let eth = EthHeader::decode(frame.data()).map_err(|e| self.count_parse_drop(e)).ok()?;
        frame.pull(EthHeader::LEN);
        match eth.ethertype {
            EtherType::Ipv4 => {}
            EtherType::Arp => {
                self.input_arp(frame);
                return None;
            }
            EtherType::Other(_) => {
                self.stats.parse_drops += 1;
                return None;
            }
        }
        let ip = Ipv4Header::decode(frame.data()).map_err(|e| self.count_parse_drop(e)).ok()?;
        // Trim link-layer padding (min-frame) to the datagram length.
        if frame.len() > ip.total_len as usize {
            frame.truncate(ip.total_len as usize);
        }
        if ip.dst != self.local_ip || frame.len() < ip.total_len as usize {
            self.stats.parse_drops += 1;
            return None;
        }
        frame.pull(Ipv4Header::LEN);
        match ip.proto {
            IpProto::Tcp => {}
            IpProto::Udp => {
                self.input_udp(ip, frame);
                return None;
            }
            IpProto::Icmp => {
                self.input_icmp(ip, frame);
                return None;
            }
            IpProto::Other(_) => {
                self.stats.parse_drops += 1;
                return None;
            }
        }
        let (hdr, hlen) = TcpHeader::decode(frame.data(), ip.src, ip.dst)
            .map_err(|e| self.count_parse_drop(e))
            .ok()?;
        frame.pull(hlen);
        self.stats.rx_segments += 1;
        let key = FlowId::pack(ip.src, hdr.src_port, hdr.dst_port);
        Some(ParsedFrame { key, hdr, payload: Some(frame) })
    }

    fn input_arp(&mut self, frame: Mbuf) {
        let Ok(pkt) = ArpPacket::decode(frame.data()) else {
            self.stats.parse_drops += 1;
            return;
        };
        // Learn the sender in all cases.
        let ready = self.arp.insert(pkt.sender_ip, pkt.sender_mac);
        for p in ready {
            self.transmit_l3(p.ip, p.l3_bytes);
        }
        if pkt.op == ArpOp::Request && pkt.target_ip == self.local_ip {
            let reply = pkt.reply_to(self.local_mac);
            self.emit_arp(reply, pkt.sender_mac);
        }
    }

    fn input_icmp(&mut self, ip: Ipv4Header, mut frame: Mbuf) {
        let hdr = match IcmpHeader::decode(frame.data()) {
            Ok(hdr) => hdr,
            Err(e) => {
                self.count_parse_drop(e);
                return;
            }
        };
        if hdr.icmp_type == IcmpType::EchoRequest {
            self.stats.icmp_echo += 1;
            // Build the reply in place: overwrite the 8-byte ICMP header
            // inside the RX mbuf and leave the echoed payload untouched,
            // then prepend IP + Ethernet into the headroom the pulled RX
            // headers left behind. No payload copy, no staging buffer.
            let reply = hdr.reply();
            let (h, t) = frame.data_mut().split_at_mut(IcmpHeader::LEN);
            reply.encode(h, t);
            self.transmit_l4_mbuf(ip.src, IpProto::Icmp, frame);
        }
    }

    fn input_udp(&mut self, ip: Ipv4Header, mut frame: Mbuf) {
        let hdr = match UdpHeader::decode(frame.data(), ip.src, ip.dst) {
            Ok(hdr) => hdr,
            Err(e) => {
                self.count_parse_drop(e);
                return;
            }
        };
        frame.truncate(hdr.len as usize);
        frame.pull(UdpHeader::LEN);
        self.stats.udp_rx += 1;
        self.udp.push(UdpDatagram {
            src_ip: ip.src,
            src_port: hdr.src_port,
            dst_port: hdr.dst_port,
            mbuf: frame,
        });
    }

    /// Sends a UDP datagram.
    pub fn udp_send(
        &mut self,
        now_ns: u64,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        self.now_ns = now_ns;
        let len = (UdpHeader::LEN + payload.len()) as u16;
        let hdr = UdpHeader { src_port, dst_port, len };
        self.stats.udp_tx += 1;
        if self.arp.lookup(dst_ip).is_some() {
            // Resolved next hop: one pool mbuf, payload written once into
            // the tail, UDP/IP/Eth headers prepended in place. The
            // checksum is fed from the caller's payload slice, so the
            // wire bytes match the old staging-Vec construction exactly.
            let Some(mut m) = self.pool.alloc_with_headroom(TX_HEADROOM) else {
                // The Vec-chain path consumed an IP ident before it
                // discovered pool exhaustion; keep consuming one so wire
                // bytes after recovery stay identical.
                self.ip_ident = self.ip_ident.wrapping_add(1);
                self.stats.pool_drops += 1;
                return;
            };
            m.extend_from_slice(payload);
            if !payload.is_empty() {
                self.stats.tx_payload_writes += 1;
            }
            hdr.encode(m.prepend(UdpHeader::LEN), self.local_ip, dst_ip, payload);
            self.transmit_l4_mbuf(dst_ip, IpProto::Udp, m);
        } else {
            // Cold ARP entry: serialize once into a transient buffer and
            // park it until the next hop resolves (no pool mbuf needed).
            let ip = self.next_ipv4(IpProto::Udp, dst_ip, len as usize);
            self.stats.tx_transient_allocs += 1;
            let mut l3 = vec![0u8; ip.total_len as usize];
            l3[Ipv4Header::LEN + UdpHeader::LEN..].copy_from_slice(payload);
            if !payload.is_empty() {
                self.stats.tx_payload_writes += 1;
            }
            let (ih, rest) = l3.split_at_mut(Ipv4Header::LEN);
            let (uh, pl) = rest.split_at_mut(UdpHeader::LEN);
            hdr.encode(uh, self.local_ip, dst_ip, pl);
            ip.encode(ih);
            self.park_l3(dst_ip, l3.into());
        }
    }

    /// State-machine dispatch for one validated TCP segment; `live` says
    /// whether its flow is in the table.
    fn dispatch_tcp_segment(&mut self, live: bool, key: u64, hdr: TcpHeader, payload: Mbuf) {
        if live {
            self.segment_for_flow(key, hdr, payload);
        } else {
            self.segment_no_flow(key, hdr, payload);
        }
    }

    /// Processes a whole polled batch of frames (DESIGN.md §5j): (1)
    /// each frame takes the validating parse in arrival order — non-TCP
    /// frames are handled there, TCP segments are staged and chained
    /// onto their flow's group; (2) each same-flow run is processed
    /// back-to-back, in order of each flow's first arrival, against a
    /// TCB resolved to its slab slot once per run; (3) one ACK-policy
    /// pass, so Immediate/Delayed emit at most one pure ACK per flow per
    /// batch (EndOfCycle coalesces at `end_cycle` regardless). Against
    /// frame-at-a-time input, cross-flow segment order and that ACK
    /// coalescing are the only observable differences; per-flow
    /// application byte streams and data-bearing wire frames are
    /// identical.
    pub fn input_batch(&mut self, now_ns: u64, frames: &mut Vec<Mbuf>) {
        if frames.len() == 1 {
            return self.input(now_ns, frames.pop().expect("one frame"));
        }
        self.now_ns = now_ns;
        let mut segs = std::mem::take(&mut self.batch_segs);
        let mut groups = std::mem::take(&mut self.batch_groups);
        let mut next = std::mem::take(&mut self.batch_next);
        debug_assert!(segs.is_empty() && groups.is_empty() && next.is_empty());
        for frame in frames.drain(..) {
            let Some(seg) = self.parse(frame) else { continue };
            // The group list is one cache line per ~5 flows and a batch
            // holds at most a few dozen distinct flows, so the linear
            // scan is cheaper than sorting; chains keep arrival order.
            let idx = segs.len() as u32;
            match groups.iter_mut().find(|g| g.0 == seg.key) {
                Some(g) => {
                    next[g.2 as usize] = idx;
                    g.2 = idx;
                }
                None => groups.push((seg.key, idx, idx)),
            }
            next.push(u32::MAX);
            segs.push(seg);
        }
        for &(key, head, _) in &groups {
            let mut slot = self.flows.slot_of(key);
            let mut run_acked = false;
            let mut cur = head;
            while cur != u32::MAX {
                let seg = &mut segs[cur as usize];
                cur = next[cur as usize];
                if !self.run_segment(slot, &mut run_acked, seg) && cur != u32::MAX {
                    slot = self.flows.slot_of(key);
                }
            }
        }
        segs.clear();
        groups.clear();
        next.clear();
        self.batch_segs = segs;
        self.batch_groups = groups;
        self.batch_next = next;
        self.ack_policy_pass();
    }

    /// The run step for one segment of a same-flow run whose TCB sits at
    /// `slot` (if the flow is live): the fast path for in-order
    /// Established data and no-op ACKs, else the full state machine.
    /// Returns false when the state machine ran — it may have created or
    /// destroyed the flow, so the caller re-resolves `slot` before the
    /// run's next segment.
    fn run_segment(&mut self, slot: Option<u32>, run_acked: &mut bool, seg: &mut ParsedFrame) -> bool {
        let payload = seg.payload.take().expect("each segment runs once");
        let plen = payload.len() as u32;
        if let Some(idx) = slot {
            if self.fast_segment(idx, seg.key, &seg.hdr, plen, run_acked) {
                if plen > 0 {
                    let ev = self.flows.slot_mut(idx).deliver(payload);
                    self.stats.bytes_rx += plen as u64;
                    self.stats.rx_pool_outstanding += 1;
                    self.events.push(ev);
                }
                return true;
            }
        }
        self.dispatch_tcp_segment(slot.is_some(), seg.key, seg.hdr, payload);
        false
    }

    /// The per-call ACK policy: Immediate flushes, Delayed applies the
    /// every-second-segment rule with a piggyback timeout, EndOfCycle
    /// waits for `end_cycle`.
    fn ack_policy_pass(&mut self) {
        match self.cfg.ack_policy {
            AckPolicy::Immediate => self.flush_acks(),
            AckPolicy::Delayed(delay_ns) => self.delayed_ack_pass(delay_ns),
            AckPolicy::EndOfCycle => {}
        }
    }

    /// Fast-path eligibility + ACK-side handling for one segment against
    /// the TCB at `idx`. Returns true when the segment is
    /// fully handled modulo payload delivery (which the caller performs
    /// to keep the mbuf move out of this borrow): an Established
    /// segment, plain ACK flags, an acknowledgment that is a no-op
    /// under `process_ack` (not new; if equal to `snd_una`, the window
    /// is unchanged and nothing is in flight), exactly in-order data
    /// within the advertised window, no reassembly backlog, and no
    /// parked FIN. Everything else takes the general state machine.
    fn fast_segment(&mut self, idx: u32, key: u64, hdr: &TcpHeader, plen: u32, run_acked: &mut bool) -> bool {
        let tcb = self.flows.slot_mut(idx);
        let f = &hdr.flags;
        if tcb.state != TcpState::Established || f.syn || f.fin || f.rst || !f.ack {
            return false;
        }
        // ACK side must be a no-op: an old ACK, or a duplicate at
        // snd_una with the window byte-identical and nothing in flight
        // (so no dup-ack counting and no window-update event).
        if tcb.ack_is_new(hdr.ack) {
            return false;
        }
        if hdr.ack == tcb.snd_una
            && ((hdr.window as u32) << tcb.snd_wscale != tcb.snd_wnd || tcb.flight() != 0)
        {
            return false;
        }
        if hdr.seq != tcb.rcv_nxt || tcb.peer_fin.is_some() || !tcb.ooo.is_empty() {
            return false;
        }
        if plen == 0 {
            // Pure no-op ACK at rcv_nxt: nothing to do, nothing to send.
            return true;
        }
        if plen > tcb.advertised_window() {
            return false; // Needs the trimming path.
        }
        // In-order data: mark the flow's deferred ACK (once per run —
        // the `pending_acks` membership scan amortizes over the batch).
        tcb.need_ack = true;
        if !*run_acked {
            if !self.pending_acks.contains(&key) {
                self.pending_acks.push(key);
            }
            *run_acked = true;
        }
        true
    }

    /// A segment for a tuple with no PCB: passive open or RST.
    fn segment_no_flow(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        if hdr.flags.rst {
            return; // Never respond to a RST.
        }
        let src_ip = remote_ip(key);
        if hdr.flags.syn && !hdr.flags.ack && self.listeners.contains(&hdr.dst_port) {
            // Stateless path first: under a challenge (global knob or a
            // filter-policy syn-challenge verdict for this tuple) the
            // SYN-ACK carries a cookie ISS and *nothing* is allocated —
            // no TCB, no timer, no retransmit state.
            if self.cookie_mode(src_ip, hdr.dst_port) {
                self.send_cookie_synack(key, &hdr);
                return;
            }
            // Half-open backlog bound: past it, drop the SYN silently
            // (the peer's SYN retransmit retries once slots drain)
            // rather than let a flood pin unbounded TCB-slab slots.
            if self.synrcvd_count >= self.cfg.syn_backlog {
                self.stats.synrcvd_overflow_drops += 1;
                return;
            }
            // Passive open: create the PCB and answer SYN-ACK. The knock
            // event is raised when the handshake completes (the paper's
            // knock reports "a remotely initiated connection was opened").
            let gen = self.next_gen;
            self.next_gen += 1;
            let id = FlowId { key, gen };
            self.iss = self.iss.wrapping_add(64_000);
            let iss = self.iss;
            let mut tcb = self.new_tcb(id, 0, TcpState::SynRcvd, iss);
            tcb.open_time_ns = self.now_ns;
            tcb.rcv_nxt = hdr.seq.wrapping_add(1);
            tcb.snd_wnd = hdr.window as u32;
            if let Some(mss) = hdr.mss {
                tcb.mss = tcb.mss.min(mss as u32);
            }
            // Window scaling is effective only if both ends offer it.
            if let Some(ws) = hdr.wscale {
                if self.cfg.window_scale > 0 {
                    tcb.snd_wscale = ws;
                    tcb.rcv_wscale = self.cfg.window_scale;
                }
            }
            tcb.snd_nxt = iss.wrapping_add(1);
            let spec = SegmentSpec {
                flags: TcpFlags::SYN_ACK,
                seq: iss,
                ack: tcb.rcv_nxt,
                window: tcb.advertised_window().min(65_535) as u16,
                mss: Some(self.cfg.mss as u16),
                wscale: if tcb.rcv_wscale > 0 { Some(tcb.rcv_wscale) } else { None },
                payload: &[],
            };
            self.emit_segment_for(&tcb, spec);
            let t = self.wheel.schedule(
                self.cfg.syn_rto_ns,
                TimerEntry { key, gen, kind: TimerKind::Rto },
            );
            tcb.rto_timer = Some(t);
            self.synrcvd_count += 1;
            tcb.rss_bucket = self.rss_bucket_for(src_ip, hdr.src_port, hdr.dst_port);
            let bucket = tcb.rss_bucket;
            self.flows.insert_in_bucket(key, bucket, tcb);
            return;
        }
        // A bare ACK to a listened port may be the completing leg of a
        // stateless cookie handshake: validate it and, only then, build
        // the TCB the SYN-ACK deliberately did not allocate.
        if hdr.flags.ack
            && !hdr.flags.syn
            && self.listeners.contains(&hdr.dst_port)
            && self.cookie_mode(src_ip, hdr.dst_port)
        {
            if self.try_cookie_accept(key, &hdr, payload) {
                return;
            }
            // Forged, expired, or stray: fall through to the RST below
            // (the ACK arm never reads the payload length).
            self.stats.syn_cookies_rejected += 1;
            self.stats.no_listener += 1;
            self.raw_rst(hdr.dst_port, hdr.src_port, hdr.ack, 0, true, src_ip);
            return;
        }
        // No listener / half-open garbage: RST per RFC 793 §3.4 — with
        // an ACK, our seq is the acked value; without one, seq 0 and an
        // ack covering the segment's full sequence span (payload plus
        // one for SYN and one for FIN).
        self.stats.no_listener += 1;
        let (seq, ack) = if hdr.flags.ack {
            (hdr.ack, 0)
        } else {
            (
                0,
                hdr.seq.wrapping_add(
                    payload.len() as u32 + hdr.flags.syn as u32 + hdr.flags.fin as u32,
                ),
            )
        };
        self.raw_rst(hdr.dst_port, hdr.src_port, seq, ack, hdr.flags.ack, src_ip);
    }

    /// True when a SYN from `src_ip` to `dst_port` must be answered
    /// statelessly: the global `syn_cookies` knob, or a filter-policy
    /// syn-challenge verdict for the tuple (the same policy snapshot the
    /// NIC classifies with, so both layers agree).
    fn cookie_mode(&self, src_ip: Ipv4Addr, dst_port: u16) -> bool {
        self.cfg.syn_cookies
            || self
                .filter_policy
                .as_ref()
                .is_some_and(|p| p.syn_challenged(src_ip, dst_port))
    }

    /// Answers a SYN with a cookie-ISS SYN-ACK. Stateless by design: the
    /// only thing that outlives this call is the emitted frame. The MSS
    /// the peer offered survives as a 2-bit class inside the cookie; no
    /// window scaling is negotiated (nowhere to remember the shift).
    fn send_cookie_synack(&mut self, key: u64, hdr: &TcpHeader) {
        let bucket = self.now_ns / self.cfg.syn_cookie_bucket_ns;
        let peer_mss = hdr.mss.unwrap_or(536).min(self.cfg.mss as u16);
        let class = syncookie::mss_class(peer_mss);
        let cookie = syncookie::encode(self.cookie_secret, key, hdr.seq, bucket, class);
        self.stats.syn_cookies_sent += 1;
        let spec = SegmentSpec {
            flags: TcpFlags::SYN_ACK,
            seq: cookie,
            ack: hdr.seq.wrapping_add(1),
            window: self.cfg.recv_window.min(65_535) as u16,
            mss: Some(self.cfg.mss as u16),
            wscale: None,
            payload: &[],
        };
        self.build_and_queue_tcp(remote_ip(key), hdr.dst_port, hdr.src_port, spec);
    }

    /// Validates the cookie implied by a bare ACK (`cookie = ack - 1`,
    /// `peer_iss = seq - 1`) and, on success, materializes the
    /// connection directly in `Established` — the TCB's first allocation
    /// happens here, after the peer proved the round trip. Returns false
    /// (consuming the payload) when the cookie does not verify.
    fn try_cookie_accept(&mut self, key: u64, hdr: &TcpHeader, payload: Mbuf) -> bool {
        let bucket_now = self.now_ns / self.cfg.syn_cookie_bucket_ns;
        let cookie = hdr.ack.wrapping_sub(1);
        let peer_iss = hdr.seq.wrapping_sub(1);
        let Some(mss) =
            syncookie::validate(self.cookie_secret, key, peer_iss, cookie, bucket_now)
        else {
            return false;
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        let id = FlowId { key, gen };
        let mut tcb = self.new_tcb(id, 0, TcpState::Established, cookie);
        tcb.open_time_ns = self.now_ns;
        tcb.snd_una = cookie.wrapping_add(1);
        tcb.snd_nxt = cookie.wrapping_add(1);
        tcb.rcv_nxt = hdr.seq;
        tcb.snd_wnd = hdr.window as u32;
        tcb.mss = tcb.mss.min(mss as u32);
        let (src_ip, src_port) = (remote_ip(key), hdr.src_port);
        self.stats.conns_accepted += 1;
        self.stats.syn_cookies_accepted += 1;
        self.events.push(TcpEvent::Knock { flow: id, src_ip, src_port });
        tcb.rss_bucket = self.rss_bucket_for(src_ip, src_port, hdr.dst_port);
        let bucket = tcb.rss_bucket;
        self.flows.insert_in_bucket(key, bucket, tcb);
        // Data or FIN piggybacked on the handshake-completing ACK.
        if !payload.is_empty() || hdr.flags.fin {
            self.on_established_family(key, *hdr, payload);
        }
        true
    }

    /// Full state machine for a segment on an existing flow.
    fn segment_for_flow(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let state = self.flows.get(key).expect("checked").state;
        if hdr.flags.rst {
            self.stats.rst_rx += 1;
            // Accept the RST if it is plausibly in-window (simplified).
            let notify = matches!(
                state,
                TcpState::Established
                    | TcpState::FinWait1
                    | TcpState::FinWait2
                    | TcpState::Closing
                    | TcpState::CloseWait
                    | TcpState::LastAck
                    | TcpState::SynRcvd
            );
            let tcb = self.flows.get(key).expect("checked");
            let (id, cookie) = (tcb.id, tcb.cookie);
            if notify {
                self.events.push(TcpEvent::Dead {
                    flow: id,
                    cookie,
                    reason: DeadReason::PeerReset,
                });
            } else if state == TcpState::SynSent {
                self.events.push(TcpEvent::Connected { flow: id, cookie, ok: false });
            }
            self.destroy(key);
            return;
        }
        match state {
            TcpState::SynSent => self.on_syn_sent(key, hdr),
            TcpState::SynRcvd => self.on_syn_rcvd(key, hdr, payload),
            TcpState::TimeWait => {
                // Re-ACK anything that arrives in TIME_WAIT.
                self.mark_ack(key);
            }
            TcpState::Closed => {}
            _ => self.on_established_family(key, hdr, payload),
        }
    }

    fn on_syn_sent(&mut self, key: u64, hdr: TcpHeader) {
        let tcb = self.flows.get_mut(key).expect("checked");
        if !(hdr.flags.syn && hdr.flags.ack) {
            return; // Simultaneous open unsupported; ignore bare SYN.
        }
        if hdr.ack != tcb.snd_nxt {
            // Bogus ACK of our SYN: reset per RFC 793.
            let (seq, ack) = (hdr.ack, 0);
            let (dst_ip, sp, dp) = (tcb.remote_ip, tcb.local_port, tcb.remote_port);
            self.raw_rst(sp, dp, seq, ack, true, dst_ip);
            return;
        }
        tcb.snd_una = hdr.ack;
        tcb.rcv_nxt = hdr.seq.wrapping_add(1);
        tcb.snd_wnd = hdr.window as u32;
        if let Some(mss) = hdr.mss {
            tcb.mss = tcb.mss.min(mss as u32);
        }
        if let Some(ws) = hdr.wscale {
            if self.cfg.window_scale > 0 {
                tcb.snd_wscale = ws;
                tcb.rcv_wscale = self.cfg.window_scale;
            }
        }
        if tcb.retries == 0 {
            let sample = self.now_ns.saturating_sub(tcb.open_time_ns).max(1);
            let cfg = self.cfg.clone();
            tcb.rtt_sample(sample, &cfg);
        }
        tcb.state = TcpState::Established;
        tcb.retries = 0;
        let (id, cookie) = (tcb.id, tcb.cookie);
        if let Some(t) = tcb.rto_timer.take() {
            self.wheel.cancel(t);
        }
        self.stats.conns_opened += 1;
        self.events.push(TcpEvent::Connected { flow: id, cookie, ok: true });
        // Complete the handshake immediately (not deferred): the peer's
        // accept path is waiting on this ACK.
        self.emit_bare_ack(key);
    }

    fn on_syn_rcvd(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let mss = self.cfg.mss as u16;
        let tcb = self.flows.get_mut(key).expect("checked");
        if hdr.flags.syn {
            // SYN retransmission from the peer: re-send SYN-ACK.
            let (seq, ack) = (tcb.snd_una, tcb.rcv_nxt);
            // SYN-ACK windows are never scaled (RFC 7323).
            let window = tcb.advertised_window().min(65_535) as u16;
            let wscale = if tcb.rcv_wscale > 0 { Some(tcb.rcv_wscale) } else { None };
            let spec = SegmentSpec {
                flags: TcpFlags::SYN_ACK,
                seq,
                ack,
                window,
                mss: Some(mss),
                wscale,
                payload: &[],
            };
            self.emit_segment_for_key(key, spec);
            return;
        }
        if !hdr.flags.ack || hdr.ack != tcb.snd_nxt {
            return;
        }
        tcb.snd_una = hdr.ack;
        tcb.snd_wnd = hdr.window as u32;
        if tcb.retries == 0 {
            let sample = self.now_ns.saturating_sub(tcb.open_time_ns).max(1);
            let cfg = self.cfg.clone();
            tcb.rtt_sample(sample, &cfg);
        }
        tcb.state = TcpState::Established;
        tcb.retries = 0;
        let (id, src_ip, src_port) = (tcb.id, tcb.remote_ip, tcb.remote_port);
        if let Some(t) = tcb.rto_timer.take() {
            self.wheel.cancel(t);
        }
        self.stats.conns_accepted += 1;
        self.synrcvd_count -= 1;
        self.events.push(TcpEvent::Knock { flow: id, src_ip, src_port });
        // Piggybacked payload on the handshake ACK is possible.
        if !payload.is_empty() || hdr.flags.fin {
            self.on_established_family(key, hdr, payload);
        }
    }

    /// ESTABLISHED, FIN_WAIT_1/2, CLOSING, CLOSE_WAIT, LAST_ACK.
    fn on_established_family(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let plen = payload.len() as u32;
        if hdr.flags.ack {
            self.process_ack(key, hdr.ack, hdr.window);
            if !self.flows.contains_key(key) {
                return; // ACK processing may finish LAST_ACK teardown.
            }
        }
        if plen > 0 {
            self.process_payload(key, hdr.seq, payload);
        }
        if hdr.flags.fin {
            // The FIN occupies the sequence position after its payload.
            self.process_fin(key, hdr.seq.wrapping_add(plen));
        }
        if plen == 0 && !hdr.flags.fin {
            // RFC 793: an otherwise-unacceptable segment (e.g. a
            // zero-window probe at snd_nxt-1) elicits an ACK restating
            // our current state — this is what resynchronizes a peer
            // whose window-update ACK was lost.
            if let Some(tcb) = self.flows.get(key) {
                if hdr.seq != tcb.rcv_nxt {
                    self.mark_ack(key);
                }
            }
        }
        // An out-of-order drain (or this segment) may have advanced
        // rcv_nxt up to a previously parked FIN.
        if let Some(tcb) = self.flows.get(key) {
            if tcb.peer_fin == Some(tcb.rcv_nxt) {
                self.consume_fin(key);
            }
        }
    }

    fn process_ack(&mut self, key: u64, ack: u32, window: u16) {
        let now = self.now_ns;
        let cfg = self.cfg.clone();
        let tcb = self.flows.get_mut(key).expect("checked");
        let old_wnd = tcb.snd_wnd;
        let old_usable = tcb.usable_window();
        if tcb.ack_is_new(ack) {
            tcb.snd_una = ack;
            let (bytes, sample) = tcb.reap_rtq(ack, now);
            if let Some(s) = sample {
                tcb.rtt_sample(s, &cfg);
            }
            if let Some(recover) = tcb.recover {
                if !seq_lt(ack, recover) {
                    tcb.recover = None;
                    tcb.cwnd = tcb.ssthresh;
                }
            }
            if let Some((start, point)) = tcb.recovery_episode {
                if !seq_lt(ack, point) {
                    tcb.recovery_episode = None;
                    let dur = now.saturating_sub(start);
                    self.stats.max_recovery_ns = self.stats.max_recovery_ns.max(dur);
                }
            }
            let tcb = self.flows.get_mut(key).expect("checked");
            tcb.cwnd_on_ack(bytes);
            tcb.dup_acks = 0;
            tcb.retries = 0;
            tcb.snd_wnd = (window as u32) << tcb.snd_wscale;
            // FIN acknowledged?
            let fin_acked = tcb.fin_queued && tcb.all_sent_acked();
            let state = tcb.state;
            let (id, cookie) = (tcb.id, tcb.cookie);
            let new_usable = tcb.usable_window();
            let persist = tcb.persist_timer.take();
            // Restart or clear the retransmission timer.
            self.restart_rto(key);
            if let Some(t) = persist {
                self.wheel.cancel(t);
            }
            if bytes > 0 || new_usable > old_usable {
                self.events.push(TcpEvent::Sent {
                    flow: id,
                    cookie,
                    bytes_acked: bytes,
                    window: new_usable,
                });
            }
            if fin_acked {
                match state {
                    TcpState::FinWait1 => {
                        self.flows.get_mut(key).expect("live").state = TcpState::FinWait2;
                    }
                    TcpState::Closing => self.enter_time_wait(key),
                    TcpState::LastAck => self.destroy(key),
                    _ => {}
                }
            }
        } else if ack == tcb.snd_una {
            tcb.snd_wnd = (window as u32) << tcb.snd_wscale;
            if tcb.flight() > 0 && (window as u32) << tcb.snd_wscale == old_wnd {
                tcb.dup_acks += 1;
                if tcb.dup_acks == 3 {
                    tcb.cwnd_on_fast_retransmit();
                    if tcb.recovery_episode.is_none() {
                        tcb.recovery_episode = Some((now, tcb.snd_nxt));
                    }
                    self.stats.retransmits += 1;
                    self.stats.fast_retransmits += 1;
                    self.retransmit_front(key);
                }
            } else if (window as u32) << tcb.snd_wscale > old_wnd {
                // Pure window update.
                let tcb = self.flows.get(key).expect("live");
                let (id, cookie, usable) = (tcb.id, tcb.cookie, tcb.usable_window());
                if usable > old_usable {
                    self.events.push(TcpEvent::Sent {
                        flow: id,
                        cookie,
                        bytes_acked: 0,
                        window: usable,
                    });
                }
                let persist = self.flows.get_mut(key).expect("live").persist_timer.take();
                if let Some(t) = persist {
                    self.wheel.cancel(t);
                }
            }
        }
    }

    fn process_payload(&mut self, key: u64, seq: u32, mut payload: Mbuf) {
        let tcb = self.flows.get_mut(key).expect("checked");
        let len = payload.len() as u32;
        let rcv_nxt = tcb.rcv_nxt;
        let wnd = tcb.advertised_window();
        let end = seq.wrapping_add(len);
        let win_end = rcv_nxt.wrapping_add(wnd);
        tcb.need_ack = true;
        self.mark_ack(key);
        let tcb = self.flows.get_mut(key).expect("checked");
        if seq_le(end, rcv_nxt) {
            // Entirely old: pure duplicate, just the ACK.
            return;
        }
        if !seq_lt(seq, win_end) {
            // Entirely beyond the window: drop.
            return;
        }
        // Trim the front if it overlaps already-received data.
        let mut seg_seq = seq;
        if seq_lt(seg_seq, rcv_nxt) {
            let skip = rcv_nxt.wrapping_sub(seg_seq);
            payload.pull(skip as usize);
            seg_seq = rcv_nxt;
        }
        // Trim the tail if it pokes past the window.
        let seg_end = seg_seq.wrapping_add(payload.len() as u32);
        if seq_lt(win_end, seg_end) {
            let keep = win_end.wrapping_sub(seg_seq) as usize;
            payload.truncate(keep);
        }
        if payload.is_empty() {
            return;
        }
        if seg_seq == rcv_nxt {
            // In-order: deliver a refcounted view of the mbuf's payload
            // window — zero copies — hold the buffer until `recv_done`
            // credits it, then drain any contiguous out-of-order
            // segments.
            let n = payload.len() as u64;
            let ev = tcb.deliver(payload);
            self.stats.bytes_rx += n;
            self.stats.rx_pool_outstanding += 1;
            self.events.push(ev);
            self.drain_ooo(key);
        } else {
            // Out of order: buffer the trimmed mbuf itself, keyed by
            // start sequence — no staging copy, and none later on drain
            // (coalescing conservatively: keep the first buffer seen for
            // any given start).
            if !tcb.ooo.contains_key(&seg_seq) {
                tcb.ooo_bytes += payload.len() as u32;
                tcb.ooo.insert(seg_seq, payload);
                self.stats.rx_pool_outstanding += 1;
            }
        }
    }

    fn drain_ooo(&mut self, key: u64) {
        loop {
            let tcb = self.flows.get_mut(key).expect("checked");
            let rcv_nxt = tcb.rcv_nxt;
            // Find a buffered segment that starts at or before rcv_nxt.
            let Some((&seg_seq, _)) = tcb
                .ooo
                .iter()
                .find(|(&s, d)| seq_le(s, rcv_nxt) && seq_lt(rcv_nxt, s.wrapping_add(d.len() as u32)) || s == rcv_nxt)
            else {
                break;
            };
            let mut m = tcb.ooo.remove(&seg_seq).expect("present");
            tcb.ooo_bytes -= m.len() as u32;
            let skip = rcv_nxt.wrapping_sub(seg_seq) as usize;
            if skip >= m.len() {
                // Entirely stale: the buffer goes straight back to its
                // owning pool.
                self.stats.rx_pool_outstanding -= 1;
                continue;
            }
            // Trim the already-received prefix in place (a window move,
            // not a copy) and deliver the rest as a view of the buffered
            // mbuf itself — the drain path copies nothing.
            m.pull(skip);
            // The mbuf moves from the reassembly map to the held queue:
            // `rx_pool_outstanding` is unchanged.
            self.stats.bytes_rx += m.len() as u64;
            let ev = tcb.deliver(m);
            self.events.push(ev);
        }
        // Clean any now-stale buffered segments.
        let tcb = self.flows.get_mut(key).expect("checked");
        let rcv_nxt = tcb.rcv_nxt;
        let stale: Vec<u32> = tcb
            .ooo
            .iter()
            .filter(|(&s, d)| seq_le(s.wrapping_add(d.len() as u32), rcv_nxt))
            .map(|(&s, _)| s)
            .collect();
        for s in stale {
            let d = tcb.ooo.remove(&s).expect("present");
            tcb.ooo_bytes -= d.len() as u32;
            self.stats.rx_pool_outstanding -= 1;
        }
    }

    fn process_fin(&mut self, key: u64, fin_seq: u32) {
        let tcb = self.flows.get_mut(key).expect("checked");
        if fin_seq != tcb.rcv_nxt {
            // Data still missing before the FIN; remember it.
            tcb.peer_fin = Some(fin_seq);
            return;
        }
        self.consume_fin(key);
    }

    fn consume_fin(&mut self, key: u64) {
        let tcb = self.flows.get_mut(key).expect("checked");
        tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(1);
        tcb.peer_fin = None;
        tcb.need_ack = true;
        let (id, cookie, state) = (tcb.id, tcb.cookie, tcb.state);
        self.mark_ack(key);
        match state {
            TcpState::Established => {
                self.flows.get_mut(key).expect("live").state = TcpState::CloseWait;
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
            }
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.flows.get_mut(key).expect("live").state = TcpState::Closing;
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
            }
            TcpState::FinWait2 => {
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
                self.enter_time_wait(key);
            }
            _ => {}
        }
    }

    fn enter_time_wait(&mut self, key: u64) {
        let gen = self.flows.get(key).expect("live").id.gen;
        // Cancel data timers; start the quarantine clock.
        let (rto, persist) = {
            let tcb = self.flows.get_mut(key).expect("live");
            tcb.state = TcpState::TimeWait;
            (tcb.rto_timer.take(), tcb.persist_timer.take())
        };
        if let Some(t) = rto {
            self.wheel.cancel(t);
        }
        if let Some(t) = persist {
            self.wheel.cancel(t);
        }
        let t = self.wheel.schedule(
            self.cfg.time_wait_ns,
            TimerEntry { key, gen, kind: TimerKind::TimeWait },
        );
        self.flows.get_mut(key).expect("live").timewait_timer = Some(t);
    }

    /// A fresh PCB, on the queues a destroyed flow left behind if any.
    fn new_tcb(&mut self, id: FlowId, cookie: u64, state: TcpState, iss: u32) -> Tcb {
        let mut tcb = Tcb::new(&self.cfg, id, cookie, state, iss);
        if let Some((rtq, rx_held)) = self.spare_queues.pop() {
            tcb.rtq = rtq;
            tcb.rx_held = rx_held;
        }
        tcb
    }

    /// Removes a flow and cancels its timers. Dropping the TCB releases
    /// any receive buffers it still held (uncredited deliveries and
    /// out-of-order segments) back to their pools.
    fn destroy(&mut self, key: u64) {
        if let Some(mut tcb) = self.flows.remove(key) {
            self.stats.rx_pool_outstanding -= (tcb.rx_held.len() + tcb.ooo.len()) as u64;
            if tcb.state == TcpState::SynRcvd {
                self.synrcvd_count -= 1;
            }
            for t in [
                tcb.rto_timer,
                tcb.persist_timer,
                tcb.timewait_timer,
                tcb.delack_timer,
            ]
            .into_iter()
            .flatten()
            {
                self.wheel.cancel(t);
            }
            tcb.rtq.clear();
            tcb.rx_held.clear();
            if tcb.rtq.capacity() + tcb.rx_held.capacity() > 0 {
                self.spare_queues.push((tcb.rtq, tcb.rx_held));
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Advances the timing wheel to `now_ns`, firing retransmissions,
    /// probes, and TIME_WAIT expiries (Fig 1b step 5).
    pub fn advance_timers(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        let mut fired = std::mem::take(&mut self.fired_scratch);
        self.wheel.advance(now_ns, |e| fired.push(e));
        for e in fired.drain(..) {
            let Some(tcb) = self.flows.get_mut(e.key) else { continue };
            if tcb.id.gen != e.gen {
                continue;
            }
            match e.kind {
                TimerKind::TimeWait => {
                    self.flows.get_mut(e.key).expect("live").timewait_timer = None;
                    self.destroy(e.key);
                }
                TimerKind::Persist => {
                    self.flows.get_mut(e.key).expect("live").persist_timer = None;
                    self.persist_fire(e.key);
                }
                TimerKind::Rto => {
                    self.flows.get_mut(e.key).expect("live").rto_timer = None;
                    self.rto_fire(e.key);
                }
                TimerKind::DelAck => {
                    self.flows.get_mut(e.key).expect("live").delack_timer = None;
                    self.emit_bare_ack(e.key);
                }
            }
        }
        self.fired_scratch = fired;
    }

    fn persist_fire(&mut self, key: u64) {
        let tcb = self.flows.get(key).expect("live");
        if tcb.snd_wnd > 0 {
            return; // Window reopened; probe no longer needed.
        }
        let gen = tcb.id.gen;
        // Zero-window probe: an empty segment at snd_nxt-1, which the
        // peer must answer with an ACK restating its window.
        let spec = SegmentSpec::bare(
            TcpFlags::ACK,
            tcb.snd_nxt.wrapping_sub(1),
            tcb.rcv_nxt,
            tcb.advertised_window_field(),
        );
        self.emit_segment_for_key(key, spec);
        self.stats.persist_probes += 1;
        let t = self.wheel.schedule(
            self.cfg.persist_ns,
            TimerEntry { key, gen, kind: TimerKind::Persist },
        );
        self.flows.get_mut(key).expect("live").persist_timer = Some(t);
    }

    fn rto_fire(&mut self, key: u64) {
        let cfg = self.cfg.clone();
        let now = self.now_ns;
        self.stats.rto_fires += 1;
        let tcb = self.flows.get_mut(key).expect("live");
        tcb.retries += 1;
        if tcb.recovery_episode.is_none() {
            tcb.recovery_episode = Some((now, tcb.snd_nxt));
        }
        if tcb.retries > cfg.max_retries {
            let (id, cookie, state) = (tcb.id, tcb.cookie, tcb.state);
            if state == TcpState::SynSent {
                self.events.push(TcpEvent::Connected { flow: id, cookie, ok: false });
            } else {
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::TimedOut });
            }
            self.destroy(key);
            return;
        }
        match tcb.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                let syn_ack = tcb.state == TcpState::SynRcvd;
                let (seq, ack) = (tcb.snd_una, tcb.rcv_nxt);
                let window = tcb.advertised_window().min(65_535) as u16;
                let gen = tcb.id.gen;
                let retries = tcb.retries;
                let spec = SegmentSpec {
                    flags: if syn_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN },
                    seq,
                    ack: if syn_ack { ack } else { 0 },
                    window,
                    mss: Some(cfg.mss as u16),
                    wscale: if cfg.window_scale > 0 { Some(cfg.window_scale) } else { None },
                    payload: &[],
                };
                self.emit_segment_for_key(key, spec);
                self.stats.retransmits += 1;
                let t = self.wheel.schedule(
                    cfg.syn_rto_ns << retries.min(6),
                    TimerEntry { key, gen, kind: TimerKind::Rto },
                );
                self.flows.get_mut(key).expect("live").rto_timer = Some(t);
            }
            _ => {
                tcb.cwnd_on_rto();
                tcb.rto_ns = (tcb.rto_ns * 2).clamp(cfg.min_rto_ns, cfg.max_rto_ns);
                self.stats.retransmits += 1;
                self.retransmit_front(key);
                self.restart_rto(key);
            }
        }
    }

    /// Retransmits the oldest unacknowledged segment.
    fn retransmit_front(&mut self, key: u64) {
        let now = self.now_ns;
        let tcb = self.flows.get_mut(key).expect("live");
        tcb.last_retx_ns = now;
        let Some(seg) = tcb.rtq.front_mut() else { return };
        seg.retransmitted = true;
        seg.tx_time_ns = now;
        // O(1): a refcount bump on the shared storage block — the
        // retransmit serializes from the same bytes `send` queued, so no
        // payload is copied until the segment lands in its pool mbuf.
        let spec_data: Bytes = seg.data.clone();
        let (seq, fin) = (seg.seq, seg.fin);
        let flags = TcpFlags { fin, psh: !fin, ..TcpFlags::ACK };
        let (ack, window) = (tcb.rcv_nxt, tcb.advertised_window_field());
        let spec = SegmentSpec { flags, seq, ack, window, mss: None, wscale: None, payload: &spec_data };
        self.emit_segment_for_key(key, spec);
    }

    /// Cancels and reschedules the RTO timer based on outstanding data.
    fn restart_rto(&mut self, key: u64) {
        let (old, need, rto, gen) = {
            let tcb = self.flows.get_mut(key).expect("live");
            (
                tcb.rto_timer.take(),
                !tcb.rtq.is_empty(),
                tcb.rto_ns,
                tcb.id.gen,
            )
        };
        if let Some(t) = old {
            self.wheel.cancel(t);
        }
        if need {
            let t = self.wheel.schedule(rto, TimerEntry { key, gen, kind: TimerKind::Rto });
            self.flows.get_mut(key).expect("live").rto_timer = Some(t);
        }
    }

    // ------------------------------------------------------------------
    // ACK batching (the IX "ACK as the app consumes" behaviour, §3).
    // ------------------------------------------------------------------

    fn mark_ack(&mut self, key: u64) {
        if let Some(tcb) = self.flows.get_mut(key) {
            if !tcb.need_ack {
                tcb.need_ack = true;
            }
            if !self.pending_acks.contains(&key) {
                self.pending_acks.push(key);
            }
        }
    }

    /// Emits all deferred ACKs; the IX dataplane calls this at the end of
    /// each run-to-completion cycle so windows reflect `recv_done`
    /// credits issued by the application during the cycle.
    pub fn end_cycle(&mut self, now_ns: u64) {
        /// Retired-slab slots reclaimed per quiescent cycle (~3 MB of
        /// drop-glue reads): a replaced 250k-slot slab drains in ~30
        /// cycles without putting its full DRAM pass in any one cycle.
        const RECLAIM_SLOTS_PER_CYCLE: usize = 8192;
        self.now_ns = now_ns;
        self.flush_acks();
        // RCU-style deferred reclamation: migration swaps TCB slabs
        // inside the blackout window and leaves the old one retired;
        // quiescent cycles pay its drop glue a bounded chunk at a time.
        self.flows.reclaim_retired(RECLAIM_SLOTS_PER_CYCLE);
    }

    /// Delayed-ACK policy (RFC 1122): a flow with one unacknowledged
    /// data segment waits (armed timer) hoping to piggyback on outgoing
    /// data; a second segment forces the ACK out immediately.
    fn delayed_ack_pass(&mut self, delay_ns: u64) {
        let mut keys = std::mem::take(&mut self.pending_acks);
        for key in keys.drain(..) {
            let Some(tcb) = self.flows.get_mut(key) else { continue };
            if !tcb.need_ack {
                continue;
            }
            if tcb.delack_timer.is_some() {
                // Second segment while one was pending: ACK now.
                let t = tcb.delack_timer.take().expect("present");
                self.wheel.cancel(t);
                self.emit_bare_ack(key);
            } else {
                let gen = tcb.id.gen;
                let t = self.wheel.schedule(
                    delay_ns,
                    TimerEntry { key, gen, kind: TimerKind::DelAck },
                );
                self.flows.get_mut(key).expect("live").delack_timer = Some(t);
            }
        }
        self.restore_pending_acks(keys);
    }

    fn flush_acks(&mut self) {
        let mut keys = std::mem::take(&mut self.pending_acks);
        for key in keys.drain(..) {
            let needs = self.flows.get(key).map(|t| t.need_ack).unwrap_or(false);
            if needs {
                self.emit_bare_ack(key);
            }
        }
        self.restore_pending_acks(keys);
    }

    /// Hands the drained deferred-ACK list back so its buffer serves the
    /// next cycle. Emitting an ACK never defers another, so nothing was
    /// queued behind the walk.
    fn restore_pending_acks(&mut self, drained: Vec<u64>) {
        debug_assert!(drained.is_empty() && self.pending_acks.is_empty());
        self.pending_acks = drained;
    }

    // ------------------------------------------------------------------
    // Output builders.
    // ------------------------------------------------------------------

    fn emit_bare_ack(&mut self, key: u64) {
        let Some(tcb) = self.flows.get_mut(key) else { return };
        tcb.need_ack = false;
        if let Some(t) = tcb.delack_timer.take() {
            self.wheel.cancel(t);
        }
        let window = tcb.advertised_window_field();
        tcb.adv_wnd_last = tcb.advertised_window();
        let spec = SegmentSpec::bare(TcpFlags::ACK, tcb.snd_nxt, tcb.rcv_nxt, window);
        self.emit_segment_for_key(key, spec);
    }

    fn queue_fin(&mut self, key: u64) {
        let now = self.now_ns;
        let tcb = self.flows.get_mut(key).expect("live");
        debug_assert!(!tcb.fin_queued);
        tcb.fin_queued = true;
        let seq = tcb.snd_nxt;
        tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1);
        tcb.rtq.push_back(TxSeg {
            seq,
            data: Bytes::new(),
            fin: true,
            tx_time_ns: now,
            retransmitted: false,
        });
        tcb.need_ack = false;
        let spec = SegmentSpec::bare(TcpFlags::FIN_ACK, seq, tcb.rcv_nxt, tcb.advertised_window_field());
        self.emit_segment_for_key(key, spec);
        self.restart_rto(key);
    }

    fn send_rst(&mut self, key: u64, seq: u32, ack: u32) {
        let tcb = self.flows.get(key).expect("live");
        let remote = tcb.remote_ip;
        let (sp, dp) = (tcb.local_port, tcb.remote_port);
        self.raw_rst(sp, dp, seq, ack, false, remote);
    }

    /// Emits a RST without requiring a PCB. The argument list mirrors
    /// the wire header fields it fills in.
    fn raw_rst(
        &mut self,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        seq_from_ack: bool,
        dst_ip: Ipv4Addr,
    ) {
        self.stats.rst_tx += 1;
        let flags = if seq_from_ack { TcpFlags::RST } else { TcpFlags::RST_ACK };
        self.build_and_queue_tcp(dst_ip, src_port, dst_port, SegmentSpec::bare(flags, seq, ack, 0));
    }

    /// Emits a segment for a PCB not (yet) in the flow map.
    fn emit_segment_for(&mut self, tcb: &Tcb, spec: SegmentSpec<'_>) {
        let remote = tcb.remote_ip;
        let (sp, dp) = (tcb.local_port, tcb.remote_port);
        self.build_and_queue_tcp(remote, sp, dp, spec);
    }

    /// Emits a segment for a flow in the map (copies the route first so
    /// the map borrow ends before serialization).
    fn emit_segment_for_key(&mut self, key: u64, spec: SegmentSpec<'_>) {
        let (remote, sp, dp) = {
            let tcb = self.flows.get(key).expect("live");
            (tcb.remote_ip, tcb.local_port, tcb.remote_port)
        };
        self.build_and_queue_tcp(remote, sp, dp, spec);
    }

    /// Serializes a TCP segment directly into a pool mbuf: the payload is
    /// written once into the tail, then TCP, IPv4, and Ethernet headers
    /// are prepended in place. The TCP checksum is fed from the header
    /// slice plus the external payload slice (RFC 1071 is associative
    /// over concatenation), so the wire bytes are identical to the old
    /// contiguous staging-Vec construction.
    fn build_and_queue_tcp(&mut self, dst_ip: Ipv4Addr, src_port: u16, dst_port: u16, spec: SegmentSpec<'_>) {
        self.stats.tx_segments += 1;
        let hdr = TcpHeader {
            src_port,
            dst_port,
            seq: spec.seq,
            ack: spec.ack,
            flags: spec.flags,
            window: spec.window,
            mss: spec.mss,
            wscale: spec.wscale,
        };
        let hlen = hdr.len();
        let ip = self.next_ipv4(IpProto::Tcp, dst_ip, hlen + spec.payload.len());
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                let Some(mut m) = self.pool.alloc_with_headroom(TX_HEADROOM) else {
                    self.stats.pool_drops += 1;
                    return;
                };
                m.extend_from_slice(spec.payload);
                if !spec.payload.is_empty() {
                    self.stats.tx_payload_writes += 1;
                }
                hdr.encode(m.prepend(hlen), self.local_ip, dst_ip, spec.payload);
                ip.encode(m.prepend(Ipv4Header::LEN));
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                // Cold ARP entry: serialize once into a transient buffer
                // and park it until the next hop resolves.
                self.stats.tx_transient_allocs += 1;
                let mut l3 = vec![0u8; Ipv4Header::LEN + hlen + spec.payload.len()];
                l3[Ipv4Header::LEN + hlen..].copy_from_slice(spec.payload);
                if !spec.payload.is_empty() {
                    self.stats.tx_payload_writes += 1;
                }
                let (ih, rest) = l3.split_at_mut(Ipv4Header::LEN);
                let (th, pl) = rest.split_at_mut(hlen);
                hdr.encode(th, self.local_ip, dst_ip, pl);
                ip.encode(ih);
                self.park_l3(dst_ip, l3.into());
            }
        }
    }

    /// Wraps an L4 payload already resident in an mbuf — headers go into
    /// the headroom in place — in IPv4, and routes it. Used by the ICMP
    /// echo reply (aliasing the RX mbuf) and `udp_send`.
    fn transmit_l4_mbuf(&mut self, dst_ip: Ipv4Addr, proto: IpProto, mut m: Mbuf) {
        let ip = self.next_ipv4(proto, dst_ip, m.len());
        ip.encode(m.prepend(Ipv4Header::LEN));
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                // Park a serialized copy; the mbuf itself goes back to
                // its owner (pool or RX clone) when dropped here.
                self.stats.tx_transient_allocs += 1;
                self.stats.tx_payload_writes += 1;
                self.park_l3(dst_ip, Bytes::copy_from_slice(m.data()));
            }
        }
    }

    /// Attaches the Ethernet header to an already-serialized L3 frame
    /// (released from the ARP park queue) and queues it for the NIC.
    fn transmit_l3(&mut self, dst_ip: Ipv4Addr, l3: Bytes) {
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                let Some(mut m) = self.pool.alloc() else {
                    self.stats.pool_drops += 1;
                    return;
                };
                m.extend_from_slice(&l3);
                self.stats.tx_payload_writes += 1;
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                self.park_l3(dst_ip, l3);
            }
        }
    }

    fn emit_arp(&mut self, pkt: ArpPacket, dst: MacAddr) {
        let Some(mut m) = self.pool.alloc() else {
            self.stats.pool_drops += 1;
            return;
        };
        self.stats.arp_tx += 1;
        pkt.encode(m.append(ArpPacket::LEN));
        self.queue_frame(m, dst, EtherType::Arp);
    }

    /// The IPv4 header of the next datagram this shard emits. One ident
    /// per datagram, consumed here, before routing — even for a frame
    /// later dropped on pool exhaustion; recovery traces depend on that
    /// numbering.
    fn next_ipv4(&mut self, proto: IpProto, dst: Ipv4Addr, l4_len: usize) -> Ipv4Header {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + l4_len) as u16,
            ident: self.ip_ident,
            ttl: Ipv4Header::DEFAULT_TTL,
            proto,
            src: self.local_ip,
            dst,
        }
    }

    /// Prepends the Ethernet header and queues the frame for the NIC.
    fn queue_frame(&mut self, mut m: Mbuf, dst: MacAddr, ethertype: EtherType) {
        EthHeader { dst, src: self.local_mac, ethertype }.encode(m.prepend(EthHeader::LEN));
        self.tx.push(m);
    }

    /// Parks a serialized L3 frame until `dst_ip` resolves, asking for
    /// the address unless a request is already out.
    fn park_l3(&mut self, dst_ip: Ipv4Addr, l3: Bytes) {
        if self.arp.park(dst_ip, l3) {
            let req = ArpPacket::request(self.local_mac, self.local_ip, dst_ip);
            self.emit_arp(req, MacAddr::BROADCAST);
        }
    }
}

/// The remote address packed into a flow key ([`FlowId::pack`]).
fn remote_ip(key: u64) -> Ipv4Addr {
    Ipv4Addr((key >> 32) as u32)
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
