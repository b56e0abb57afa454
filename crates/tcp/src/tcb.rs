//! The TCP protocol control block.
//!
//! State and per-connection arithmetic (windows, RTT estimation,
//! congestion control). Segment processing logic lives in
//! [`crate::stack`], which drives these methods; keeping the PCB pure
//! makes the invariants unit-testable without a network.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use ix_mempool::{Mbuf, Spares};
use ix_net::tcp::{seq_le, seq_lt};
use ix_testkit::Bytes;
use ix_timerwheel::TimerId;

use crate::config::StackConfig;
use crate::event::{FlowId, TcpEvent};

/// RFC 793 connection states (LISTEN is represented by the shard's
/// listener table rather than a PCB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Local close sent, awaiting ACK of FIN.
    FinWait1,
    /// FIN acknowledged, awaiting peer FIN.
    FinWait2,
    /// Simultaneous close: FIN exchanged, awaiting final ACK.
    Closing,
    /// Peer FIN received; local side may still send.
    CloseWait,
    /// Local FIN sent after peer's; awaiting final ACK.
    LastAck,
    /// Quarantine before tuple reuse.
    TimeWait,
    /// Gone.
    Closed,
}

/// A segment held for possible retransmission.
#[derive(Debug)]
pub struct TxSeg {
    /// First sequence number.
    pub seq: u32,
    /// Payload bytes (empty for a bare FIN). A refcounted view into the
    /// storage block the application handed to `send_bytes`, so queuing and
    /// retransmitting never copy payload — the zero-copy contract of the
    /// paper's `sendv` (§3: buffers stay immutable until acknowledged).
    pub data: Bytes,
    /// Whether this segment carries FIN.
    pub fin: bool,
    /// Transmit timestamp (ns), for RTT sampling.
    pub tx_time_ns: u64,
    /// Set when retransmitted (Karn's rule: no RTT sample).
    pub retransmitted: bool,
}

impl TxSeg {
    /// Sequence space this segment occupies (payload + FIN).
    pub fn seq_len(&self) -> u32 {
        self.data.len() as u32 + self.fin as u32
    }
}

/// Which timer fired, for wheel payload dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Zero-window probe.
    Persist,
    /// TIME_WAIT expiry.
    TimeWait,
    /// Delayed-ACK timeout.
    DelAck,
}

/// What a connection needs only while it is recovering from loss,
/// reassembling, probing a closed window, closing, or in transit between
/// shards. A quiescent established flow has none of it, so it lives in a
/// block of its own that the shard attaches ([`Tcb::cold_mut`]) on the
/// first such event and takes back ([`Tcb::release_cold`]) once every
/// field has returned to its default — blocks circulate through a
/// per-shard spare stack, so a loss episode costs no allocator call.
#[derive(Debug, Default)]
pub struct TcbCold {
    /// Out-of-order segments keyed by start sequence: the received
    /// mbufs themselves, trimmed in place when drained — reassembly
    /// buffers the buffer, not a copy of it.
    pub ooo: BTreeMap<u32, Mbuf>,
    /// Bytes held in `ooo`.
    pub ooo_bytes: u32,
    /// In fast recovery until `snd_una` passes this point.
    pub recover: Option<u32>,
    /// Open loss-recovery episode: `(start_ns, recovery_point)` captured
    /// at the first loss signal (RTO fire or fast-retransmit entry).
    /// Cleared — and its duration folded into
    /// `StackStats::max_recovery_ns` — once the cumulative ACK reaches
    /// the recovery point.
    pub recovery_episode: Option<(u64, u32)>,
    /// Peer's FIN sequence (consumed when in-order).
    pub peer_fin: Option<u32>,
    /// Pending persist (zero-window probe) timer.
    pub persist_timer: Option<TimerId>,
    /// Pending TIME_WAIT timer.
    pub timewait_timer: Option<TimerId>,
    /// When the connection last retransmitted anything. RTT samples are
    /// taken only from segments first sent after this instant (Karn's
    /// rule extended to cumulative ACKs, which would otherwise fold
    /// retransmission stalls of earlier segments into the estimate).
    /// Means nothing once the retransmit queue has drained — every
    /// later segment is first sent after it — and is zeroed then.
    pub last_retx_ns: u64,
    /// Migration carry-state (§4.4), by [`TimerKind`]: the residual
    /// delay of each timer the extract cancelled on the source wheel,
    /// with which `absorb_flows` re-arms the destination wheel. Timer
    /// *identity* cannot migrate (wheel slots are per-core), and
    /// re-arming at the full interval would let frequent migration
    /// postpone a retransmission indefinitely — so the remaining time is
    /// the state that moves. Set only between extract and absorb, when
    /// the four handles are `None`.
    pub migrate_ns: [Option<u64>; 4],
}

impl TcbCold {
    /// True when every field is back at its default. (Destructured, so
    /// that a field added later cannot be left out.)
    fn is_idle(&self) -> bool {
        let TcbCold {
            ooo,
            ooo_bytes,
            recover,
            recovery_episode,
            peer_fin,
            persist_timer,
            timewait_timer,
            last_retx_ns,
            migrate_ns,
        } = self;
        debug_assert!(!ooo.is_empty() || *ooo_bytes == 0);
        ooo.is_empty()
            && recover.is_none()
            && recovery_episode.is_none()
            && peer_fin.is_none()
            && persist_timer.is_none()
            && timewait_timer.is_none()
            && *last_retx_ns == 0
            && *migrate_ns == [None; 4]
    }
}

/// The protocol control block for one connection: 208 bytes, and all an
/// idle connection owns (its queues hold no buffer, its cold block is
/// detached). `repr(C)` so that the declaration order is
/// the memory order: what `fast_segment`, `deliver`, `send_bytes` and the ACK
/// pass read comes first, the RTT estimator and handshake leftovers
/// last.
#[derive(Debug)]
#[repr(C)]
pub struct Tcb {
    /// Flow identity (remote tuple + generation).
    pub id: FlowId,
    /// Opaque user value attached at `connect`/`accept`.
    pub cookie: u64,

    // --- Sequence space and windows (RFC 793 names) ---
    /// Oldest unacknowledged sequence number.
    pub snd_una: u32,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Peer-advertised window.
    pub snd_wnd: u32,
    /// Congestion window, bytes (NewReno).
    pub cwnd: u32,
    /// Next expected sequence number.
    pub rcv_nxt: u32,
    /// Maximum receive window (buffer size).
    pub rcv_buf: u32,
    /// Bytes delivered to the consumer but not yet credited back via
    /// `recv_done` — these shrink the advertised window (IX's cooperative
    /// flow control, §3).
    pub rcv_outstanding: u32,
    /// Effective MSS for this connection (min of ours and peer's).
    pub mss: u32,
    /// Connection state.
    pub state: TcpState,
    /// FIN has been queued/sent.
    pub fin_queued: bool,
    /// An ACK should be emitted for this connection.
    pub need_ack: bool,
    /// Negotiated shift applied to windows the peer sends us.
    pub snd_wscale: u8,
    /// Negotiated shift we apply to windows we advertise.
    pub rcv_wscale: u8,
    /// RSS redirection-table bucket this flow hashes into
    /// ([`ix_net::rss::bucket`] of the reply tuple), computed once
    /// when the shard adopts the flow and carried across migrations so
    /// neither extract nor absorb re-runs the per-bit software hash.
    /// [`NO_BUCKET`](crate::flow_table::NO_BUCKET) until a shard
    /// computes it.
    pub rss_bucket: u16,

    // --- Second line: loss/close state, timers, the send queue ---
    /// Loss-recovery, reassembly, close and transit state, attached only
    /// while the flow has any.
    pub cold: Option<Box<TcbCold>>,
    /// Pending RTO/SYN timer.
    pub rto_timer: Option<TimerId>,
    /// Pending delayed-ACK timer.
    pub delack_timer: Option<TimerId>,
    /// Current RTO, ns.
    pub rto_ns: u64,
    /// Retransmission queue. Holds a buffer only while non-empty: the
    /// first push borrows one from the shard's spare stack and the ACK
    /// that drains the queue returns it.
    pub rtq: VecDeque<TxSeg>,

    // --- Third line: held receive buffers, congestion and RTT ---
    /// Receive buffers delivered in order whose bytes the application
    /// has not yet credited back: the mbufs backing the `Bytes` views in
    /// outstanding `Recv` events, oldest first. `recv_done` releases
    /// them front-to-back as credit accumulates, returning each to its
    /// owning pool — Table 1's "frees memory buffers" — and the emptied
    /// queue's own buffer to the shard's spare stack.
    pub rx_held: VecDeque<Mbuf>,
    /// `recv_done` credit accumulated toward releasing the front of
    /// `rx_held` (credits need not align with delivery boundaries).
    pub rx_front_credit: u32,
    /// Last window we advertised (for window-update decisions).
    pub adv_wnd_last: u32,
    /// Slow-start threshold, bytes.
    pub ssthresh: u32,
    /// Duplicate ACK counter.
    pub dup_acks: u32,
    /// Consecutive retransmissions (for backoff and death).
    pub retries: u32,
    /// Smoothed RTT, ns (0 until first sample; Jacobson/Karels).
    pub srtt_ns: u64,
    /// RTT variance, ns.
    pub rttvar_ns: u64,
    /// When the SYN / SYN-ACK was (last) sent, for seeding the RTT
    /// estimator from the handshake.
    pub open_time_ns: u64,
}

impl Tcb {
    /// Creates a PCB in the given initial state.
    pub fn new(
        cfg: &StackConfig,
        id: FlowId,
        cookie: u64,
        state: TcpState,
        iss: u32,
    ) -> Tcb {
        Tcb {
            state,
            id,
            cookie,
            rss_bucket: crate::flow_table::NO_BUCKET,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            rtq: VecDeque::new(),
            fin_queued: false,
            cwnd: cfg.initial_cwnd_segs * cfg.mss,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            rcv_nxt: 0,
            rcv_buf: cfg.recv_window,
            rcv_outstanding: 0,
            rx_held: VecDeque::new(),
            rx_front_credit: 0,
            need_ack: false,
            adv_wnd_last: cfg.recv_window,
            snd_wscale: 0,
            rcv_wscale: 0,
            srtt_ns: 0,
            rttvar_ns: 0,
            rto_ns: cfg.min_rto_ns.max(1_000_000_000),
            retries: 0,
            rto_timer: None,
            delack_timer: None,
            cold: None,
            mss: cfg.mss,
            open_time_ns: 0,
        }
    }

    /// The cold block, attached first — from `spares` if one is there —
    /// when the flow has none.
    pub fn cold_mut(&mut self, spares: &mut Spares<Box<TcbCold>>) -> &mut TcbCold {
        self.cold.get_or_insert_with(|| spares.take_or_make(Box::default))
    }

    /// Hands the cold block back to `spares` if nothing in it is set any
    /// more. The shard calls this where cold state is cleared: after a
    /// segment took the full state machine, and at absorb.
    pub fn release_cold(&mut self, spares: &mut Spares<Box<TcbCold>>) {
        let Some(cold) = &mut self.cold else { return };
        if self.rtq.is_empty() {
            cold.last_retx_ns = 0;
        }
        if cold.is_idle() {
            spares.give(self.cold.take().expect("checked above"));
        }
    }

    /// Out-of-order bytes buffered for reassembly.
    pub fn ooo_bytes(&self) -> u32 {
        self.cold.as_ref().map_or(0, |c| c.ooo_bytes)
    }

    /// Buffers held in the reassembly map.
    pub fn ooo_len(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.ooo.len())
    }

    /// The peer's parked FIN, if data before it is still missing.
    pub fn peer_fin(&self) -> Option<u32> {
        self.cold.as_ref().and_then(|c| c.peer_fin)
    }

    /// The pending persist timer, if armed.
    pub fn persist_timer(&self) -> Option<TimerId> {
        self.cold.as_ref().and_then(|c| c.persist_timer)
    }

    /// Disarms the handle of the persist timer (the caller cancels it).
    pub fn take_persist_timer(&mut self) -> Option<TimerId> {
        self.cold.as_mut()?.persist_timer.take()
    }

    /// Disarms every timer handle, hot and cold, for the caller to
    /// cancel.
    pub fn take_timers(&mut self) -> [Option<TimerId>; 4] {
        let (persist, timewait) = match &mut self.cold {
            Some(c) => (c.persist_timer.take(), c.timewait_timer.take()),
            None => (None, None),
        };
        [self.rto_timer.take(), persist, timewait, self.delack_timer.take()]
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Usable send window right now: how many *new* payload bytes TCP
    /// will accept from the application. This is what the paper's `sendv`
    /// returns — the sliding window constraint surfaced to user code.
    pub fn usable_window(&self) -> u32 {
        let wnd = self.snd_wnd.min(self.cwnd);
        wnd.saturating_sub(self.flight())
    }

    /// The receive window to advertise: buffer minus bytes the
    /// application still holds (not `recv_done`) minus out-of-order bytes
    /// already buffered, clamped to what the negotiated scale can carry.
    pub fn advertised_window(&self) -> u32 {
        self.rcv_buf
            .saturating_sub(self.rcv_outstanding)
            .saturating_sub(self.ooo_bytes())
            .min(65_535u32 << self.rcv_wscale)
    }

    /// The on-wire (scaled-down) form of [`Tcb::advertised_window`].
    pub fn advertised_window_field(&self) -> u16 {
        (self.advertised_window() >> self.rcv_wscale).min(65_535) as u16
    }

    /// Records an RTT sample (Jacobson/Karels EWMA), updating the RTO.
    pub fn rtt_sample(&mut self, sample_ns: u64, cfg: &StackConfig) {
        if self.srtt_ns == 0 {
            self.srtt_ns = sample_ns;
            self.rttvar_ns = sample_ns / 2;
        } else {
            let err = sample_ns.abs_diff(self.srtt_ns);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + sample_ns) / 8;
        }
        self.rto_ns = (self.srtt_ns + 4 * self.rttvar_ns).clamp(cfg.min_rto_ns, cfg.max_rto_ns);
    }

    /// Congestion-window growth on a new (non-duplicate) ACK covering
    /// `acked` bytes.
    pub fn cwnd_on_ack(&mut self, acked: u32) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per MSS acked.
            self.cwnd = self.cwnd.saturating_add(acked.min(self.mss));
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            let inc = (self.mss as u64 * self.mss as u64 / self.cwnd.max(1) as u64).max(1);
            self.cwnd = self.cwnd.saturating_add(inc as u32);
        }
    }

    /// Multiplicative decrease on loss detection (fast retransmit).
    pub fn cwnd_on_fast_retransmit(&mut self, spares: &mut Spares<Box<TcbCold>>) {
        self.ssthresh = (self.flight() / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.cold_mut(spares).recover = Some(self.snd_nxt);
    }

    /// Collapse on retransmission timeout.
    pub fn cwnd_on_rto(&mut self) {
        self.ssthresh = (self.flight() / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        if let Some(cold) = &mut self.cold {
            cold.recover = None;
        }
    }

    /// Whether `ack` acknowledges new data.
    pub fn ack_is_new(&self, ack: u32) -> bool {
        seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt)
    }

    /// Drops acknowledged segments from the retransmission queue,
    /// returning `(payload_bytes_acked, rtt_sample_ns)`. A queue this
    /// drains hands its buffer back to `spares`.
    pub fn reap_rtq(
        &mut self,
        ack: u32,
        now_ns: u64,
        spares: &mut Spares<VecDeque<TxSeg>>,
    ) -> (u32, Option<u64>) {
        let mut bytes = 0u32;
        let mut sample = None;
        let last_retx_ns = self.cold.as_ref().map_or(0, |c| c.last_retx_ns);
        while let Some(seg) = self.rtq.front() {
            let end = seg.seq.wrapping_add(seg.seq_len());
            if seq_le(end, ack) {
                if !seg.retransmitted && seg.tx_time_ns >= last_retx_ns {
                    sample = Some(now_ns.saturating_sub(seg.tx_time_ns));
                }
                bytes += seg.data.len() as u32;
                self.rtq.pop_front();
            } else {
                break;
            }
        }
        spares.reclaim(&mut self.rtq);
        (bytes, sample)
    }

    /// Accepts `m` as the next in-order payload: advances `rcv_nxt`,
    /// charges the receive window, holds the buffer until `recv_done`
    /// credits it — on a buffer borrowed from `spares` if the held queue
    /// was empty — and returns the `Recv` event carrying a refcounted
    /// view of the mbuf's payload window — zero copies.
    pub(crate) fn deliver(&mut self, m: Mbuf, spares: &mut Spares<VecDeque<Mbuf>>) -> TcpEvent {
        let n = m.len() as u32;
        self.rcv_nxt = self.rcv_nxt.wrapping_add(n);
        self.rcv_outstanding += n;
        let payload = m.as_bytes();
        spares.push_back(&mut self.rx_held, m);
        TcpEvent::Recv { flow: self.id, cookie: self.cookie, payload }
    }

    /// True when every byte (and FIN) we ever sent is acknowledged.
    pub fn all_sent_acked(&self) -> bool {
        self.snd_una == self.snd_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_net::ip::Ipv4Addr;

    #[test]
    fn a_tcb_is_at_most_four_lines_and_keeps_its_niche() {
        assert!(std::mem::size_of::<Tcb>() <= 256, "{} bytes", std::mem::size_of::<Tcb>());
        // `FlowMap::adopt_slab` turns a `Vec<Tcb>` into the slab
        // `Vec<Option<Tcb>>` in place, which needs equal strides.
        assert_eq!(std::mem::size_of::<Option<Tcb>>(), std::mem::size_of::<Tcb>());
    }

    #[test]
    fn the_cold_block_attaches_on_loss_and_detaches_when_recovered() {
        let mut spares = Spares::new();
        spares.note_borrowers(1);
        let mut t = mk(TcpState::Established);
        t.snd_nxt = t.snd_una.wrapping_add(20_000);
        t.cwnd_on_fast_retransmit(&mut spares);
        t.cold_mut(&mut spares).last_retx_ns = 5;
        t.release_cold(&mut spares);
        assert!(t.cold.is_some(), "recovery point still ahead");
        t.cold_mut(&mut spares).recover = None;
        t.release_cold(&mut spares);
        // The retransmit queue is empty, so `last_retx_ns` means nothing.
        assert!(t.cold.is_none());
        assert_eq!(spares.len(), 1, "the block went back to the spare stack");
    }

    fn mk(state: TcpState) -> Tcb {
        let cfg = StackConfig::default();
        let id = FlowId {
            key: FlowId::pack(Ipv4Addr::new(10, 0, 0, 2), 80, 1234),
            gen: 1,
        };
        Tcb::new(&cfg, id, 0, state, 1000)
    }

    #[test]
    fn usable_window_respects_cwnd_and_peer() {
        let mut t = mk(TcpState::Established);
        t.snd_wnd = 100_000;
        t.cwnd = 5_000;
        assert_eq!(t.usable_window(), 5_000);
        t.snd_nxt = t.snd_una.wrapping_add(4_000);
        assert_eq!(t.flight(), 4_000);
        assert_eq!(t.usable_window(), 1_000);
        t.cwnd = 100_000;
        t.snd_wnd = 4_500;
        assert_eq!(t.usable_window(), 500);
    }

    #[test]
    fn advertised_window_shrinks_with_held_buffers() {
        let mut t = mk(TcpState::Established);
        assert_eq!(t.advertised_window(), 65_535);
        t.rcv_outstanding = 10_000;
        assert_eq!(t.advertised_window(), 55_535);
        t.cold_mut(&mut Spares::new()).ooo_bytes = 55_535;
        assert_eq!(t.advertised_window(), 0);
    }

    #[test]
    fn rtt_estimation_converges() {
        let cfg = StackConfig::default();
        let mut t = mk(TcpState::Established);
        for _ in 0..50 {
            t.rtt_sample(10_000, &cfg); // Constant 10 µs RTT.
        }
        assert!((t.srtt_ns as i64 - 10_000).abs() < 500, "srtt {}", t.srtt_ns);
        // RTO clamps at the configured floor.
        assert_eq!(t.rto_ns, cfg.min_rto_ns);
    }

    #[test]
    fn rtt_spike_inflates_rto() {
        // min_rto_ns low so the estimator shows through.
        let cfg = StackConfig { min_rto_ns: 1_000, ..StackConfig::default() };
        let mut t = mk(TcpState::Established);
        for _ in 0..20 {
            t.rtt_sample(10_000, &cfg);
        }
        let before = t.rto_ns;
        t.rtt_sample(1_000_000, &cfg);
        assert!(t.rto_ns > before * 10);
    }

    #[test]
    fn slow_start_then_avoidance() {
        let mut t = mk(TcpState::Established);
        t.cwnd = 2 * t.mss;
        t.ssthresh = 8 * t.mss;
        // Slow start doubles per round.
        t.cwnd_on_ack(t.mss);
        assert_eq!(t.cwnd, 3 * t.mss);
        t.cwnd = 10 * t.mss; // Past ssthresh.
        let before = t.cwnd;
        t.cwnd_on_ack(t.mss);
        assert!(t.cwnd > before && t.cwnd < before + t.mss / 4);
    }

    #[test]
    fn loss_reactions() {
        let mut t = mk(TcpState::Established);
        t.snd_nxt = t.snd_una.wrapping_add(20_000);
        t.cwnd = 20_000;
        t.cwnd_on_fast_retransmit(&mut Spares::new());
        assert_eq!(t.ssthresh, 10_000);
        assert_eq!(t.cwnd, 10_000 + 3 * t.mss);
        t.cwnd_on_rto();
        assert_eq!(t.cwnd, t.mss);
    }

    #[test]
    fn rtq_reaping_and_rtt_sampling() {
        let mut t = mk(TcpState::Established);
        let mut spares = Spares::new();
        t.snd_una = 1000;
        let seg = |seq, tx_time_ns, retransmitted| TxSeg {
            seq,
            data: vec![0; 500].into(),
            fin: false,
            tx_time_ns,
            retransmitted,
        };
        spares.push_back(&mut t.rtq, seg(1000, 100, false));
        spares.push_back(&mut t.rtq, seg(1500, 200, true));
        t.snd_nxt = 2000;
        // ACK covers only the first segment.
        let (bytes, sample) = t.reap_rtq(1500, 10_100, &mut spares);
        assert_eq!(bytes, 500);
        assert_eq!(sample, Some(10_000));
        assert_eq!(t.rtq.len(), 1);
        // ACK covers the retransmitted one: no sample (Karn).
        let (bytes, sample) = t.reap_rtq(2000, 20_000, &mut spares);
        assert_eq!(bytes, 500);
        assert_eq!(sample, None);
        assert!(t.rtq.is_empty());
        // The ACK that drained the queue returned its buffer.
        assert_eq!((t.rtq.capacity(), spares.len()), (0, 1));
    }

    #[test]
    fn seq_wraparound_in_reap() {
        let mut t = mk(TcpState::Established);
        let base = u32::MAX - 100;
        t.snd_una = base;
        t.snd_nxt = base.wrapping_add(400);
        t.rtq.push_back(TxSeg {
            seq: base,
            data: vec![0; 400].into(),
            fin: false,
            tx_time_ns: 0,
            retransmitted: false,
        });
        let ack = base.wrapping_add(400); // Wrapped past zero.
        assert!(t.ack_is_new(ack));
        let (bytes, _) = t.reap_rtq(ack, 1, &mut Spares::new());
        assert_eq!(bytes, 400);
    }

    #[test]
    fn fin_occupies_sequence_space() {
        let seg = TxSeg {
            seq: 5,
            data: vec![0; 10].into(),
            fin: true,
            tx_time_ns: 0,
            retransmitted: false,
        };
        assert_eq!(seg.seq_len(), 11);
    }
}
