//! Differential property suite for the RX path (DESIGN.md §4). Every
//! plan drives the *same* wire frames into two shards:
//!
//! - **pipeline** — the receive path under test: whole batches through
//!   `input_batch` (parse → flow-grouped runs → one ACK-policy pass), or,
//!   in the batch-of-one mode, one frame per `input()` call;
//! - **reference** — the `input_reference` oracle: the same parse and
//!   state machine, one frame at a time, never grouped, never coalesced,
//!   never through the fast path.
//!
//! The observables cross-checked after every cycle, batch mode:
//!
//! - per-flow application byte streams and event sequences (grouping
//!   may reorder *across* flows, never within one),
//! - per-flow wire frames, byte-identical apart from the two counters
//!   stamped in processing order (IPv4 ident, passive-open ISS) —
//!   except pure ACKs under `AckPolicy::Immediate`/`Delayed`, where the
//!   one-pass-per-call policy may emit fewer or later ones (under
//!   Immediate never more, never a different final ack/window; under
//!   every policy the last ACK a live flow sees once timers settle
//!   acknowledges the same byte),
//! - drop counters: corrupted frames land on `checksum_drops` /
//!   `parse_drops` identically on both sides.
//!
//! Batch-of-one mode is stricter: everything the pipeline shard emits —
//! every wire frame including its ident, every event, the whole
//! `StackStats` block — equals the reference's, globally, every cycle.
//!
//! Plans interleave in-order runs, out-of-order arrivals, duplicates,
//! corrupted frames, passive opens (with and without SYN cookies), and
//! mid-batch FIN/RST teardown across four client flows plus two tuples
//! that never complete a handshake. Every plan also runs against a 4 KiB
//! receive window with the application's credit withheld for its first
//! half, so that the window closes: segments that no longer fit leave
//! the fast path for the trimming path, and the credit that finally
//! arrives reopens the window with an update.

pub mod common;

use common::{events, mac, outbound, A_IP, B_IP};
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_tcp::{AckPolicy, FlowId, StackConfig, StackStats, TcpEvent, TcpShard};
use ix_testkit::prelude::*;

const SRV_PORT: u16 = 80;
const N_FLOWS: usize = 4;
/// Client tuples: the established flows plus two that only ever SYN.
const N_TUPLES: usize = N_FLOWS + 2;

fn cli_port(flow: usize) -> u16 {
    40_000 + flow as u16
}

/// The byte carried at stream offset `p` of flow `flow` — fixed, so
/// retransmitted and overlapping segments are self-consistent.
fn byte_at(flow: usize, p: usize) -> u8 {
    (((p as u32).wrapping_mul(2_654_435_761) ^ (flow as u32).wrapping_mul(0x9e37_79b9)) >> 24) as u8
}

/// One frame of a batch plan. Offsets are relative to the flow's
/// in-order cursor at build time, so "ahead"/"behind" track the stream.
#[derive(Debug, Clone)]
enum FrameOp {
    /// The next in-order chunk (advances the cursor).
    Next { flow: usize, len: usize },
    /// A reordered segment starting `gap` bytes past the cursor.
    Ahead { flow: usize, gap: usize, len: usize },
    /// A stale/overlapping segment starting `back` bytes before it.
    Behind { flow: usize, back: usize, len: usize },
    /// An otherwise-valid in-order segment with a corrupted TCP
    /// checksum: dropped by verification, cursor not advanced.
    BadSum { flow: usize, len: usize },
    /// A frame addressed to someone else's IP: parse drop.
    BadDst { flow: usize },
    /// A frame truncated mid-header: parse drop.
    Runt { flow: usize },
    /// Client FIN at the cursor (mid-batch teardown begins).
    Fin { flow: usize },
    /// Client RST at the cursor (abortive mid-batch teardown).
    Rst { flow: usize },
    /// A connection-opening SYN on tuple `flow` (any of `N_TUPLES`): a
    /// passive open — stateless under SYN cookies — when the tuple has
    /// no flow, a stray SYN on a live one.
    Syn { flow: usize },
}

impl FrameOp {
    fn flow(&self) -> usize {
        match *self {
            FrameOp::Next { flow, .. }
            | FrameOp::Ahead { flow, .. }
            | FrameOp::Behind { flow, .. }
            | FrameOp::BadSum { flow, .. }
            | FrameOp::BadDst { flow }
            | FrameOp::Runt { flow }
            | FrameOp::Fin { flow }
            | FrameOp::Rst { flow }
            | FrameOp::Syn { flow } => flow,
        }
    }
}

/// Crafts one client→server frame with valid checksums (the `dst`
/// override builds the misaddressed variant with an internally
/// consistent IP header, so it exercises the dst check, not the
/// checksum check).
fn wire(flow: usize, seq: u32, ack: u32, flags: TcpFlags, payload: &[u8], dst: Ipv4Addr) -> Vec<u8> {
    let hdr = TcpHeader {
        src_port: cli_port(flow),
        dst_port: SRV_PORT,
        seq,
        ack,
        flags,
        window: 65_535,
        mss: if flags.syn { Some(1460) } else { None },
        wscale: None,
    };
    let hlen = hdr.len();
    let mut f = vec![0u8; EthHeader::LEN + Ipv4Header::LEN + hlen + payload.len()];
    EthHeader { dst: mac(2), src: mac(1), ethertype: EtherType::Ipv4 }.encode(&mut f[..EthHeader::LEN]);
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + hlen + payload.len()) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Tcp,
        src: A_IP,
        dst,
    }
    .encode(&mut f[EthHeader::LEN..EthHeader::LEN + Ipv4Header::LEN]);
    hdr.encode(&mut f[EthHeader::LEN + Ipv4Header::LEN..], A_IP, dst, payload);
    f[EthHeader::LEN + Ipv4Header::LEN + hlen..].copy_from_slice(payload);
    f
}

/// Two shard-global counters are stamped in *processing* order, which
/// flow grouping permutes across flows (and ACK coalescing shortens):
/// the per-packet IPv4 `ident`, and the ISS a passive open draws. For
/// per-flow comparisons blank both — ident and the IP header checksum it
/// perturbs on every frame, sequence number and TCP checksum on SYN-ACKs
/// (cookie SYN-ACKs hash their ISS from the tuple, so blanking them
/// hides nothing that could differ).
fn order_blind(raw: &[u8]) -> Vec<u8> {
    const TCP: usize = EthHeader::LEN + Ipv4Header::LEN;
    let mut v = raw.to_vec();
    v[EthHeader::LEN + 4..EthHeader::LEN + 6].fill(0);
    v[EthHeader::LEN + 10..EthHeader::LEN + 12].fill(0);
    if v[TCP + 13] & 0x02 != 0 {
        v[TCP + 4..TCP + 8].fill(0);
        v[TCP + 16..TCP + 18].fill(0);
    }
    v
}

fn mk_mbuf(w: &[u8]) -> Mbuf {
    let mut m = Mbuf::standalone();
    m.append(w.len()).copy_from_slice(w);
    m
}

/// A server TX frame, decoded and kept raw for byte-identity checks.
#[derive(Debug, Clone, PartialEq)]
struct TxFrame {
    raw: Vec<u8>,
    hdr: TcpHeader,
    plen: usize,
}

impl TxFrame {
    fn is_pure_ack(&self) -> bool {
        let f = self.hdr.flags;
        f.ack && !f.syn && !f.fin && !f.rst && self.plen == 0
    }
}

/// A stack event normalized for cross-shard comparison.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Recv(Vec<u8>),
    Sent(u32, u32),
    Dead(String),
    Knock,
    Connected,
}

/// Everything one shard produced in one cycle.
struct CycleOut {
    tx: Vec<TxFrame>,
    evs: Vec<(u64, Ev)>,
    stats: StackStats,
}

fn drain(shard: &mut TcpShard) -> CycleOut {
    let mut tx = Vec::new();
    for mut f in outbound(shard) {
        let raw = f.data().to_vec();
        f.pull(EthHeader::LEN);
        let ip = Ipv4Header::decode(f.data()).expect("server emits valid IP");
        f.pull(Ipv4Header::LEN);
        let (hdr, hlen) = TcpHeader::decode(f.data(), ip.src, ip.dst).expect("server emits valid TCP");
        let plen = ip.total_len as usize - Ipv4Header::LEN - hlen;
        tx.push(TxFrame { raw, hdr, plen });
    }
    let evs = events(shard)
        .into_iter()
        .map(|e| match e {
            TcpEvent::Recv { flow, payload, .. } => (flow.key, Ev::Recv(payload.to_vec())),
            TcpEvent::Sent { flow, bytes_acked, window, .. } => (flow.key, Ev::Sent(bytes_acked, window)),
            TcpEvent::Dead { flow, reason, .. } => (flow.key, Ev::Dead(format!("{reason:?}"))),
            TcpEvent::Knock { flow, .. } => (flow.key, Ev::Knock),
            TcpEvent::Connected { flow, .. } => (flow.key, Ev::Connected),
        })
        .collect();
    CycleOut { tx, evs, stats: shard.stats }
}

struct FlowCtx {
    id: FlowId,
    /// First payload byte's sequence number (client ISN + 1).
    base: u32,
    /// Every injected segment acknowledges this (server ISS + 1).
    srv_ack: u32,
    /// In-order bytes enqueued so far (FIN counts one).
    cursor: usize,
    /// Cursor at the first FIN sent, if any: a FIN consumes one
    /// sequence number, so stream positions past it no longer line up
    /// with `byte_at` offsets.
    first_fin: Option<usize>,
    /// A client RST was sent: the server side is gone for good.
    reset: bool,
}

/// How the pipeline shard is fed.
#[derive(Clone, Copy, PartialEq)]
enum Feed {
    /// Each plan batch through one `input_batch` call.
    Batch,
    /// One frame per `input()` call: must equal the reference globally.
    OneByOne,
}

/// One stack configuration of the differential matrix.
#[derive(Clone, Copy)]
struct Mode {
    policy: AckPolicy,
    syn_cookies: bool,
    feed: Feed,
    /// A [`TIGHT_WINDOW`]-byte receive window, and no `recv_done` until
    /// the plan is half way through.
    tight: bool,
}

/// The receive window of the tight modes: three full segments overrun it.
const TIGHT_WINDOW: u32 = 4096;

/// The delayed-ACK timeout both baseline models run.
const DELAYED: AckPolicy = AckPolicy::Delayed(100_000);
const POLICIES: [AckPolicy; 3] = [AckPolicy::Immediate, AckPolicy::EndOfCycle, DELAYED];

/// Two shards in lockstep plus the synthesized clients.
struct Harness {
    pipeline: TcpShard,
    reference: TcpShard,
    mode: Mode,
    now: u64,
    flows: Vec<FlowCtx>,
    /// Cumulative per-flow delivered stream (from the reference; the
    /// pipeline shard is asserted identical each cycle).
    streams: Vec<Vec<u8>>,
    /// Delivered-but-uncredited bytes per flow.
    owed: Vec<u32>,
    /// Acknowledgment number of the last pure ACK each client port saw,
    /// on the pipeline and on the reference shard.
    last_ack: [[Option<u32>; N_TUPLES]; 2],
}

impl Harness {
    fn establish(mode: Mode, isns: &[u32; N_FLOWS]) -> Harness {
        let mk = || {
            let mut cfg = StackConfig {
                ack_policy: mode.policy,
                syn_cookies: mode.syn_cookies,
                ..StackConfig::default()
            };
            if mode.tight {
                cfg.recv_window = TIGHT_WINDOW;
            }
            let mut b = TcpShard::new(cfg, B_IP, mac(2));
            b.arp_seed(A_IP, mac(1));
            b.listen(SRV_PORT);
            b
        };
        let mut h = Harness {
            pipeline: mk(),
            reference: mk(),
            mode,
            now: 1_000,
            flows: Vec::new(),
            streams: vec![Vec::new(); N_FLOWS],
            owed: vec![0; N_FLOWS],
            last_ack: [[None; N_TUPLES]; 2],
        };
        for (flow, &isn) in isns.iter().enumerate() {
            // Client ISN is isn-1 so the first payload byte carries isn.
            h.now += 1_000;
            let syn = wire(flow, isn.wrapping_sub(1), 0, TcpFlags::SYN, &[], B_IP);
            h.feed(std::slice::from_ref(&syn));
            let [sa_p, sa_r] = [&mut h.pipeline, &mut h.reference].map(|shard| {
                let out = drain(shard);
                let synack = out.tx.iter().find(|t| t.hdr.flags.syn && t.hdr.flags.ack);
                synack.map(|t| t.hdr.seq.wrapping_add(1)).expect("SYN-ACK emitted")
            });
            // Deterministic ISS: the shards must agree, or the shared
            // client frames below would be meaningless.
            assert_eq!(sa_p, sa_r, "shards diverged on ISS");
            h.now += 1_000;
            let ackf = wire(flow, isn, sa_r, TcpFlags::ACK, &[], B_IP);
            h.feed(std::slice::from_ref(&ackf));
            let [id_p, id_r] = [&mut h.pipeline, &mut h.reference].map(|shard| {
                let _ = outbound(shard);
                let knock = events(shard).into_iter().find_map(|e| match e {
                    TcpEvent::Knock { flow: fl, .. } => Some(fl),
                    _ => None,
                });
                let fl = knock.expect("knock on every shard");
                shard.accept(fl, flow as u64).unwrap();
                fl
            });
            assert_eq!(id_p, id_r, "shards diverged on FlowId");
            h.flows.push(FlowCtx { id: id_r, base: isn, srv_ack: sa_r, cursor: 0, first_fin: None, reset: false });
        }
        h
    }

    /// One cycle's input on both shards: timers first, then the frames —
    /// the pipeline shard as its feed mode says, the reference always
    /// one by one — then the end-of-cycle flush.
    fn feed(&mut self, wires: &[Vec<u8>]) {
        self.pipeline.advance_timers(self.now);
        self.reference.advance_timers(self.now);
        match self.mode.feed {
            Feed::Batch => {
                let mut frames: Vec<Mbuf> = wires.iter().map(|w| mk_mbuf(w)).collect();
                self.pipeline.input_batch(self.now, &mut frames);
            }
            Feed::OneByOne => {
                for w in wires {
                    self.pipeline.input(self.now, mk_mbuf(w));
                }
            }
        }
        for w in wires {
            self.reference.input_reference(self.now, mk_mbuf(w));
        }
        self.pipeline.end_cycle(self.now);
        self.reference.end_cycle(self.now);
    }

    /// Builds the wire bytes for one op and updates the driver cursor.
    fn build(&mut self, op: &FrameOp) -> Vec<u8> {
        let fx = op.flow();
        if fx >= N_FLOWS {
            // A tuple that never got past its SYN.
            return wire(fx, 7_000 * fx as u32, 0, TcpFlags::SYN, &[], B_IP);
        }
        let (base, srv_ack, cursor) = {
            let f = &self.flows[fx];
            (f.base, f.srv_ack, f.cursor)
        };
        let seq_at = |off: usize| base.wrapping_add(off as u32);
        let data = |off: usize, len: usize| -> Vec<u8> { (off..off + len).map(|p| byte_at(fx, p)).collect() };
        match *op {
            FrameOp::Next { flow, len } => {
                let w = wire(flow, seq_at(cursor), srv_ack, TcpFlags::ACK, &data(cursor, len), B_IP);
                self.flows[fx].cursor += len;
                w
            }
            FrameOp::Ahead { flow, gap, len } => {
                let off = cursor + gap;
                wire(flow, seq_at(off), srv_ack, TcpFlags::ACK, &data(off, len), B_IP)
            }
            FrameOp::Behind { flow, back, len } => {
                let off = cursor.saturating_sub(back);
                wire(flow, seq_at(off), srv_ack, TcpFlags::ACK, &data(off, len), B_IP)
            }
            FrameOp::BadSum { flow, len } => {
                let mut w = wire(flow, seq_at(cursor), srv_ack, TcpFlags::ACK, &data(cursor, len), B_IP);
                w[EthHeader::LEN + Ipv4Header::LEN + 16] ^= 0x55;
                w
            }
            FrameOp::BadDst { flow } => {
                wire(flow, seq_at(cursor), srv_ack, TcpFlags::ACK, &data(cursor, 8), Ipv4Addr::new(10, 0, 0, 99))
            }
            FrameOp::Runt { flow } => {
                let mut w = wire(flow, seq_at(cursor), srv_ack, TcpFlags::ACK, &[], B_IP);
                w.truncate(EthHeader::LEN + Ipv4Header::LEN + 10);
                w
            }
            FrameOp::Fin { flow } => {
                let w = wire(flow, seq_at(cursor), srv_ack, TcpFlags::FIN_ACK, &[], B_IP);
                self.flows[fx].first_fin.get_or_insert(cursor);
                self.flows[fx].cursor += 1;
                w
            }
            FrameOp::Rst { flow } => {
                self.flows[fx].reset = true;
                wire(flow, seq_at(cursor), srv_ack, TcpFlags::RST, &[], B_IP)
            }
            FrameOp::Syn { flow } => wire(flow, seq_at(cursor), 0, TcpFlags::SYN, &[], B_IP),
        }
    }

    /// Drains both shards, records the pure ACKs each port saw, and —
    /// in batch-of-one mode — holds the pipeline shard to the reference
    /// globally: same frames (ident included) in the same order, same
    /// events, same counters.
    fn drain_both(&mut self) -> (CycleOut, CycleOut) {
        let cp = drain(&mut self.pipeline);
        let cr = drain(&mut self.reference);
        for (seen, out) in self.last_ack.iter_mut().zip([&cp, &cr]) {
            for t in out.tx.iter().filter(|t| t.is_pure_ack()) {
                seen[(t.hdr.dst_port - cli_port(0)) as usize] = Some(t.hdr.ack);
            }
        }
        if self.mode.feed == Feed::OneByOne {
            let raw_p: Vec<&Vec<u8>> = cp.tx.iter().map(|t| &t.raw).collect();
            let raw_r: Vec<&Vec<u8>> = cr.tx.iter().map(|t| &t.raw).collect();
            assert_eq!(raw_p, raw_r, "batch-of-one TX diverged from the reference");
            assert_eq!(cp.evs, cr.evs, "batch-of-one events diverged");
            assert_eq!(cp.stats, cr.stats, "batch-of-one stats diverged");
        }
        (cp, cr)
    }

    /// Feeds one batch to both shards, cross-checks every observable,
    /// and — if `credit` — credits every delivered byte still owed back.
    fn run_batch(&mut self, ops: &[FrameOp], credit: bool) {
        // Shorter than the delayed-ACK timeout: an armed timer outlives
        // the next batch unless that batch's segments consume it.
        self.now += 60_000;
        let wires: Vec<Vec<u8>> = ops.iter().map(|op| self.build(op)).collect();
        self.feed(&wires);
        let (cp, cr) = self.drain_both();
        self.compare_batched(&cp, &cr);

        // Per-flow streams accumulate from the reference (the pipeline
        // shard already asserted identical).
        for (key, ev) in &cr.evs {
            if let Ev::Recv(bytes) = ev {
                let fx = self.flow_index(*key);
                self.streams[fx].extend_from_slice(bytes);
                self.owed[fx] += bytes.len() as u32;
            }
        }
        if !credit {
            return;
        }
        for fx in 0..N_FLOWS {
            let n = std::mem::take(&mut self.owed[fx]);
            if n == 0 {
                continue;
            }
            let id = self.flows[fx].id;
            let rp = self.pipeline.recv_done(self.now, id, n);
            let rr = self.reference.recv_done(self.now, id, n);
            // A torn-down flow refuses credit on both shards alike.
            assert_eq!(rp.is_ok(), rr.is_ok(), "recv_done outcome diverged");
            // A window-update ACK, if any, must restate agreed state on
            // the pipeline shard too — except under Delayed, where the
            // update rule keys off the window last *advertised* and the
            // two sides legitimately last ACKed at different moments.
            let (wp, wr) = self.drain_both();
            if self.mode.policy != DELAYED {
                let rp: Vec<Vec<u8>> = wp.tx.iter().map(|t| order_blind(&t.raw)).collect();
                let rr: Vec<Vec<u8>> = wr.tx.iter().map(|t| order_blind(&t.raw)).collect();
                assert_eq!(rp, rr, "window-update ACKs diverged");
            }
        }
    }

    fn flow_index(&self, key: u64) -> usize {
        self.flows.iter().position(|f| f.id.key == key).expect("event for known flow")
    }

    /// The pipeline-vs-reference differential: per-tuple equality,
    /// modulo the documented pure-ACK coalescing when the policy allows
    /// it.
    fn compare_batched(&self, cp: &CycleOut, cr: &CycleOut) {
        let coalesce = self.mode.policy != AckPolicy::EndOfCycle;
        for fx in 0..N_TUPLES {
            let (port, key) = (cli_port(fx), FlowId::pack(A_IP, cli_port(fx), SRV_PORT));
            let evs_p: Vec<&Ev> = cp.evs.iter().filter(|(k, _)| *k == key).map(|(_, e)| e).collect();
            let evs_r: Vec<&Ev> = cr.evs.iter().filter(|(k, _)| *k == key).map(|(_, e)| e).collect();
            assert_eq!(evs_p, evs_r, "per-flow event sequence diverged");

            let tx_p: Vec<&TxFrame> = cp.tx.iter().filter(|t| t.hdr.dst_port == port).collect();
            let tx_r: Vec<&TxFrame> = cr.tx.iter().filter(|t| t.hdr.dst_port == port).collect();
            // Flow-grouping reorders processing *across* flows, which
            // re-stamps the shard-global counters; per-flow frames are
            // compared blind to them (the strict global byte-identity
            // pin is the batch-of-one mode).
            let blind = |txs: &[&TxFrame], keep_acks: bool| -> Vec<Vec<u8>> {
                txs.iter().filter(|t| keep_acks || !t.is_pure_ack()).map(|t| order_blind(&t.raw)).collect()
            };
            assert_eq!(blind(&tx_p, !coalesce), blind(&tx_r, !coalesce), "per-flow TX diverged");
            if self.mode.policy == AckPolicy::Immediate {
                let acks_p: Vec<&TxFrame> = tx_p.iter().filter(|t| t.is_pure_ack()).copied().collect();
                let acks_r: Vec<&TxFrame> = tx_r.iter().filter(|t| t.is_pure_ack()).copied().collect();
                assert!(
                    acks_p.len() <= acks_r.len(),
                    "batching may only coalesce ACKs, never add them ({} > {})",
                    acks_p.len(),
                    acks_r.len()
                );
                // No presence check: a same-batch teardown can consume a
                // pending coalesced ACK entirely (the reference had
                // already flushed per segment before the flow died).
                if let (Some(p), Some(r)) = (acks_p.last(), acks_r.last()) {
                    assert_eq!(p.hdr.ack, r.hdr.ack, "final coalesced ack diverged");
                    assert_eq!(p.hdr.window, r.hdr.window, "final advertised window diverged");
                }
            }
        }
        assert_eq!(cp.evs.len(), cr.evs.len(), "stray events for unknown flows");

        // RX-side counters must agree regardless of policy.
        let (p, r) = (&cp.stats, &cr.stats);
        assert_eq!(p.rx_segments, r.rx_segments, "rx_segments diverged");
        assert_eq!(p.parse_drops, r.parse_drops, "parse_drops diverged");
        assert_eq!(p.checksum_drops, r.checksum_drops, "checksum_drops diverged");
        assert_eq!(p.rst_rx, r.rst_rx, "rst_rx diverged");
        assert_eq!(p.bytes_rx, r.bytes_rx, "bytes_rx diverged");
        assert_eq!(p.rx_pool_outstanding, r.rx_pool_outstanding, "rx_pool_outstanding diverged");
        assert_eq!(p.rx_payload_copies, r.rx_payload_copies, "rx_payload_copies diverged");
        assert_eq!(p.rx_ooo_copies, r.rx_ooo_copies, "rx_ooo_copies diverged");
        if !coalesce {
            // EndOfCycle coalesces identically on both sides: the whole
            // counter block must match, TX included.
            assert_eq!(cp.stats, cr.stats, "full stats diverged under EndOfCycle");
        }
    }

    /// Lets every delayed-ACK timer run out, then checks the plan as a
    /// whole, flow by flow: whatever was coalesced or deferred on the
    /// way, the last pure ACK the flow saw acknowledges the same byte on
    /// both shards, and its cumulative stream carries the exact bytes
    /// the plan enqueued in order — exact up to the first FIN, past
    /// which a consumed sequence number shifts positions off the
    /// `byte_at` grid. Flows the plan reset are exempt (an ACK may have
    /// died with the flow, and under SYN cookies the replayed handshake
    /// ACK legitimately reopens the tuple at stream offset 0); content
    /// equality between the shards is still asserted every cycle.
    fn settle(&mut self) {
        self.now += 1_000_000;
        self.feed(&[]);
        self.drain_both();
        for (fx, f) in self.flows.iter().enumerate().filter(|(_, f)| !f.reset) {
            assert_eq!(self.last_ack[0][fx], self.last_ack[1][fx], "flow {fx}: settled ACK diverged");
            let stream = &self.streams[fx];
            let limit = f.first_fin.unwrap_or(usize::MAX).min(stream.len());
            let want: Vec<u8> = (0..limit).map(|p| byte_at(fx, p)).collect();
            assert_eq!(&stream[..limit], &want[..], "flow {fx} stream content corrupted");
        }
    }
}

fn run_mode(mode: Mode, isns: [u32; N_FLOWS], batches: &[Vec<FrameOp>]) -> Harness {
    let mut h = Harness::establish(mode, &isns);
    for (i, batch) in batches.iter().enumerate() {
        // A tight mode's application sits on what it is given for the
        // first half of the plan, then credits it all at once.
        h.run_batch(batch, !mode.tight || 2 * i + 1 >= batches.len());
    }
    h.settle();
    h
}

/// One plan through `input_batch` under one ACK policy: with SYN cookies
/// off and on, and against the tight window.
fn run_plan(policy: AckPolicy, isns: [u32; N_FLOWS], batches: &[Vec<FrameOp>]) {
    for (syn_cookies, tight) in [(false, false), (true, false), (false, true)] {
        run_mode(Mode { policy, syn_cookies, feed: Feed::Batch, tight }, isns, batches);
    }
}

/// One plan under every ACK policy.
fn run_plan_all(isns: [u32; N_FLOWS], batches: &[Vec<FrameOp>]) {
    for policy in POLICIES {
        run_plan(policy, isns, batches);
    }
}

// ---------------------------------------------------------------------
// Directed scenarios.
// ---------------------------------------------------------------------

/// 16 interleaved in-order segments (4 flows round-robin): the shape of
/// the rxbatch microbench. Under Immediate the pipeline must coalesce to
/// exactly one ACK per flow while the reference acks every segment.
#[test]
fn interleaved_inorder_runs_coalesce_acks() {
    let mode = Mode { policy: AckPolicy::Immediate, syn_cookies: false, feed: Feed::Batch, tight: false };
    let mut h = Harness::establish(mode, &[1_000, 2_000, 3_000, 4_000]);
    let ops: Vec<FrameOp> = (0..16).map(|j| FrameOp::Next { flow: j % N_FLOWS, len: 100 }).collect();
    let wires: Vec<Vec<u8>> = ops.iter().map(|op| h.build(op)).collect();
    h.now += 100_000;
    h.feed(&wires);
    let (cp, cr) = h.drain_both();
    assert_eq!(cp.tx.iter().filter(|t| t.is_pure_ack()).count(), N_FLOWS, "one coalesced ACK per flow");
    assert_eq!(cr.tx.iter().filter(|t| t.is_pure_ack()).count(), 16, "the reference acks every segment");
    h.compare_batched(&cp, &cr);
}

#[test]
fn interleaved_inorder_streams_match() {
    let batches: Vec<Vec<FrameOp>> = (0..3)
        .map(|_| (0..16).map(|j| FrameOp::Next { flow: j % N_FLOWS, len: 257 }).collect())
        .collect();
    run_plan_all([10, 20, 30, 40], &batches);
}

#[test]
fn ooo_within_batch_fills_holes() {
    // Each flow's hole is filled later in the same batch; one flow's
    // fill lands in the *next* batch.
    let batches = vec![
        vec![
            FrameOp::Ahead { flow: 0, gap: 300, len: 300 },
            FrameOp::Ahead { flow: 1, gap: 150, len: 150 },
            FrameOp::Next { flow: 2, len: 500 },
            FrameOp::Next { flow: 0, len: 300 }, // fills flow 0's hole
            FrameOp::Ahead { flow: 3, gap: 90, len: 40 },
            FrameOp::Next { flow: 1, len: 150 }, // fills flow 1's hole
        ],
        vec![
            FrameOp::Next { flow: 3, len: 90 }, // fills flow 3's hole
            FrameOp::Behind { flow: 2, back: 200, len: 400 },
            FrameOp::Next { flow: 0, len: 300 },
        ],
    ];
    run_plan_all([u32::MAX - 200, 7, 1 << 31, 99_999], &batches);
}

#[test]
fn corrupted_frames_land_on_drop_counters() {
    let mode = Mode { policy: AckPolicy::EndOfCycle, syn_cookies: false, feed: Feed::Batch, tight: false };
    let mut h = Harness::establish(mode, &[5, 6, 7, 8]);
    let before_p = h.pipeline.stats;
    let before_r = h.reference.stats;
    h.run_batch(
        &[
            FrameOp::Next { flow: 0, len: 64 },
            FrameOp::BadSum { flow: 1, len: 64 },
            FrameOp::BadDst { flow: 2 },
            FrameOp::BadSum { flow: 0, len: 32 },
            FrameOp::Runt { flow: 3 },
            FrameOp::Next { flow: 1, len: 64 },
        ],
        true,
    );
    for (shard, before) in [(&h.pipeline, before_p), (&h.reference, before_r)] {
        assert_eq!(shard.stats.checksum_drops - before.checksum_drops, 2, "two corrupted checksums");
        assert_eq!(shard.stats.parse_drops - before.parse_drops, 4, "checksum + misaddressed + runt drops");
        assert_eq!(shard.stats.rx_segments - before.rx_segments, 2, "only intact segments count");
    }
    h.settle();
}

#[test]
fn mid_batch_fin_teardown() {
    // Flow 1 FINs mid-batch; its post-FIN data and next-cycle frames
    // must be handled identically (no fast-path leak past Established).
    let batches = vec![
        vec![
            FrameOp::Next { flow: 1, len: 200 },
            FrameOp::Next { flow: 0, len: 90 },
            FrameOp::Fin { flow: 1 },
            FrameOp::Behind { flow: 1, back: 200, len: 200 },
            FrameOp::Next { flow: 0, len: 90 },
        ],
        vec![FrameOp::Next { flow: 1, len: 50 }, FrameOp::Next { flow: 2, len: 400 }],
    ];
    run_plan_all([11, 22, 33, 44], &batches);
}

#[test]
fn mid_batch_rst_teardown_and_reopen() {
    let batches = vec![
        vec![
            FrameOp::Next { flow: 2, len: 333 },
            FrameOp::Rst { flow: 2 },
            FrameOp::Next { flow: 2, len: 100 }, // lands on a dead flow
            FrameOp::Next { flow: 3, len: 64 },
            FrameOp::Syn { flow: 2 }, // passive open on the freed tuple
            FrameOp::Syn { flow: 4 }, // and on a fresh one
        ],
        vec![
            FrameOp::Next { flow: 2, len: 10 },
            FrameOp::Syn { flow: 4 }, // SYN retransmit
            FrameOp::Syn { flow: 3 }, // stray SYN on a live flow
            FrameOp::Next { flow: 3, len: 64 },
        ],
    ];
    run_plan_all([100, 200, 300, 400], &batches);
}

/// The receive window closes inside a batch and reopens on credit. Flow
/// 0's third full segment pokes 284 bytes past the 4 KiB window: it
/// fails `fast_segment`'s `plen > advertised_window()` check and the
/// trimming path delivers the part that fits; what follows finds the
/// window shut. The withheld credit, when it comes, reopens it (a
/// window update under Immediate/Delayed, the end-of-cycle ACK
/// otherwise) and the stream resumes where the *server* left it.
#[test]
fn closed_window_trims_then_reopens_on_credit() {
    let window = TIGHT_WINDOW as usize;
    let batches = [
        vec![
            FrameOp::Next { flow: 0, len: 1460 },
            FrameOp::Next { flow: 1, len: 700 },
            FrameOp::Next { flow: 0, len: 1460 },
            FrameOp::Next { flow: 0, len: 1460 }, // 284 bytes too long: trimmed
            FrameOp::Next { flow: 0, len: 500 },  // window shut: dropped
            FrameOp::Next { flow: 1, len: 700 },
        ],
        // Still no credit. Flow 0's client retransmits from where the
        // server's ACK said it was; nothing fits.
        vec![FrameOp::Behind { flow: 0, back: 784, len: 784 }, FrameOp::Next { flow: 1, len: 700 }],
        // Credited after this batch, whose retransmission is dropped too.
        vec![FrameOp::Behind { flow: 0, back: 784, len: 784 }],
        // Window open again: the retransmission lands and the rest follows.
        vec![FrameOp::Behind { flow: 0, back: 784, len: 784 }, FrameOp::Next { flow: 0, len: 300 }],
    ];
    for policy in POLICIES {
        for feed in [Feed::Batch, Feed::OneByOne] {
            let mode = Mode { policy, syn_cookies: false, feed, tight: true };
            let mut h = Harness::establish(mode, &[77, u32::MAX - 3_000, 5, 6]);
            for (i, batch) in batches.iter().enumerate() {
                h.run_batch(batch, i >= 2);
                let want = if i < 3 { window } else { window + 784 + 300 };
                assert_eq!(h.streams[0].len(), want, "flow 0 after batch {i} under {policy:?}");
            }
            assert_eq!(h.streams[1].len(), 2100, "flow 1 never filled its window");
            h.settle();
        }
    }
}

/// The headline pin, CI-grepped by name: `input()` is the receive path
/// on a batch of one, so plans fed one frame per `input()` call must
/// equal the reference *globally* — every wire frame (ident included),
/// every event, the full stats block — under all three ACK policies,
/// across plans mixing runs, reordering, corruption, passive opens and
/// teardown. This is what keeps every per-frame caller (the Linux and
/// mTCP models, the quiesce drain, the golden traces) where it is. A
/// shard only ever fed through `input()` also never grows the staging
/// arrays `input_batch` groups in.
#[test]
fn batch_of_one_is_byte_identical() {
    let batches = vec![
        (0..16).map(|j| FrameOp::Next { flow: j % N_FLOWS, len: 128 }).collect(),
        vec![
            FrameOp::Ahead { flow: 0, gap: 64, len: 64 },
            FrameOp::BadSum { flow: 1, len: 64 },
            FrameOp::Next { flow: 0, len: 64 },
            FrameOp::Syn { flow: 5 },
            FrameOp::Behind { flow: 2, back: 50, len: 80 },
            FrameOp::Rst { flow: 3 },
            FrameOp::Syn { flow: 3 },
        ],
        vec![FrameOp::Fin { flow: 1 }, FrameOp::Next { flow: 2, len: 700 }, FrameOp::Next { flow: 3, len: 9 }],
    ];
    for policy in POLICIES {
        for syn_cookies in [false, true] {
            for tight in [false, true] {
                let mode = Mode { policy, syn_cookies, feed: Feed::OneByOne, tight };
                let h = run_mode(mode, [9, 8, 7, 6], &batches);
                let staging = &h.pipeline.scratch_buffers()[4..];
                assert!(staging.iter().all(|&(_, cap)| cap == 0), "input() touched the staging arrays");
            }
        }
    }
}

// ---------------------------------------------------------------------
// The differential property: random interleavings of everything.
// ---------------------------------------------------------------------

fn op_strategy() -> impl Strategy<Value = FrameOp> {
    let fl = 0usize..N_FLOWS;
    prop_oneof![
        6 => (fl.clone(), 1usize..900).prop_map(|(flow, len)| FrameOp::Next { flow, len }),
        2 => (fl.clone(), 1usize..1200, 1usize..600)
            .prop_map(|(flow, gap, len)| FrameOp::Ahead { flow, gap, len }),
        2 => (fl.clone(), 1usize..1200, 1usize..600)
            .prop_map(|(flow, back, len)| FrameOp::Behind { flow, back, len }),
        1 => (fl.clone(), 1usize..300).prop_map(|(flow, len)| FrameOp::BadSum { flow, len }),
        1 => fl.clone().prop_map(|flow| FrameOp::BadDst { flow }),
        1 => fl.clone().prop_map(|flow| FrameOp::Runt { flow }),
        1 => fl.clone().prop_map(|flow| FrameOp::Fin { flow }),
        1 => fl.prop_map(|flow| FrameOp::Rst { flow }),
        1 => (0usize..N_TUPLES).prop_map(|flow| FrameOp::Syn { flow }),
    ]
}

props! {
    #![config(cases = 256)]

    #[test]
    fn pipeline_matches_reference_immediate(
        isns in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        batches in collection::vec(collection::vec(op_strategy(), 1..48), 1..5),
    ) {
        run_plan(AckPolicy::Immediate, [isns.0, isns.1, isns.2, isns.3], &batches);
    }

    #[test]
    fn pipeline_matches_reference_endofcycle(
        isns in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        batches in collection::vec(collection::vec(op_strategy(), 1..48), 1..5),
    ) {
        run_plan(AckPolicy::EndOfCycle, [isns.0, isns.1, isns.2, isns.3], &batches);
    }

    #[test]
    fn pipeline_matches_reference_delayed(
        isns in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        batches in collection::vec(collection::vec(op_strategy(), 1..48), 1..5),
    ) {
        run_plan(DELAYED, [isns.0, isns.1, isns.2, isns.3], &batches);
    }

    #[test]
    fn batch_of_one_matches_reference_globally(
        isns in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        batches in collection::vec(collection::vec(op_strategy(), 1..48), 1..5),
        policy in 0usize..3,
        syn_cookies in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let mode = Mode { policy: POLICIES[policy], syn_cookies, feed: Feed::OneByOne, tight };
        run_mode(mode, [isns.0, isns.1, isns.2, isns.3], &batches);
    }
}
