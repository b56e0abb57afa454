//! Differential property suite for RX reassembly: hand-crafted TCP
//! segments — overlapping, duplicate, stale, window-poking, reordered —
//! are driven into one [`TcpShard`] and simultaneously into a *naive
//! byte-stream oracle* that reimplements RFC 793 receive-side trimming
//! with plain `Vec` copies and no buffer management at all. The stack
//! (zero-copy, mbuf-moving, credit-gated) must match it observable for
//! observable:
//!
//! - the delivered byte stream (concatenated `Recv` payloads),
//! - `rcv_nxt` (the ACK field of every emitted acknowledgment),
//! - the advertised receive window (the window field of the same ACKs,
//!   backed by `rcv_outstanding`/`ooo_bytes` accounting),
//! - the retained-buffer census (`rx_held_payloads` and the
//!   `rx_pool_outstanding` gauge vs the oracle's held/ooo sets).
//!
//! The client side of the connection is synthesized frame by frame, so
//! sequence numbers (including wraparound ISNs) and segment geometry are
//! entirely under test control — no sender stack smooths them out.

use std::collections::{BTreeMap, VecDeque};

use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_tcp::{FlowId, StackConfig, TcpEvent, TcpShard};
use ix_testkit::prelude::*;
use ix_testkit::Bytes;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLI_PORT: u16 = 40_000;
const SRV_PORT: u16 = 80;

fn mac(i: u16) -> MacAddr {
    MacAddr::from_host_index(i)
}

/// Wrapping sequence-space comparisons (RFC 793 arithmetic), mirrored
/// from the stack so the oracle agrees near ISN wraparound.
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// The byte carried at absolute stream offset `p` — a fixed pseudorandom
/// function, so duplicated and overlapping segments are consistent the
/// way a real sender's retransmissions are.
fn byte_at(p: usize) -> u8 {
    ((p as u32).wrapping_mul(2_654_435_761) >> 24) as u8
}

/// Crafts one client→server TCP frame with a valid checksum.
fn frame(seq: u32, ack: u32, flags: TcpFlags, mss: Option<u16>, payload: &[u8]) -> Mbuf {
    let hdr = TcpHeader {
        src_port: CLI_PORT,
        dst_port: SRV_PORT,
        seq,
        ack,
        flags,
        window: 65_535,
        mss,
        wscale: None,
    };
    let hlen = hdr.len();
    let mut m = Mbuf::standalone();
    {
        let region = m.append(hlen + payload.len());
        region[hlen..].copy_from_slice(payload);
        let (h, t) = region.split_at_mut(hlen);
        hdr.encode(h, A_IP, B_IP, t);
    }
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + hlen + payload.len()) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Tcp,
        src: A_IP,
        dst: B_IP,
    }
    .encode(m.prepend(Ipv4Header::LEN));
    EthHeader { dst: mac(2), src: mac(1), ethertype: EtherType::Ipv4 }
        .encode(m.prepend(EthHeader::LEN));
    m
}

/// Decodes a server-emitted frame down to its TCP header + payload len.
fn decode(mut f: Mbuf) -> (TcpHeader, usize) {
    f.pull(EthHeader::LEN);
    let ip = Ipv4Header::decode(f.data()).expect("ip");
    f.pull(Ipv4Header::LEN);
    let (hdr, hlen) = TcpHeader::decode(f.data(), ip.src, ip.dst).expect("tcp");
    (hdr, ip.total_len as usize - Ipv4Header::LEN - hlen)
}

/// The server under test plus the synthesized client's view of it.
struct Server {
    b: TcpShard,
    now: u64,
    flow: FlowId,
    /// `server_iss + 1`: what every injected segment acknowledges.
    srv_ack: u32,
}

impl Server {
    /// Stands up a listener and walks it through a handshake whose
    /// client ISN is exactly `isn - 1` (so the first payload byte of the
    /// stream carries sequence number `isn`).
    fn establish(isn: u32) -> Server {
        let mut b = TcpShard::new(StackConfig::default(), B_IP, mac(2));
        b.arp_seed(A_IP, mac(1));
        b.listen(SRV_PORT);
        let mut now = 1_000;
        b.input(now, frame(isn.wrapping_sub(1), 0, TcpFlags::SYN, Some(1460), &[]));
        b.end_cycle(now);
        let mut siss = None;
        for f in b.take_tx() {
            let (hdr, _) = decode(f);
            if hdr.flags.syn && hdr.flags.ack {
                assert_eq!(hdr.ack, isn, "SYN-ACK acks our ISN");
                siss = Some(hdr.seq);
            }
        }
        let siss = siss.expect("SYN-ACK emitted");
        let srv_ack = siss.wrapping_add(1);
        now += 1_000;
        b.input(now, frame(isn, srv_ack, TcpFlags::ACK, None, &[]));
        b.end_cycle(now);
        let mut flow = None;
        for e in b.take_events() {
            if let TcpEvent::Knock { flow: fl, .. } = e {
                b.accept(fl, 0xB).unwrap();
                flow = Some(fl);
            }
        }
        let _ = b.take_tx();
        Server { b, now, flow: flow.expect("knock"), srv_ack }
    }

    /// Injects one data segment; returns the `Recv` payloads it produced
    /// and every (ack, window) pair the server emitted in response.
    fn inject(&mut self, seq: u32, payload: &[u8]) -> (Vec<Bytes>, Vec<(u32, u16)>) {
        self.now += 1_000;
        self.b.input(self.now, frame(seq, self.srv_ack, TcpFlags::ACK, None, payload));
        self.b.end_cycle(self.now);
        let mut acks = Vec::new();
        for f in self.b.take_tx() {
            let (hdr, plen) = decode(f);
            if hdr.flags.ack && plen == 0 {
                acks.push((hdr.ack, hdr.window));
            }
        }
        let recvs = self
            .b
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                TcpEvent::Recv { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        (recvs, acks)
    }
}

/// The naive oracle: RFC 793 receive processing over plain `Vec<u8>`,
/// copying freely, with the same first-wins out-of-order coalescing and
/// `recv_done`-credit window the stack implements.
struct Oracle {
    isn: u32,
    /// Contiguously delivered byte count (`rcv_nxt - isn`).
    mark: usize,
    delivered: Vec<u8>,
    /// Delivered-but-uncredited bytes (shrinks the advertised window).
    outstanding: u32,
    /// Credit applied to the (partially released) front held buffer.
    front_credit: u32,
    /// Lengths of the per-delivery buffers the stack still holds.
    held: VecDeque<u32>,
    ooo: BTreeMap<u32, Vec<u8>>,
    ooo_bytes: u32,
}

impl Oracle {
    fn new(isn: u32) -> Oracle {
        Oracle {
            isn,
            mark: 0,
            delivered: Vec::new(),
            outstanding: 0,
            front_credit: 0,
            held: VecDeque::new(),
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
        }
    }

    fn rcv_nxt(&self) -> u32 {
        self.isn.wrapping_add(self.mark as u32)
    }

    fn window(&self) -> u32 {
        65_535u32.saturating_sub(self.outstanding).saturating_sub(self.ooo_bytes)
    }

    fn deliver(&mut self, d: Vec<u8>) {
        self.mark += d.len();
        self.outstanding += d.len() as u32;
        self.held.push_back(d.len() as u32);
        self.delivered.extend_from_slice(&d);
    }

    fn segment(&mut self, seq: u32, data: &[u8]) {
        let rcv = self.rcv_nxt();
        let wnd = self.window();
        let end = seq.wrapping_add(data.len() as u32);
        let win_end = rcv.wrapping_add(wnd);
        if seq_le(end, rcv) {
            return; // Entirely old.
        }
        if !seq_lt(seq, win_end) {
            return; // Entirely beyond the window.
        }
        let mut s = seq;
        let mut d = data.to_vec();
        if seq_lt(s, rcv) {
            d.drain(..rcv.wrapping_sub(s) as usize);
            s = rcv;
        }
        let seg_end = s.wrapping_add(d.len() as u32);
        if seq_lt(win_end, seg_end) {
            d.truncate(win_end.wrapping_sub(s) as usize);
        }
        if d.is_empty() {
            return;
        }
        if s == rcv {
            self.deliver(d);
            self.drain();
        } else if !self.ooo.contains_key(&s) {
            self.ooo_bytes += d.len() as u32;
            self.ooo.insert(s, d);
        }
    }

    fn drain(&mut self) {
        loop {
            let rcv = self.rcv_nxt();
            let Some((&s, _)) = self
                .ooo
                .iter()
                .find(|(&s, d)| seq_le(s, rcv) && seq_lt(rcv, s.wrapping_add(d.len() as u32)))
            else {
                break;
            };
            let d = self.ooo.remove(&s).expect("present");
            self.ooo_bytes -= d.len() as u32;
            let skip = rcv.wrapping_sub(s) as usize;
            if skip >= d.len() {
                continue;
            }
            self.deliver(d[skip..].to_vec());
        }
        let rcv = self.rcv_nxt();
        let stale: Vec<u32> = self
            .ooo
            .iter()
            .filter(|(&s, d)| seq_le(s.wrapping_add(d.len() as u32), rcv))
            .map(|(&s, _)| s)
            .collect();
        for s in stale {
            let d = self.ooo.remove(&s).expect("present");
            self.ooo_bytes -= d.len() as u32;
        }
    }

    fn credit(&mut self, n: u32) {
        self.outstanding -= n;
        self.front_credit += n;
        while let Some(&front) = self.held.front() {
            if self.front_credit < front {
                break;
            }
            self.front_credit -= front;
            self.held.pop_front();
        }
    }
}

/// One step of a reassembly plan, interpreted against the oracle's
/// current state (so "ahead"/"behind" track the moving rcv_nxt).
#[derive(Debug, Clone)]
enum Op {
    /// The next in-order chunk.
    Next { len: usize },
    /// A reordered segment starting `gap` bytes past rcv_nxt.
    Ahead { gap: usize, len: usize },
    /// A stale or overlapping segment starting `back` bytes before
    /// rcv_nxt (clamped to the start of the stream).
    Behind { back: usize, len: usize },
    /// A window-poking segment ending `back` bytes inside the advertised
    /// window's right edge (`back = 0` is entirely beyond it).
    Poke { back: usize, len: usize },
    /// `recv_done` credit (clamped to what is outstanding).
    Credit { n: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..1200).prop_map(|len| Op::Next { len }),
        3 => (1usize..2500, 1usize..1200).prop_map(|(gap, len)| Op::Ahead { gap, len }),
        2 => (1usize..2500, 1usize..1200).prop_map(|(back, len)| Op::Behind { back, len }),
        1 => (0usize..4, 1usize..1200).prop_map(|(back, len)| Op::Poke { back, len }),
        2 => (1u32..50_000).prop_map(|n| Op::Credit { n }),
    ]
}

/// Applies one op to both implementations and cross-checks every
/// observable. Returns the payload bytes the stack delivered.
fn apply_and_check(srv: &mut Server, oracle: &mut Oracle, op: &Op, got: &mut Vec<u8>) {
    let (off, len) = match *op {
        Op::Next { len } => (oracle.mark, len),
        Op::Ahead { gap, len } => (oracle.mark + gap, len),
        Op::Behind { back, len } => (oracle.mark.saturating_sub(back), len),
        Op::Poke { back, len } => (oracle.mark + oracle.window() as usize - back.min(oracle.window() as usize), len),
        Op::Credit { n } => {
            let credit = n.min(oracle.outstanding);
            if credit > 0 {
                srv.b.recv_done(srv.now, srv.flow, credit).expect("valid credit");
                oracle.credit(credit);
                // Any window-update ACK must restate the agreed state.
                for f in srv.b.take_tx() {
                    let (hdr, _) = decode(f);
                    assert_eq!(hdr.ack, oracle.rcv_nxt());
                    assert_eq!(hdr.window as u32, oracle.window());
                }
            }
            check_census(srv, oracle);
            return;
        }
    };
    let payload: Vec<u8> = (off..off + len).map(byte_at).collect();
    let seq = oracle.isn.wrapping_add(off as u32);
    let (recvs, acks) = srv.inject(seq, &payload);
    oracle.segment(seq, &payload);
    for r in &recvs {
        got.extend_from_slice(r);
    }
    assert_eq!(got.len(), oracle.delivered.len(), "delivered byte count diverged");
    assert!(got == &oracle.delivered, "delivered byte stream diverged");
    assert!(!acks.is_empty(), "every data segment elicits an ACK");
    for (ack, window) in acks {
        assert_eq!(ack, oracle.rcv_nxt(), "rcv_nxt trajectory diverged");
        assert_eq!(window as u32, oracle.window(), "advertised window diverged");
    }
    check_census(srv, oracle);
}

/// The stack's retained-buffer census must match the oracle's: held
/// deliveries + buffered out-of-order segments, both in count (the
/// `rx_pool_outstanding` gauge) and in held-queue shape.
fn check_census(srv: &Server, oracle: &Oracle) {
    let held = srv.b.rx_held_payloads(srv.flow);
    assert_eq!(held.len(), oracle.held.len(), "held-buffer count diverged");
    for (h, &olen) in held.iter().zip(oracle.held.iter()) {
        assert_eq!(h.len() as u32, olen, "held-buffer length diverged");
    }
    assert_eq!(
        srv.b.stats.rx_pool_outstanding,
        (oracle.held.len() + oracle.ooo.len()) as u64,
        "pool gauge diverged from held + ooo census"
    );
}

// ---------------------------------------------------------------------
// Directed scenarios: one per adversarial segment class.
// ---------------------------------------------------------------------

fn run_plan(isn: u32, plan: &[Op]) {
    let mut srv = Server::establish(isn);
    let mut oracle = Oracle::new(isn);
    let mut got = Vec::new();
    for op in plan {
        apply_and_check(&mut srv, &mut oracle, op, &mut got);
    }
    // Every delivered byte is the byte the stream carries there.
    let want: Vec<u8> = (0..oracle.mark).map(byte_at).collect();
    assert_eq!(got, want, "stream content corrupted");
    assert_eq!(srv.b.stats.rx_payload_copies, 0, "RX copies must stay pinned at zero");
    assert_eq!(srv.b.stats.rx_ooo_copies, 0, "OOO drain must not copy");
}

#[test]
fn duplicate_segments_are_idempotent() {
    run_plan(
        1_000,
        &[
            Op::Next { len: 700 },
            Op::Behind { back: 700, len: 700 }, // Exact duplicate.
            Op::Behind { back: 700, len: 700 },
            Op::Next { len: 300 },
            Op::Credit { n: 1_000 },
        ],
    );
}

#[test]
fn overlapping_retransmit_is_front_trimmed() {
    run_plan(
        5_000,
        &[
            Op::Next { len: 600 },
            // Covers 200 old bytes and 400 new ones.
            Op::Behind { back: 200, len: 600 },
            Op::Credit { n: 500 },
            Op::Next { len: 100 },
        ],
    );
}

#[test]
fn reordered_segments_fill_backwards() {
    run_plan(
        42,
        &[
            Op::Ahead { gap: 800, len: 400 },
            Op::Ahead { gap: 400, len: 400 },
            Op::Next { len: 400 }, // Fills the hole; all 1200 deliver.
            Op::Credit { n: 1_200 },
        ],
    );
}

#[test]
fn stale_ooo_buffers_are_purged_on_drain() {
    run_plan(
        9_999,
        &[
            Op::Ahead { gap: 100, len: 50 },
            // An in-order chunk long enough to make the buffered
            // segment entirely stale once it lands.
            Op::Next { len: 400 },
            Op::Credit { n: 400 },
        ],
    );
}

#[test]
fn window_pokes_are_clipped_or_dropped() {
    run_plan(
        77,
        &[
            Op::Poke { back: 0, len: 500 }, // Entirely beyond: dropped.
            Op::Poke { back: 2, len: 500 }, // Two bytes land, tail clipped.
            Op::Next { len: 200 },
            Op::Credit { n: 100 },
        ],
    );
}

#[test]
fn zero_window_after_uncredited_backlog() {
    // 65_535 bytes delivered with no credit closes the window; further
    // in-order data must bounce until credit reopens it.
    let mut plan: Vec<Op> = (0..60).map(|_| Op::Next { len: 1_100 }).collect();
    plan.push(Op::Next { len: 1_000 }); // Clipped to the last 535 bytes...
    plan.push(Op::Next { len: 500 }); // ...and this one is refused.
    plan.push(Op::Credit { n: 30_000 });
    plan.push(Op::Next { len: 500 }); // Accepted again.
    run_plan(123_456, &plan);
}

#[test]
fn isn_wraparound_is_transparent() {
    run_plan(
        u32::MAX - 700, // The stream crosses sequence zero mid-plan.
        &[
            Op::Next { len: 500 },
            Op::Ahead { gap: 300, len: 300 },
            Op::Next { len: 300 },
            Op::Behind { back: 400, len: 600 },
            Op::Credit { n: 1_100 },
        ],
    );
}

// ---------------------------------------------------------------------
// The differential property: arbitrary adversarial plans, arbitrary
// ISNs (wraparound included), every observable matched step by step.
// ---------------------------------------------------------------------

props! {
    #![config(cases = 256)]

    #[test]
    fn reassembly_matches_naive_oracle(
        isn in any::<u32>(),
        plan in collection::vec(op_strategy(), 1..32),
    ) {
        let mut srv = Server::establish(isn);
        let mut oracle = Oracle::new(isn);
        let mut got = Vec::new();
        for op in &plan {
            apply_and_check(&mut srv, &mut oracle, op, &mut got);
        }
        let want: Vec<u8> = (0..oracle.mark).map(byte_at).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(srv.b.stats.rx_payload_copies, 0);
        prop_assert_eq!(srv.b.stats.rx_ooo_copies, 0);
    }
}
