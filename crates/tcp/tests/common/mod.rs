//! The two-shard wire every `ix-tcp` suite shares: two addresses, one
//! [`Pair`] of shards wired back to back with loss and mangling hooks,
//! the handshake and delivery helpers, the deterministic hostile-wire
//! roll, and a hand-built UDP datagram.

use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::udp::UdpHeader;
use ix_tcp::{FlowId, StackConfig, TcpEvent, TcpShard};
use ix_testkit::Bytes;

/// Shard `a`'s address (the client side).
pub const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Shard `b`'s address (the server side).
pub const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Host `i`'s MAC address.
pub fn mac(i: u16) -> MacAddr {
    MacAddr::from_host_index(i)
}

/// Takes the shard's pending upcall events.
pub fn events(shard: &mut TcpShard) -> Vec<TcpEvent> {
    shard.take_events_swap(Vec::new())
}

/// Takes the shard's outbound frames.
pub fn outbound(shard: &mut TcpShard) -> Vec<Mbuf> {
    shard.take_tx_swap(Vec::new())
}

/// A per-frame mutator (wire corruption), fed a running frame index.
pub type Mangler = Box<dyn FnMut(u64, &mut Mbuf)>;

/// A deterministic two-host wire: shard `a` at [`A_IP`] and shard `b`
/// at [`B_IP`], ARP seeded both ways, no NIC or simulator in between.
pub struct Pair {
    /// The client-side shard.
    pub a: TcpShard,
    /// The server-side shard.
    pub b: TcpShard,
    /// Virtual time, ns.
    pub now: u64,
    /// Called per frame with a running index; return false to drop.
    pub keep: Box<dyn FnMut(u64) -> bool>,
    /// Called per kept frame; may mutate the frame in place.
    pub mangle: Mangler,
    /// Frames offered to the wire so far (the index `keep` sees).
    pub frames_moved: u64,
}

impl Pair {
    /// Two shards on `cfg`. ARP is seeded so the suites focus on TCP;
    /// `protocol.rs` has its own cold-start test.
    pub fn new(cfg: StackConfig) -> Pair {
        let mut a = TcpShard::new(cfg.clone(), A_IP, mac(1));
        let mut b = TcpShard::new(cfg, B_IP, mac(2));
        a.arp_seed(B_IP, mac(2));
        b.arp_seed(A_IP, mac(1));
        Pair {
            a,
            b,
            now: 0,
            keep: Box::new(|_| true),
            mangle: Box::new(|_, _| {}),
            frames_moved: 0,
        }
    }

    /// Moves frames between the shards until both are idle or
    /// `max_rounds` passes elapse. Each round advances time by `step_ns`.
    pub fn pump(&mut self, step_ns: u64, max_rounds: usize) {
        for _ in 0..max_rounds {
            self.now += step_ns;
            let from_a = outbound(&mut self.a);
            let from_b = outbound(&mut self.b);
            let idle = from_a.is_empty() && from_b.is_empty();
            for mut f in from_a {
                self.frames_moved += 1;
                if (self.keep)(self.frames_moved) {
                    (self.mangle)(self.frames_moved, &mut f);
                    self.b.input(self.now, f);
                }
            }
            for mut f in from_b {
                self.frames_moved += 1;
                if (self.keep)(self.frames_moved) {
                    (self.mangle)(self.frames_moved, &mut f);
                    self.a.input(self.now, f);
                }
            }
            self.a.end_cycle(self.now);
            self.b.end_cycle(self.now);
            self.a.advance_timers(self.now);
            self.b.advance_timers(self.now);
            // Stop only when this round moved nothing and nothing new was
            // produced by end-of-cycle ACKs or timers.
            if idle && self.a.tx_len() == 0 && self.b.tx_len() == 0 {
                break;
            }
        }
    }

    /// Runs the wire for `dur_ns` (for timer-driven behaviour).
    pub fn run_for(&mut self, step_ns: u64, dur_ns: u64) {
        let end = self.now + dur_ns;
        while self.now < end {
            self.pump(step_ns, 1);
        }
    }
}

/// Establishes a connection from `a` to `b` (which listens on `port`) and
/// returns the two flow handles (client side, server side). The server
/// accepts with cookie `0xBBB`.
pub fn establish(p: &mut Pair, port: u16) -> (FlowId, FlowId) {
    p.b.listen(port);
    let cf = p.a.connect(p.now, B_IP, port, 0xAAA).expect("connect");
    p.pump(1_000, 32);
    let mut client_flow = None;
    for e in events(&mut p.a) {
        if let TcpEvent::Connected { flow, ok, .. } = e {
            assert!(ok, "handshake failed");
            client_flow = Some(flow);
        }
    }
    let mut server_flow = None;
    for e in events(&mut p.b) {
        if let TcpEvent::Knock { flow, src_ip, src_port } = e {
            assert_eq!(src_ip, A_IP);
            assert!(src_port >= 16_384);
            p.b.accept(flow, 0xBBB).unwrap();
            server_flow = Some(flow);
        }
    }
    assert_eq!(client_flow, Some(cf), "connected event");
    (cf, server_flow.expect("knock event"))
}

/// Pulls the `Recv` payloads out of an event batch, in order.
pub fn recv_payloads(events: Vec<TcpEvent>) -> Vec<Bytes> {
    events
        .into_iter()
        .filter_map(|e| match e {
            TcpEvent::Recv { payload, .. } => Some(payload),
            _ => None,
        })
        .collect()
}

/// Deterministic per-frame hostile-wire decisions: SplitMix64 over a
/// frame counter, seeded.
pub struct Wire {
    /// The stream's seed.
    pub seed: u64,
    /// Percent of frames dropped.
    pub drop_pct: u64,
    /// Percent of frames delivered twice.
    pub dup_pct: u64,
    /// Percent of frames held back one round (reordering).
    pub delay_pct: u64,
    /// Frames decided so far.
    pub counter: u64,
}

impl Wire {
    /// Rolls the next frame's fate: `(drop, dup, delay)`, at most one set.
    pub fn decide(&mut self) -> (bool, bool, bool) {
        self.counter += 1;
        let mut z = self.seed.wrapping_add(self.counter.wrapping_mul(0x9e3779b97f4a7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let roll = z % 100;
        let drop = roll < self.drop_pct;
        let dup = !drop && roll < self.drop_pct + self.dup_pct;
        let delay = !drop && !dup && roll < self.drop_pct + self.dup_pct + self.delay_pct;
        (drop, dup, delay)
    }
}

/// A UDP datagram from `a` (port 5000) to `b` (port 11211) carrying
/// `payload`, built with `ix_net`'s encoders.
pub fn udp_frame(payload: &[u8]) -> Mbuf {
    let mut m = Mbuf::standalone();
    let len = UdpHeader::LEN + payload.len();
    {
        let region = m.append(len);
        let (h, body) = region.split_at_mut(UdpHeader::LEN);
        body.copy_from_slice(payload);
        UdpHeader { src_port: 5000, dst_port: 11211, len: len as u16 }.encode(h, A_IP, B_IP, payload);
    }
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + len) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Udp,
        src: A_IP,
        dst: B_IP,
    }
    .encode(m.prepend(Ipv4Header::LEN));
    EthHeader { dst: mac(2), src: mac(1), ethertype: EtherType::Ipv4 }.encode(m.prepend(EthHeader::LEN));
    m
}
