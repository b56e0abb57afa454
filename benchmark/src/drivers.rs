//! Layer drivers: benchmark-owned loops that push the workload's own
//! traffic shape through each layer's public entry points, one span per
//! call or burst of calls.
//!
//! The full testbed cannot be timed from outside below the application
//! boundary, so each layer is driven on its own: a back-to-back
//! `TcpShard` pair for the protocol paths, the frames that pair put on
//! its wire for checksum, parse, rings and fabric, and synthetic
//! schedules at the recorded mix for the timer wheel and the event
//! engine. Message size, flows per shard, frames per batch and — for
//! `kv_etc` — the seeded request mix are the workload's.
//!
//! Short operations are spanned a burst at a time (`ops` holds the burst
//! length), and the cost of an empty span is measured and subtracted, so
//! a 10 ns operation is not reported as two clock reads.

use std::collections::HashMap;

use ix_apps::workload::{proto, Workload, WorkloadKind};
use ix_mempool::{Mbuf, MbufPool};
use ix_net::eth::{EthHeader, MacAddr};
use ix_net::ip::{Ipv4Addr, Ipv4Header};
use ix_net::rss::{hash_ipv4_tuple, TOEPLITZ_DEFAULT_KEY};
use ix_net::tcp::TcpHeader;
use ix_nic::fabric::Fabric;
use ix_nic::nic::Nic;
use ix_nic::params::MachineParams;
use ix_nic::ring::{RxRing, TxRing};
use ix_sim::{Nanos, SimRng, Simulator};
use ix_tcp::{FlowId, StackConfig, TcpEvent, TcpShard};
use ix_testkit::Bytes;
use ix_timerwheel::TimerWheel;
use std::hint::black_box;

use crate::run::{metric, Metric, Pass};
use crate::trace::Rec;
use crate::workloads::{App, Spec};

const PORT: u16 = 7000;
/// Frames kept from the shard pair's wire for the frame-level drivers.
const CORPUS: usize = 2048;
/// Operations per span in the drivers of short operations (checksum,
/// pool, wheel, rings, fabric, engine), whose cost does not depend on the
/// server's batch size: a span per 10 ns operation would time the clock.
const BURST: usize = 32;
/// Virtual time between driver rounds: a little over one wheel tick.
const ROUND_NS: u64 = 20_000;

/// The workload's traffic shape as the drivers need it.
struct Shape {
    /// Connections one server shard holds.
    flows: usize,
    /// Frames per polled batch, from `core.avg_batch`.
    batch: usize,
    /// Rounds of `batch` messages the protocol driver runs.
    rounds: usize,
    /// `(request bytes, response bytes)` of message `i`.
    sizes: Vec<(usize, usize)>,
}

impl Shape {
    /// Spanned bursts the short-operation drivers run: as many
    /// operations as the protocol driver moves messages, within bounds
    /// that keep a quick run quick and a full run under a second each.
    fn bursts(&self) -> usize {
        (self.rounds * self.batch / BURST).clamp(200, 4_000)
    }
}

fn shape(spec: &Spec, seed: u64, seconds: u64, counts: &Pass) -> Shape {
    let iters = counts.after.dp.iterations - counts.before.dp.iterations;
    let avg_batch = crate::run::per(
        counts.after.dp.batch_sum - counts.before.dp.batch_sum,
        iters,
    );
    let batch = (avg_batch.round() as usize).clamp(1, 64);
    let rounds = (200_000 / batch).clamp(2_000, 20_000) * seconds as usize / 10;
    let sizes = match spec.app {
        App::Echo { msg, .. } => vec![(msg, msg)],
        App::Rotating { .. } => vec![(64, 64)],
        App::KvEtc { .. } => {
            let wl = Workload::new(WorkloadKind::Etc);
            let mut rng = SimRng::new(seed.wrapping_mul(0x9e37));
            (0..4096)
                .map(|_| {
                    let op = wl.next_op(&mut rng);
                    let head = proto::REQ_HDR + op.key_len;
                    if op.is_get {
                        (head, proto::RSP_HDR + op.val_len)
                    } else {
                        (head + op.val_len, proto::RSP_HDR)
                    }
                })
                .collect()
        }
    };
    Shape {
        flows: (spec.conns / spec.cores).max(1),
        batch,
        rounds: rounds.max(50),
        sizes,
    }
}

/// What the drivers found, for the report.
pub struct Layers {
    /// The host-timing metrics the drivers produce.
    pub metrics: Vec<Metric>,
    /// Frames one connection's handshake and reset put on the wire.
    pub frames_per_conn: f64,
    /// Simulator events the fabric spends on one frame.
    pub fabric_events_per_frame: f64,
}

/// Runs every driver, recording into `rec`.
pub fn run(spec: &Spec, seed: u64, seconds: u64, counts: &Pass, rec: &Rec) -> Layers {
    let sh = shape(spec, seed, seconds, counts);
    let overhead = span_overhead(rec);
    let per_op = |name: &str| {
        let t = rec.borrow().total(name);
        (t.ns as f64 - t.spans as f64 * overhead).max(0.0) / t.ops.max(1) as f64
    };

    let (corpus, frames_per_conn) = tcp_pair(&sh, rec);
    net(&sh, &corpus, rec);
    mempool(&sh, rec);
    timerwheel(&sh, rec);
    rings(&sh, &corpus, rec);
    let fabric_events_per_frame = fabric(&sh, &corpus, rec);
    engine(&sh, seed, counts, rec);

    let metrics = vec![
        metric("sim.engine_ns_per_event", per_op("sim.engine"), "ns"),
        metric("tcp.input_ns_per_frame", per_op("tcp.input"), "ns"),
        metric("tcp.send_ns_per_msg", per_op("tcp.send"), "ns"),
        metric("tcp.end_cycle_ns_per_cycle", per_op("tcp.end_cycle"), "ns"),
        metric("tcp.timers_ns_per_cycle", per_op("tcp.timers"), "ns"),
        metric("tcp.open_close_ns_per_conn", per_op("tcp.open_close"), "ns"),
        metric("net.checksum_ns_per_frame", per_op("net.checksum"), "ns"),
        metric("net.parse_ns_per_frame", per_op("net.parse"), "ns"),
        metric("net.rss_ns_per_flow", per_op("net.rss"), "ns"),
        metric("mempool.alloc_free_ns", per_op("mempool.alloc_free"), "ns"),
        metric(
            "timerwheel.arm_cancel_ns",
            per_op("timerwheel.arm_cancel"),
            "ns",
        ),
        metric(
            "timerwheel.advance_ns_per_tick",
            per_op("timerwheel.advance"),
            "ns",
        ),
        metric("nic.ring_ns_per_frame", per_op("nic.ring"), "ns"),
        metric("nic.fabric_ns_per_frame", per_op("nic.fabric"), "ns"),
    ];
    Layers {
        metrics,
        frames_per_conn,
        fabric_events_per_frame,
    }
}

/// Median host cost of a span around nothing, ns.
fn span_overhead(rec: &Rec) -> f64 {
    for _ in 0..2_000 {
        let id = rec.borrow_mut().begin("trace.empty");
        rec.borrow_mut().end(id, 0);
    }
    let mut d: Vec<f64> = rec
        .borrow()
        .durations("trace.empty")
        .into_iter()
        .map(|d| d as f64)
        .collect();
    crate::report::median(&mut d)
}

/// Runs `f` inside a span when `rec` is given.
fn spanned<R>(rec: Option<&Rec>, name: &'static str, ops: usize, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => {
            let id = rec.borrow_mut().begin(name);
            let r = f();
            rec.borrow_mut().end(id, ops as u32);
            r
        }
        None => f(),
    }
}

/// Two shards on a wire of their own: `a` dials and sends requests, `b`
/// listens and answers. Addresses are those of the two hosts the fabric
/// driver builds, so the frames captured here can cross that fabric.
struct Pair {
    a: TcpShard,
    b: TcpShard,
    now: u64,
    /// Client flow of connection `i`.
    flows: Vec<FlowId>,
    /// Client source port to connection index, for the server's `Knock`.
    by_port: HashMap<u16, u64>,
    /// Bytes each side still owes connection `i`: `(request, response)`.
    owed: Vec<(usize, usize)>,
    /// Response length the server sends connection `i`.
    rsp_len: Vec<usize>,
    payload: Bytes,
    completed: u64,
    frames: u64,
    corpus: Vec<Vec<u8>>,
    tx_scratch: Vec<Mbuf>,
    ev_scratch: Vec<TcpEvent>,
}

fn host_ip(i: u16) -> Ipv4Addr {
    Ipv4Addr::from_host_index(i)
}

impl Pair {
    fn new() -> Pair {
        let cfg = StackConfig::default();
        let mut a = TcpShard::new(cfg.clone(), host_ip(1), MacAddr::from_host_index(1));
        let mut b = TcpShard::new(cfg, host_ip(2), MacAddr::from_host_index(2));
        a.arp_seed(host_ip(2), MacAddr::from_host_index(2));
        b.arp_seed(host_ip(1), MacAddr::from_host_index(1));
        b.listen(PORT);
        Pair {
            a,
            b,
            now: 1_000_000,
            flows: Vec::new(),
            by_port: HashMap::new(),
            owed: Vec::new(),
            rsp_len: Vec::new(),
            payload: Bytes::from(vec![0u8; 1 << 16]),
            completed: 0,
            frames: 0,
            corpus: Vec::new(),
            tx_scratch: Vec::new(),
            ev_scratch: Vec::new(),
        }
    }

    /// Ends the sender's cycle and feeds what it emitted to the receiver.
    fn shuttle(&mut self, rec: Option<&Rec>, from_a: bool) -> usize {
        let now = self.now;
        let (src, dst) = if from_a {
            (&mut self.a, &mut self.b)
        } else {
            (&mut self.b, &mut self.a)
        };
        let scratch = std::mem::take(&mut self.tx_scratch);
        let mut frames = spanned(rec, "tcp.end_cycle", 1, || {
            src.end_cycle(now);
            src.take_tx_swap(scratch)
        });
        let n = frames.len();
        if self.corpus.len() < CORPUS && from_a {
            self.corpus.extend(
                frames
                    .iter()
                    .take(CORPUS - self.corpus.len())
                    .map(|f| f.data().to_vec()),
            );
        }
        if n > 0 {
            spanned(rec, "tcp.input", n, || dst.input_batch(now, &mut frames));
        }
        frames.clear();
        self.tx_scratch = frames;
        self.frames += n as u64;
        n
    }

    /// The server application: accept, credit what arrived, answer every
    /// complete request.
    fn serve_b(&mut self, rec: Option<&Rec>) {
        let now = self.now;
        let mut events = self
            .b
            .take_events_swap(std::mem::take(&mut self.ev_scratch));
        for e in events.drain(..) {
            match e {
                TcpEvent::Knock { flow, src_port, .. } => {
                    let i = self.by_port[&src_port];
                    self.b.accept(flow, i).expect("knocked flow exists");
                }
                TcpEvent::Recv {
                    flow,
                    cookie,
                    payload,
                } => {
                    self.b
                        .recv_done(now, flow, payload.len() as u32)
                        .expect("credit");
                    let i = cookie as usize;
                    self.owed[i].0 -= payload.len();
                    if self.owed[i].0 == 0 && self.owed[i].1 > 0 {
                        let rsp = self.payload.slice(..self.rsp_len[i]);
                        let sent =
                            spanned(rec, "tcp.send", 1, || self.b.send_bytes(now, flow, &rsp));
                        assert_eq!(sent.expect("send"), rsp.len(), "response fits the window");
                    }
                }
                _ => {}
            }
        }
        self.ev_scratch = events;
    }

    /// The client application: credit what arrived, count complete replies.
    fn serve_a(&mut self) {
        let now = self.now;
        let mut events = self
            .a
            .take_events_swap(std::mem::take(&mut self.ev_scratch));
        for e in events.drain(..) {
            match e {
                TcpEvent::Connected { ok, .. } => assert!(ok, "driver handshake failed"),
                TcpEvent::Recv {
                    flow,
                    cookie,
                    payload,
                } => {
                    self.a
                        .recv_done(now, flow, payload.len() as u32)
                        .expect("credit");
                    let owed = &mut self.owed[cookie as usize].1;
                    *owed -= payload.len();
                    if *owed == 0 {
                        self.completed += 1;
                    }
                }
                _ => {}
            }
        }
        self.ev_scratch = events;
    }

    /// Moves frames both ways until neither shard has anything to say.
    fn settle(&mut self, rec: Option<&Rec>) {
        loop {
            let to_b = self.shuttle(rec, true);
            self.serve_b(rec);
            let to_a = self.shuttle(rec, false);
            self.serve_a();
            if to_a + to_b == 0 {
                break;
            }
        }
    }

    /// Dials `n` connections and completes their handshakes.
    fn open(&mut self, n: usize) -> std::ops::Range<usize> {
        let first = self.flows.len();
        for i in first..first + n {
            let flow = self
                .a
                .connect(self.now, host_ip(2), PORT, i as u64)
                .expect("connect");
            self.by_port.insert(flow.local_port(), i as u64);
            self.flows.push(flow);
            self.owed.push((0, 0));
            self.rsp_len.push(0);
        }
        self.settle(None);
        first..first + n
    }

    /// One request and its reply on connection `i`.
    fn request(&mut self, rec: Option<&Rec>, i: usize, (req, rsp): (usize, usize)) {
        self.owed[i] = (req, rsp);
        self.rsp_len[i] = rsp;
        let data = self.payload.slice(..req);
        let (now, flow) = (self.now, self.flows[i]);
        let sent = spanned(rec, "tcp.send", 1, || self.a.send_bytes(now, flow, &data));
        assert_eq!(sent.expect("send"), req, "request fits the window");
    }
}

/// Runs `body` unspanned for a warm-up quarter — pools fault their
/// buffers in, tables reach their size — then `n` times with spans.
fn warm_then_spanned(n: usize, rec: &Rec, mut body: impl FnMut(Option<&Rec>)) {
    for _ in 0..(n / 4).max(50) {
        body(None);
    }
    for _ in 0..n {
        body(Some(rec));
    }
}

/// The protocol driver. Returns the captured wire frames and the frames
/// one connection's open and reset cost.
fn tcp_pair(sh: &Shape, rec: &Rec) -> (Vec<Vec<u8>>, f64) {
    let mut p = Pair::new();
    // The workload's per-shard connection population, opened a few at a
    // time and left established for the whole driver.
    while p.flows.len() < sh.flows {
        p.open((sh.flows - p.flows.len()).min(64));
        p.now += ROUND_NS;
    }

    // Steady state: `batch` requests per cycle, round-robin over the
    // flows, each answered before the next round.
    let mut msg = 0;
    warm_then_spanned(sh.rounds, rec, |rec| {
        for _ in 0..sh.batch {
            p.request(rec, msg % sh.flows, sh.sizes[msg % sh.sizes.len()]);
            msg += 1;
        }
        p.settle(rec);
        let now = p.now;
        spanned(rec, "tcp.timers", 2, || {
            p.a.advance_timers(now);
            p.b.advance_timers(now);
        });
        p.now += ROUND_NS;
    });
    assert_eq!(
        p.completed, msg as u64,
        "every driver request was answered in full"
    );

    // Connection churn on top of that population: open, then reset. The
    // inner calls are not spanned, so that the whole lifecycle is one
    // number and SYNs do not dilute `tcp.input`.
    let mut churn_frames = (0u64, 0u64);
    warm_then_spanned((sh.rounds / 8).max(50), rec, |rec| {
        let frames_before = p.frames;
        spanned(rec, "tcp.open_close", BURST, || {
            let opened = p.open(BURST);
            for i in opened {
                let flow = p.flows[i];
                p.a.abort(p.now, flow).expect("abort");
            }
            p.settle(None);
        });
        churn_frames = (
            churn_frames.0 + p.frames - frames_before,
            churn_frames.1 + BURST as u64,
        );
        // Forget the closed connections so indices stay dense.
        let keep = sh.flows;
        for f in p.flows.drain(keep..) {
            p.by_port.remove(&f.local_port());
        }
        p.owed.truncate(keep);
        p.rsp_len.truncate(keep);
        p.now += ROUND_NS;
    });
    assert_eq!(
        p.a.stats.retransmits + p.b.stats.retransmits,
        0,
        "driver wire is lossless"
    );
    (p.corpus, churn_frames.0 as f64 / churn_frames.1 as f64)
}

/// The next `BURST` frames of the corpus, cyclically.
fn burst_of<'a>(corpus: &'a [Vec<u8>], next: &mut usize) -> Vec<&'a [u8]> {
    let out = (0..BURST)
        .map(|j| corpus[(*next + j) % corpus.len()].as_slice())
        .collect();
    *next += BURST;
    out
}

/// Header decode and checksum over the captured frames.
fn net(sh: &Shape, corpus: &[Vec<u8>], rec: &Rec) {
    const L3: usize = EthHeader::LEN;
    const L4: usize = EthHeader::LEN + Ipv4Header::LEN;
    let (mut next, mut port) = (0, 0usize);
    warm_then_spanned(sh.bursts(), rec, |rec| {
        let frames = burst_of(corpus, &mut next);
        // On the testbed a frame has just been copied into its RX buffer
        // when the stack reads it; touch it so neither span below pays
        // the other's cache misses.
        for f in &frames {
            black_box(f.iter().fold(0u8, |a, b| a ^ b));
        }
        // The sums a receiver verifies: IPv4 header, then pseudo-header
        // plus the whole TCP segment.
        spanned(rec, "net.checksum", BURST, || {
            for f in &frames {
                let ip = ix_net::checksum::checksum(&f[L3..L4]);
                let mut c = ix_net::checksum::Checksum::new();
                ix_net::checksum::add_pseudo_header(
                    &mut c,
                    host_ip(1),
                    host_ip(2),
                    6,
                    (f.len() - L4) as u16,
                );
                c.add(&f[L4..]);
                black_box((ip, c.finish()));
            }
        });
        // The full validating decode, which contains those sums.
        spanned(rec, "net.parse", BURST, || {
            for f in &frames {
                let eth = EthHeader::decode(f).expect("eth");
                let ip = Ipv4Header::decode(&f[L3..]).expect("ipv4");
                let tcp = TcpHeader::decode(&f[L4..], ip.src, ip.dst).expect("tcp");
                black_box((eth, tcp));
            }
        });
        // RSS: one Toeplitz hash per flow, as the NIC classifies and as
        // the client probes ephemeral ports.
        spanned(rec, "net.rss", BURST, || {
            for _ in 0..BURST {
                port = (port + 1) % sh.flows;
                black_box(hash_ipv4_tuple(
                    &TOEPLITZ_DEFAULT_KEY,
                    host_ip(1),
                    host_ip(2),
                    16_384 + port as u16,
                    PORT,
                ));
            }
        });
    });
}

/// Pool allocate and free, a burst at a time.
fn mempool(sh: &Shape, rec: &Rec) {
    let mut pool = MbufPool::new(StackConfig::default().mbuf_pool);
    let mut held: Vec<Mbuf> = Vec::with_capacity(BURST);
    warm_then_spanned(sh.bursts(), rec, |rec| {
        spanned(rec, "mempool.alloc_free", BURST, || {
            for _ in 0..BURST {
                held.push(pool.alloc().expect("pool sized for a burst"));
            }
            held.clear();
        });
    });
}

/// Timer wheel: every flow keeps one timer armed (its RTO); each message
/// re-arms one, and the wheel advances a tick per cycle.
fn timerwheel(sh: &Shape, rec: &Rec) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let rto = StackConfig::default().min_rto_ns;
    let mut ids: Vec<_> = (0..sh.flows as u64)
        .map(|i| wheel.schedule(rto, i))
        .collect();
    let (mut now, mut next) = (0, 0);
    warm_then_spanned(sh.bursts(), rec, |rec| {
        spanned(rec, "timerwheel.arm_cancel", BURST, || {
            for _ in 0..BURST {
                let i = next % sh.flows;
                next += 1;
                black_box(wheel.cancel(ids[i]));
                ids[i] = wheel.schedule(rto, i as u64);
            }
        });
        now += wheel.resolution_ns();
        spanned(rec, "timerwheel.advance", 1, || {
            wheel.advance(now, |t| {
                black_box(t);
            })
        });
    });
}

/// Descriptor rings: transmit push, take and reclaim; receive push, poll
/// and replenish.
fn rings(sh: &Shape, corpus: &[Vec<u8>], rec: &Rec) {
    let params = MachineParams::default();
    let mut rx = RxRing::with_pool(
        params.ring_entries,
        params.ring_entries + params.rx_extra_bufs,
    );
    let mut tx = TxRing::new(params.ring_entries);
    let mut pool = MbufPool::new(4 * BURST);
    let mut next = 0;
    warm_then_spanned(sh.bursts(), rec, |rec| {
        let frames: Vec<Mbuf> = burst_of(corpus, &mut next)
            .into_iter()
            .map(|f| pool.alloc_with(f).expect("pool"))
            .collect();
        spanned(rec, "nic.ring", BURST, || {
            for m in frames {
                tx.push(m).expect("ring has room");
            }
            while let Some(m) = tx.take_for_wire() {
                assert!(rx.push(m), "descriptors posted");
            }
            black_box(tx.reclaim());
            while let Some(m) = rx.poll() {
                drop(black_box(m));
            }
            rx.replenish(BURST);
        });
    });
}

/// Doorbell to delivery across a two-host fabric under a bare simulator.
/// Returns the events the fabric spends per frame.
fn fabric(sh: &Shape, corpus: &[Vec<u8>], rec: &Rec) -> f64 {
    let mut sim = Simulator::new(1);
    let mut fab = Fabric::new(2, MachineParams::default());
    let a = fab.add_host(1, 1, 0);
    let b = fab.add_host(1, 1, 0);
    let (nic_a, nic_b) = (fab.host(a).nics[0].clone(), fab.host(b).nics[0].clone());
    let queues = nic_b.borrow().queues();
    let mut pool = MbufPool::new(4 * BURST);
    let (mut next, mut sent) = (0, 0u64);
    warm_then_spanned(sh.bursts(), rec, |rec| {
        let frames: Vec<Mbuf> = burst_of(corpus, &mut next)
            .into_iter()
            .map(|f| pool.alloc_with(f).expect("pool"))
            .collect();
        sent += BURST as u64;
        spanned(rec, "nic.fabric", BURST, || {
            for m in frames {
                nic_a
                    .borrow_mut()
                    .tx_ring(0)
                    .push(m)
                    .expect("ring has room");
            }
            Nic::kick_tx(&nic_a, &mut sim);
            sim.run();
        });
        nic_a.borrow_mut().tx_ring(0).reclaim();
        let mut nic = nic_b.borrow_mut();
        for q in 0..queues {
            let ring = nic.rx_ring(q);
            let mut n = 0;
            while ring.poll().is_some() {
                n += 1;
            }
            ring.replenish(n);
        }
    });
    assert_eq!(
        nic_b.borrow().stats.rx_frames,
        sent,
        "every frame crossed the fabric"
    );
    sim.events_executed() as f64 / sent as f64
}

/// The event engine alone: do-nothing closures scheduled at the
/// workload's near/far mix over its standing population of pending
/// events. Each captures a word, as every real event captures something:
/// a closure that captures nothing is zero-sized and boxing it allocates
/// nothing, which would leave the allocator out of the engine's cost.
fn engine(sh: &Shape, seed: u64, counts: &Pass, rec: &Rec) {
    let (b, a) = (&counts.before.sim, &counts.after.sim);
    let far_share = crate::run::per(a.far_inserts - b.far_inserts, a.scheduled - b.scheduled);
    let mut sim = Simulator::new(seed);
    let mut rng = SimRng::new(seed ^ 0xe17e);
    // Standing population: timers far in the future, as idle flows hold.
    let idle = |word: u64| {
        move |_: &mut Simulator| {
            black_box(word);
        }
    };
    for _ in 0..(a.pending_high_water as usize).min(200_000) {
        sim.schedule_in(Nanos(1_000_000_000 + rng.below(1_000_000_000)), idle(0));
    }
    warm_then_spanned(sh.bursts(), rec, |rec| {
        spanned(rec, "sim.engine", BURST, || {
            for _ in 0..BURST {
                // Near: inside the ~1 ms calendar ring. Far: beyond it.
                let delay = if rng.chance(far_share) {
                    2_000_000 + rng.below(1_000_000)
                } else {
                    100 + rng.below(20_000)
                };
                sim.schedule_in(Nanos(delay), idle(delay));
            }
            for _ in 0..BURST {
                sim.step();
            }
        });
    });
}
