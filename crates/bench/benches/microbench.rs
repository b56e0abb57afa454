//! Microbenchmarks of the reproduction's hot data structures, on the
//! in-tree `ix-testkit` wall-clock runner: the components §4.2/§4.4 of
//! the paper claims are fast — the Toeplitz RSS hash, the hierarchical
//! timing wheel under its cancel-dominant workload, the per-thread mbuf
//! pool, TCP segment processing — and the data-path primitives later
//! rewrites introduced. Each group times the code the tree runs today;
//! ratios against what it replaced are frozen in EXPERIMENTS.md
//! ("Frozen history").
//!
//! Run with `cargo bench` (or `cargo bench <filter>`); set
//! `IX_BENCH_QUICK=1` for a smoke-length pass.

use std::hint::black_box;

use ix_mempool::MbufPool;
use ix_net::ip::Ipv4Addr;
use ix_net::rss::{hash_ipv4_tuple, TOEPLITZ_DEFAULT_KEY};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_sim::{Histogram, Nanos, Simulator};
use ix_testkit::bench::BenchRunner;
use ix_timerwheel::TimerWheel;

const HOST1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const HOST2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// The established-flow ACK header the codec and TX-build groups encode.
fn ack_hdr() -> TcpHeader {
    TcpHeader {
        src_port: 40_000,
        dst_port: 80,
        seq: 12345,
        ack: 67890,
        flags: TcpFlags::ACK,
        window: 65_535,
        mss: None,
        wscale: None,
    }
}

/// One Ethernet/IPv4/TCP wire frame with valid checksums.
fn wire_frame(src: Ipv4Addr, dst: Ipv4Addr, hdr: &TcpHeader, payload: &[u8]) -> Vec<u8> {
    use ix_net::eth::{EthHeader, EtherType, MacAddr};
    use ix_net::ip::{IpProto, Ipv4Header};
    let l4 = EthHeader::LEN + Ipv4Header::LEN;
    let hlen = hdr.len();
    let mut f = vec![0u8; l4 + hlen + payload.len()];
    EthHeader {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    }
    .encode(&mut f[..EthHeader::LEN]);
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + hlen + payload.len()) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Tcp,
        src,
        dst,
    }
    .encode(&mut f[EthHeader::LEN..l4]);
    hdr.encode(&mut f[l4..], src, dst, payload);
    f[l4 + hlen..].copy_from_slice(payload);
    f
}

/// Scheduler workloads on the calendar-queue engine. Each iteration
/// schedules and fires so the queue holds a steady working set; one
/// event executes per iteration, so events/sec = 1e9 / ns_per_iter.
fn bench_scheduler(r: &mut BenchRunner) {
    /// Steady-state queue depth (a loaded testbed keeps thousands of
    /// timers and packet events outstanding).
    const DEPTH: u64 = 8192;
    /// Near-tier delay spread: inside the ~1.05 ms calendar horizon.
    const NEAR_SPREAD: u64 = 900_000;
    /// Far-tier delay: well past the horizon, lands in the overflow heap.
    const FAR_DELAY: u64 = 8_000_000;

    // -- Pure schedule/fire churn at depth.
    r.bench("scheduler/churn_fire_8k", |b| {
        let mut sim = Simulator::new(7);
        for i in 0..DEPTH {
            sim.schedule_in(Nanos(500 + (i * 97) % NEAR_SPREAD), |_| {});
        }
        let mut d = 0u64;
        b.iter(|| {
            d = (d.wrapping_mul(997).wrapping_add(131)) % NEAR_SPREAD;
            sim.schedule_in(Nanos(500 + d), |_| {});
            black_box(sim.step());
        })
    });

    // -- Cancel-dominant: the RTO pattern — arm a retransmit timer, then
    // cancel it when the ACK arrives a moment later. The in-flight
    // cancelled timers (200 µs of them) form the queue's working set;
    // the 600 ns events keep the clock moving one fire per iteration.
    r.bench("scheduler/cancel_rto_rearm", |b| {
        let mut sim = Simulator::new(7);
        b.iter(|| {
            let id = sim.schedule_in(Nanos(200_000), |_| {});
            sim.cancel(id);
            sim.schedule_in(Nanos(600), |_| {});
            black_box(sim.step());
        })
    });

    // -- Mixed horizon: half the inserts spread across the near calendar,
    // half go deep into the overflow tier and must be promoted back.
    r.bench("scheduler/mixed_near_far", |b| {
        let mut sim = Simulator::new(7);
        for i in 0..DEPTH {
            let base = (i * 97) % NEAR_SPREAD;
            sim.schedule_in(Nanos(if i % 2 == 0 { 500 + base } else { FAR_DELAY + base }), |_| {});
        }
        let mut d = 0u64;
        b.iter(|| {
            d = (d.wrapping_mul(997).wrapping_add(131)) % NEAR_SPREAD;
            let far = d.is_multiple_of(2);
            sim.schedule_in(Nanos(if far { FAR_DELAY + d } else { 500 + d }), |_| {});
            black_box(sim.step());
        })
    });
}

fn bench_toeplitz(r: &mut BenchRunner) {
    let mut port = 0u16;
    r.bench("rss/toeplitz_ipv4_tuple", |b| {
        b.iter(|| {
            port = port.wrapping_add(1);
            black_box(hash_ipv4_tuple(
                &TOEPLITZ_DEFAULT_KEY,
                black_box(HOST1_IP),
                black_box(HOST2_IP),
                port,
                80,
            ))
        })
    });
}

fn bench_timerwheel(r: &mut BenchRunner) {
    // The paper's common case: timers cancelled before expiry (RTO
    // rearming on every ACK).
    r.bench("timerwheel/schedule_cancel", |b| {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        b.iter(|| {
            let id = w.schedule(200_000_000, 1);
            black_box(w.cancel(id));
        })
    });
    r.bench("timerwheel/advance_idle_tick", |b| {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        w.schedule(3_600_000_000_000, 1); // Far-future anchor.
        let mut now = 0u64;
        b.iter(|| {
            now += 16_000;
            w.advance(now, |_| {});
        })
    });
    // What an idle-going dataplane thread asks: one RTO per flow, 200 ms
    // out, re-armed 50 µs apart — the per-shard populations of
    // `echo_bulk` (36) and `echo_small` (288). They share a few level-1
    // slots, and the answer reads the first of those chains only.
    for flows in [36u64, 288] {
        r.bench(&format!("timerwheel/next_deadline_{flows}"), |b| {
            let mut w: TimerWheel<u64> = TimerWheel::new();
            for flow in 0..flows {
                w.advance(flow * 50_000, |_| {});
                w.schedule(200_000_000, flow);
            }
            b.iter(|| black_box(w.next_deadline_ns()))
        });
    }
}

fn bench_mempool(r: &mut BenchRunner) {
    r.bench("mempool/alloc_free", |b| {
        let mut pool = MbufPool::new(1024);
        b.iter(|| {
            let m = pool.alloc().expect("capacity");
            black_box(&m);
        })
    });
    r.bench("mempool/alloc_prepend_headers", |b| {
        let mut pool = MbufPool::new(1024);
        b.iter(|| {
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&[0u8; 64]);
            m.prepend(20);
            m.prepend(20);
            m.prepend(14);
            black_box(m.len());
        })
    });
}

fn bench_tcp_codec(r: &mut BenchRunner) {
    let hdr = ack_hdr();
    let payload = [0xA5u8; 64];
    let mut buf = vec![0u8; hdr.len() + payload.len()];
    buf[hdr.len()..].copy_from_slice(&payload);
    r.bench("tcp_codec/encode_64b_segment", |b| {
        b.iter(|| {
            let (h, t) = buf.split_at_mut(20);
            hdr.encode(h, HOST1_IP, HOST2_IP, t);
        })
    });
    // Prepare a valid segment for decode.
    let (h, t) = buf.split_at_mut(20);
    hdr.encode(h, HOST1_IP, HOST2_IP, t);
    r.bench("tcp_codec/decode_64b_segment", |b| {
        b.iter(|| black_box(TcpHeader::decode(&buf, HOST1_IP, HOST2_IP).expect("valid")))
    });
}

/// TX segment build through the in-place zero-copy pipeline: one pool
/// mbuf, one payload write, headers prepended where the frame lies.
fn bench_txpath(r: &mut BenchRunner) {
    use ix_mempool::Mbuf;
    use ix_net::eth::{EthHeader, EtherType, MacAddr};
    use ix_net::ip::{IpProto, Ipv4Header};
    use ix_testkit::Bytes;

    // One pool mbuf, payload written once into the tail, headers
    // prepended in place (checksums fed the payload slice).
    fn build_inplace(pool: &mut MbufPool, payload: &[u8]) -> Mbuf {
        let tcp = ack_hdr();
        let hlen = tcp.len();
        let mut m = pool.alloc_with_headroom(ix_net::MAX_TX_HEADER_LEN).expect("capacity");
        m.extend_from_slice(payload);
        tcp.encode(m.prepend(hlen), HOST1_IP, HOST2_IP, payload);
        Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + hlen + payload.len()) as u16,
            ident: 7,
            ttl: Ipv4Header::DEFAULT_TTL,
            proto: IpProto::Tcp,
            src: HOST1_IP,
            dst: HOST2_IP,
        }
        .encode(m.prepend(Ipv4Header::LEN));
        EthHeader {
            dst: MacAddr::from_host_index(2),
            src: MacAddr::from_host_index(1),
            ethertype: EtherType::Ipv4,
        }
        .encode(m.prepend(EthHeader::LEN));
        m
    }

    for (label, size) in [("build_64b", 64usize), ("build_1460b", 1460)] {
        let payload = vec![0xA5u8; size];
        r.bench(&format!("txpath/{label}"), |b| {
            let mut pool = MbufPool::new(1024);
            b.iter(|| black_box(build_inplace(&mut pool, &payload).len()))
        });
    }

    // Retransmission: bump a refcount on the shared block and rebuild
    // in place.
    let block = Bytes::from(vec![0xA5u8; 1460]);
    r.bench("txpath/retransmit_front", |b| {
        let mut pool = MbufPool::new(1024);
        b.iter(|| {
            let data: Bytes = block.clone();
            black_box(build_inplace(&mut pool, &data).len())
        })
    });
}

/// RX delivery through the zero-copy hold/credit pipeline: everything
/// between the ring buffer's DMA fill and the application.
fn bench_rxpath(r: &mut BenchRunner) {
    use std::collections::{BTreeMap, VecDeque};

    use ix_apps::workload::proto;
    use ix_mempool::Mbuf;
    use ix_testkit::Bytes;

    // -- In-order delivery: a 1460 B payload from a just-DMA'd pool mbuf
    // to the app and back (`recv_done`): a refcounted view and a queue
    // move; the app reads the view where it lies. Source payloads
    // rotate across a footprint larger than L1 so the DMA fill pays
    // realistic cache-miss costs, as it would at line rate.
    const SLOTS: usize = 256;
    let sources: Vec<Vec<u8>> = (0..SLOTS).map(|i| vec![i as u8; 1460]).collect();
    r.bench("rxpath/deliver_1460b", |b| {
        let mut pool = MbufPool::new(SLOTS + 8);
        drop(pool.alloc()); // Provision the pool outside the timed loop.
        let mut held: VecDeque<Mbuf> = VecDeque::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&sources[i % SLOTS]); // DMA fill.
            i += 1;
            let view = m.as_bytes(); // recv: a zero-copy view.
            held.push_back(m); // Retained until credited.
            // The app parses where the data lies.
            let n = black_box(view[0] as usize + view.len());
            drop(view);
            drop(held.pop_front()); // recv_done credit.
            n
        })
    });

    // -- Out-of-order: buffer a 1460 B segment, then drain it once the
    // gap fills, trimming a 100 B stale prefix: the mbuf itself is
    // buffered and later trimmed in place with `pull`.
    r.bench("rxpath/ooo_drain", |b| {
        let mut pool = MbufPool::new(SLOTS + 8);
        drop(pool.alloc()); // Provision the pool outside the timed loop.
        let mut held: VecDeque<Mbuf> = VecDeque::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut ooo: BTreeMap<u32, Mbuf> = BTreeMap::new();
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&sources[i % SLOTS]);
            i += 1;
            ooo.insert(1_000, m); // Buffered as it arrived.
            let mut m = ooo.remove(&1_000).expect("present");
            m.pull(100); // Stale-prefix trim: a window move.
            let view = m.as_bytes();
            held.push_back(m);
            let n = black_box(view[0] as usize + view.len());
            drop(view);
            drop(held.pop_front());
            n
        })
    });

    // -- Application parse: one delivery carrying eight pipelined GET
    // requests, decoded straight from the delivered view (the KV
    // server's contiguous fast path).
    let mut batch = Vec::new();
    for seq in 0..8u64 {
        batch.extend_from_slice(&proto::encode_request(
            proto::OP_GET,
            seq,
            b"key:0123456789",
            &[0u8; 64],
        ));
    }
    let delivery = Bytes::from(batch);
    r.bench("rxpath/kv_parse_inplace", |b| {
        b.iter(|| {
            let mut consumed = 0usize;
            let mut served = 0u32;
            while let Some(h) = proto::decode_request_header(&delivery[consumed..]) {
                if delivery.len() - consumed < h.total_len() {
                    break;
                }
                consumed += h.total_len();
                served += 1;
            }
            black_box(served)
        })
    });
}

/// Flow-table workloads on the open-addressing [`ix_tcp::FlowMap`].
/// Payloads are 64 B (a TCB-shaped cache-line) and keys are
/// `FlowId::pack`-shaped words: exactly the per-packet demux the stack
/// performs.
fn bench_flowtable(r: &mut BenchRunner) {
    use ix_tcp::FlowMap;

    type Payload = [u64; 8];
    const LIVE: usize = 100_000;

    /// `FlowId::pack`-shaped key: remote ip | remote port | local port.
    fn flow_key(i: u64) -> u64 {
        ((0x0a00_0001 + (i / 64)) << 32) | ((16_384 + (i % 48_000)) << 16) | 80
    }

    // -- Hot-path demux: random established-flow lookups at 100k live.
    r.bench("flowtable/lookup_hit", |b| {
        let mut m: FlowMap<Payload> = FlowMap::new();
        for i in 0..LIVE as u64 {
            m.insert(flow_key(i), [i; 8]);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i.wrapping_mul(25_214_903_917).wrapping_add(11)) % LIVE;
            black_box(m.get(flow_key(i as u64)).expect("present")[0]);
        })
    });

    // -- Connection churn at steady state: one accept + one close per
    // iteration against a 100k-flow working set (the §5.3 RST-churn
    // pattern at Fig 4 scale).
    r.bench("flowtable/insert_churn", |b| {
        let mut m: FlowMap<Payload> = FlowMap::new();
        for i in 0..LIVE as u64 {
            m.insert(flow_key(i), [i; 8]);
        }
        let (mut head, mut tail) = (LIVE as u64, 0u64);
        b.iter(|| {
            m.insert(flow_key(head), [head; 8]);
            black_box(m.remove(flow_key(tail)).expect("present"));
            head += 1;
            tail += 1;
        })
    });

    // -- Flow-group migration: one iteration = extract every flow whose
    // RSS bucket moved (1/8 of a 10k-flow shard, in sorted-key order,
    // as `extract_flows` does) and absorb them back.
    const SHARD: u64 = 10_000;
    r.bench("flowtable/migrate_extract", |b| {
        let mut m: FlowMap<Payload> = FlowMap::new();
        for i in 0..SHARD {
            m.insert(flow_key(i), [i; 8]);
        }
        b.iter(|| {
            // Key-only scan, as `extract_flows` does: the probe array
            // alone decides the batch; the slab is touched per moved
            // flow only.
            let mut batch = m.collect_keys();
            batch.retain(|k| (k >> 16) & 7 == 0);
            batch.sort_unstable();
            let mut out = Vec::with_capacity(batch.len());
            for &k in &batch {
                out.push((k, m.remove(k).expect("present")));
            }
            for (k, v) in out {
                m.insert(k, v);
            }
            black_box(m.len());
        })
    });
}

/// Flow-group migration, over the shard's real data structures
/// (bucketed [`ix_tcp::FlowMap`] + [`TimerWheel`] with four armed
/// timers per flow). Extract side: one iteration moves one RSS flow
/// group — the granularity the elastic control loop rebalances at —
/// out of a table holding 1k/10k/100k live flows, then restores it
/// untimed ([`Bencher::iter_timed`]): the bulk path walks the group's
/// intrusive bucket list and splices its timers with `cancel_batch`,
/// O(moved) whatever the table holds. Absorb side: the whole shard
/// lands on a freshly-started destination core (the fig9 shape); the
/// flow table is reserved once and timers are re-armed through
/// `schedule_batch` slot handles.
fn bench_migrate(r: &mut BenchRunner) {
    use std::time::Instant;

    use ix_tcp::{FlowMap, NUM_BUCKETS};
    use ix_timerwheel::TimerId;

    /// TCB stand-in: four armed timers plus a cache line of state.
    #[derive(Clone, Copy)]
    struct Flow {
        timers: [Option<TimerId>; 4],
        _state: [u64; 8],
    }

    const LOCAL_PORT: u16 = 7000;

    fn remote(i: u64) -> (Ipv4Addr, u16) {
        (Ipv4Addr(0x0a00_0002 + (i / 48_000) as u32), (16_384 + (i % 48_000)) as u16)
    }

    fn key_of(i: u64) -> u64 {
        let (ip, port) = remote(i);
        ((ip.0 as u64) << 32) | ((port as u64) << 16) | LOCAL_PORT as u64
    }

    fn bucket_of_key(k: u64) -> u16 {
        let hash = hash_ipv4_tuple(
            &TOEPLITZ_DEFAULT_KEY,
            Ipv4Addr((k >> 32) as u32),
            HOST1_IP,
            (k >> 16) as u16,
            k as u16,
        );
        (hash & (NUM_BUCKETS as u32 - 1)) as u16
    }

    /// RTO-shaped timer spread, constant per (flow, slot) so the wheel
    /// reaches a steady state across iterations.
    fn delay(k: u64, j: usize) -> u64 {
        200_000_000 + (k % 64) * 1_000_000 + j as u64 * 16_384
    }

    fn setup(n: u64) -> (FlowMap<Flow>, TimerWheel<u64>) {
        let mut m: FlowMap<Flow> = FlowMap::with_capacity(n as usize * 2);
        let mut w: TimerWheel<u64> = TimerWheel::new();
        for i in 0..n {
            let k = key_of(i);
            let mut f = Flow { timers: [None; 4], _state: [i; 8] };
            for j in 0..4 {
                f.timers[j] = Some(w.schedule(delay(k, j), k));
            }
            m.insert_in_bucket(k, bucket_of_key(k), f);
        }
        (m, w)
    }

    /// Bulk extract of one flow group: walk its intrusive bucket list,
    /// splice all four timers per flow in one wheel pass.
    fn extract_bulk(m: &mut FlowMap<Flow>, w: &mut TimerWheel<u64>, b: u16) -> Vec<(u64, u16, Flow)> {
        let keys: Vec<u64> = m.bucket_keys(b).collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let f = m.remove(k).expect("listed key present");
            w.cancel_batch(f.timers.into_iter().flatten(), |_, remaining| {
                black_box(remaining);
            });
            out.push((k, b, f));
        }
        out
    }

    /// Bulk absorb, mirroring the shipped `Stack::absorb_flows` path:
    /// capacity reservation, staged slab/bucket placement with slot
    /// handles (no per-flow table probe), one `schedule_batch` pass
    /// re-arming every timer, then a single home-slot-ordered
    /// `commit_staged` probe over the whole batch.
    fn absorb_bulk(m: &mut FlowMap<Flow>, w: &mut TimerWheel<u64>, group: Vec<(u64, u16, Flow)>) {
        m.reserve(group.len());
        let mut reqs = Vec::with_capacity(group.len() * 4);
        let mut targets = Vec::with_capacity(group.len() * 4);
        for (k, b, mut f) in group {
            f.timers = [None; 4];
            let slot = m.stage_insert(k, b, f);
            for j in 0..4 {
                reqs.push((delay(k, j), k));
                targets.push((slot, j));
            }
        }
        let mut i = 0usize;
        w.schedule_batch(reqs, |id| {
            let (slot, j) = targets[i];
            i += 1;
            m.slot_mut(slot).timers[j] = Some(id);
        });
        m.commit_staged();
    }

    // Each iteration rotates through the 128 flow groups so every
    // bucket-list length is sampled; the untimed half of the round-trip
    // restores the table to steady state.
    for (label, n) in [("1k", 1_000u64), ("10k", 10_000), ("100k", 100_000)] {
        r.bench(&format!("migrate/extract_{label}"), |be| {
            let (mut m, mut w) = setup(n);
            let mut b = 0u16;
            be.iter_timed(|| {
                let t = Instant::now();
                let group = extract_bulk(&mut m, &mut w, b);
                let dt = t.elapsed();
                black_box(group.len());
                absorb_bulk(&mut m, &mut w, group);
                b = (b + 1) % NUM_BUCKETS as u16;
                dt
            })
        });
        // Absorb-side: the whole shard lands on a freshly-started
        // destination core (the fig9 shape) — empty flow table, empty
        // wheel.
        r.bench(&format!("migrate/absorb_{label}"), |be| {
            let (mut m, mut w) = setup(n);
            be.iter_timed(|| {
                let mut group = Vec::with_capacity(n as usize);
                for b in 0..NUM_BUCKETS as u16 {
                    group.append(&mut extract_bulk(&mut m, &mut w, b));
                }
                let mut dm: FlowMap<Flow> = FlowMap::new();
                let mut dw: TimerWheel<u64> = TimerWheel::new();
                let t = Instant::now();
                absorb_bulk(&mut dm, &mut dw, group);
                let dt = t.elapsed();
                black_box(dm.len());
                (m, w) = (dm, dw);
                dt
            })
        });
    }
}

/// The pre-stack RX filter: fixed-offset pre-parse plus one
/// open-addressing policy lookup per frame, and the SYN-cookie
/// encode/validate pair.
fn bench_filter(r: &mut BenchRunner) {
    use ix_net::filter::{pre_parse, FilterPolicy, RuleAction};
    use ix_net::ip::IpProto;

    const RULES: u64 = 2_000;

    fn rule_ip(i: u64) -> Ipv4Addr {
        Ipv4Addr(0x0a09_0000u32.wrapping_add((i * 37) as u32))
    }

    fn policy() -> FilterPolicy {
        let mut p = FilterPolicy::new();
        for i in 0..RULES {
            p = p.rule_src(rule_ip(i), RuleAction::Drop);
        }
        p.rule_net16(Ipv4Addr(0x0af0_0001), RuleAction::Drop)
            .rule_port(IpProto::Tcp, 11211, RuleAction::SynChallenge)
    }

    /// A 64 B TCP frame whose source is the `i`-th drop rule (hit) or
    /// outside every rule (miss).
    fn tcp_frame(src: Ipv4Addr) -> Vec<u8> {
        let syn = TcpHeader {
            src_port: 31_337,
            dst_port: 80,
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            mss: Some(1460),
            wscale: None,
        };
        wire_frame(src, HOST1_IP, &syn, &[])
    }

    let hit = tcp_frame(rule_ip(1_234));
    let miss = tcp_frame(Ipv4Addr::new(172, 16, 0, 9));

    for (wl, frame) in [("classify_hit", &hit), ("classify_miss", &miss)] {
        r.bench(&format!("filter/{wl}"), |b| {
            let p = policy();
            b.iter(|| {
                let pre = pre_parse(black_box(frame)).expect("parses");
                black_box(p.classify(&pre, 0));
            })
        });
    }

    // Cookie mint + validate: the per-SYN cost of the stateless path.
    r.bench("filter/syn_cookie_roundtrip", |b| {
        use ix_tcp::syncookie;
        let secret = 0x5eed_c0de_u64;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            let key = black_box(i);
            let iss = i as u32;
            let cookie = syncookie::encode(secret, key, iss, 7, 3);
            black_box(syncookie::validate(secret, key, iss, cookie, 7).expect("valid"));
        })
    });
}

/// Internet-checksum folding with the widened u64 chunker. Verify
/// covers the RX validation path (header + payload in one pass), build
/// the TX insertion path.
fn bench_checksum(r: &mut BenchRunner) {
    use ix_net::checksum::checksum;

    fn payload(len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let mut x = 0x1d3a_f00d_u64;
        for b in buf.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        buf
    }

    // Verify-shaped buffers: checksum inserted so the full-buffer fold
    // comes out zero, exactly what `ix_net::checksum::verify` sees.
    for (wl, len) in [("verify_64b", 64usize), ("verify_1460b", 1460)] {
        let mut buf = payload(len);
        let c = checksum(&buf);
        buf[0] = (c >> 8) as u8;
        buf[1] = (c & 0xff) as u8;
        r.bench(&format!("checksum/{wl}"), |b| {
            b.iter(|| black_box(ix_net::checksum::verify(black_box(&buf))))
        });
    }

    // Build-shaped: sum a zero-field payload, as TX header encode does.
    let buf = payload(1460);
    r.bench("checksum/build_1460b", |b| {
        b.iter(|| black_box(checksum(black_box(&buf))))
    });
}

/// The price of not batching: one 64-frame `input_batch` against the
/// same frames through 64 `input()` calls — the same receive path, on
/// batches of one. The batch is small data segments from 16 interleaved
/// established flows, over a shard also holding ~16k idle connections
/// (so flow-table probes miss cache the way a loaded shard's do). The
/// batched side probes the table once per flow per run and sends one
/// ACK per flow; the batch-of-one side probes and ACKs per segment.
fn bench_rxbatch(r: &mut BenchRunner) {
    use ix_mempool::Mbuf;
    use ix_net::eth::{EthHeader, MacAddr};
    use ix_net::ip::Ipv4Header;
    use ix_tcp::{AckPolicy, StackConfig, TcpEvent, TcpShard};

    const SRV_PORT: u16 = 80;
    const HOT_FLOWS: u16 = 16;
    const IDLE_FLOWS: u16 = 16_384;
    const BATCH: usize = 64;
    const PAYLOAD: usize = 16;
    const RUNS: usize = BATCH / HOT_FLOWS as usize;

    /// One client→server wire frame with valid checksums.
    fn wire(src_port: u16, seq: u32, ack: u32, flags: TcpFlags, mss: Option<u16>, payload: &[u8]) -> Vec<u8> {
        let hdr = TcpHeader {
            src_port,
            dst_port: SRV_PORT,
            seq,
            ack,
            flags,
            window: 65_535,
            mss,
            wscale: None,
        };
        wire_frame(HOST1_IP, HOST2_IP, &hdr, payload)
    }

    /// Stands up a shard with `HOT_FLOWS + IDLE_FLOWS` established
    /// connections (distinct client ports starting at 40000) and returns
    /// it plus, per hot flow, the server's `snd_una` (srv_iss + 1).
    fn established_shard() -> (TcpShard, Vec<u32>) {
        let cfg = StackConfig { ack_policy: AckPolicy::Immediate, ..StackConfig::default() };
        let mut b = TcpShard::new(cfg, HOST2_IP, MacAddr::from_host_index(2));
        b.arp_seed(HOST1_IP, MacAddr::from_host_index(1));
        b.listen(SRV_PORT);
        let mut now = 1_000u64;
        let mut hot_acks = Vec::new();
        for i in 0..HOT_FLOWS + IDLE_FLOWS {
            let port = 40_000 + i;
            let isn = 0x1000_0000u32.wrapping_add(u32::from(i) << 8);
            now += 1_000;
            b.input(now, mk_mbuf(&wire(port, isn, 0, TcpFlags::SYN, Some(1460), &[])));
            b.end_cycle(now);
            let mut siss = None;
            for mut f in b.take_tx_swap(Vec::new()) {
                f.pull(EthHeader::LEN + Ipv4Header::LEN);
                let (hdr, _) = TcpHeader::decode(f.data(), HOST2_IP, HOST1_IP).expect("tcp");
                if hdr.flags.syn && hdr.flags.ack {
                    siss = Some(hdr.seq);
                }
            }
            let srv_ack = siss.expect("SYN-ACK").wrapping_add(1);
            now += 1_000;
            b.input(
                now,
                mk_mbuf(&wire(port, isn.wrapping_add(1), srv_ack, TcpFlags::ACK, None, &[])),
            );
            b.end_cycle(now);
            for e in b.take_events_swap(Vec::new()) {
                if let TcpEvent::Knock { flow, .. } = e {
                    b.accept(flow, u64::from(port)).unwrap();
                }
            }
            let _ = b.take_tx_swap(Vec::new());
            let _ = b.take_events_swap(Vec::new());
            if i < HOT_FLOWS {
                hot_acks.push(srv_ack);
            }
        }
        (b, hot_acks)
    }

    fn mk_mbuf(wire: &[u8]) -> Mbuf {
        let mut m = Mbuf::standalone();
        m.append(wire.len()).copy_from_slice(wire);
        m
    }

    /// The 64-frame batch: the 16 hot flows interleaved round-robin,
    /// each contributing a run of `RUNS` in-order 16-byte data segments
    /// (frame `j` belongs to flow `j % 16` and carries run index
    /// `j / 16`). Seq fields are placeholders until `advance` patches
    /// them to the live per-flow cursor.
    fn mk_batch(hot_acks: &[u32]) -> Vec<Vec<u8>> {
        let body = [0x5au8; PAYLOAD];
        (0..BATCH)
            .map(|j| {
                let i = (j % hot_acks.len()) as u16;
                let isn = 0x1000_0000u32.wrapping_add(u32::from(i) << 8);
                wire(40_000 + i, isn.wrapping_add(1), hot_acks[i as usize], TcpFlags::ACK, None, &body)
            })
            .collect()
    }

    /// Patches a prebuilt frame's TCP sequence number and repairs the
    /// transport checksum incrementally (RFC 1624 §3: HC' = ~(~HC +
    /// ~m + m')), so the per-iteration frame refresh costs a few
    /// nanoseconds on both sides of the comparison instead of a rebuild.
    fn patch_seq(w: &mut [u8], seq: u32) {
        let tcp = EthHeader::LEN + Ipv4Header::LEN;
        let ck = tcp + 16;
        let mut s = u32::from(!u16::from_be_bytes([w[ck], w[ck + 1]]));
        for (o, half) in [(tcp + 4, (seq >> 16) as u16), (tcp + 6, seq as u16)] {
            s += u32::from(!u16::from_be_bytes([w[o], w[o + 1]])) + u32::from(half);
        }
        w[tcp + 4..tcp + 8].copy_from_slice(&seq.to_be_bytes());
        while s > 0xffff {
            s = (s & 0xffff) + (s >> 16);
        }
        w[ck..ck + 2].copy_from_slice(&(!(s as u16)).to_be_bytes());
    }

    /// Rewrites every frame's seq to the current per-flow cursor and
    /// bumps the cursors past the batch, keeping each flow's byte
    /// stream strictly in order across iterations.
    fn advance(batch: &mut [Vec<u8>], seqs: &mut [u32]) {
        for (j, w) in batch.iter_mut().enumerate() {
            let i = j % seqs.len();
            let run = (j / seqs.len()) as u32;
            patch_seq(w, seqs[i].wrapping_add(run * PAYLOAD as u32));
        }
        for s in seqs.iter_mut() {
            *s = s.wrapping_add((RUNS * PAYLOAD) as u32);
        }
    }

    /// Per-flow client seq cursors right after the handshake.
    fn seq_cursors() -> Vec<u32> {
        (0..HOT_FLOWS)
            .map(|i| 0x1000_0000u32.wrapping_add(u32::from(i) << 8).wrapping_add(1))
            .collect()
    }

    /// Consumes a cycle's output the way a run-to-completion app would:
    /// drops the TX frames and credits every delivered payload straight
    /// back via `recv_done`, so the advertised window never closes.
    fn drain(shard: &mut TcpShard, now: u64) -> usize {
        let mut n = shard.take_tx_swap(Vec::new()).len();
        for e in shard.take_events_swap(Vec::new()) {
            n += 1;
            if let TcpEvent::Recv { flow, payload, .. } = e {
                shard.recv_done(now, flow, payload.len() as u32).expect("credit");
            }
        }
        n
    }

    // `patch_seq` must agree with a full rebuild, checksum included.
    {
        let body = [0x5au8; PAYLOAD];
        let mut probe = wire(41_000, 7, 9, TcpFlags::ACK, None, &body);
        patch_seq(&mut probe, 0xdead_beef);
        assert_eq!(probe, wire(41_000, 0xdead_beef, 9, TcpFlags::ACK, None, &body));
    }

    r.bench("rxbatch/group_probe", |b| {
        let (mut shard, hot_acks) = established_shard();
        let mut batch = mk_batch(&hot_acks);
        let mut seqs = seq_cursors();
        // Frames come from a recycling pool, as the NIC's would; the
        // stack holds each delivered payload until `recv_done` credits
        // it back at the end of the cycle.
        let mut pool = MbufPool::new(4 * BATCH);
        let mut frames: Vec<Mbuf> = Vec::with_capacity(BATCH);
        let mut now = 1_000_000_000u64;
        b.iter(|| {
            now += 10_000;
            advance(&mut batch, &mut seqs);
            // Bulk ring refill: one pool transaction for the batch.
            assert_eq!(pool.alloc_batch(BATCH, &mut frames), BATCH);
            for (m, w) in frames.iter_mut().zip(&batch) {
                m.extend_from_slice(w);
            }
            shard.input_batch(now, &mut frames);
            shard.end_cycle(now);
            black_box(drain(&mut shard, now));
        })
    });

    r.bench("rxbatch_frame/group_probe", |b| {
        let (mut shard, hot_acks) = established_shard();
        let mut batch = mk_batch(&hot_acks);
        let mut seqs = seq_cursors();
        let mut pool = MbufPool::new(4 * BATCH);
        let mut now = 1_000_000_000u64;
        b.iter(|| {
            now += 10_000;
            advance(&mut batch, &mut seqs);
            for w in &batch {
                shard.input(now, pool.alloc_with(w).expect("pool"));
            }
            shard.end_cycle(now);
            black_box(drain(&mut shard, now));
        })
    });
}

fn bench_histogram(r: &mut BenchRunner) {
    r.bench("stats/histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(ix_sim::Nanos(v % 1_000_000));
        })
    });
}

fn main() {
    let mut r = BenchRunner::from_args();
    bench_toeplitz(&mut r);
    bench_timerwheel(&mut r);
    bench_scheduler(&mut r);
    bench_mempool(&mut r);
    bench_tcp_codec(&mut r);
    bench_txpath(&mut r);
    bench_rxpath(&mut r);
    bench_flowtable(&mut r);
    bench_migrate(&mut r);
    bench_filter(&mut r);
    bench_checksum(&mut r);
    bench_rxbatch(&mut r);
    bench_histogram(&mut r);
    r.finish();
}
