//! Microbenchmarks of the reproduction's hot data structures, on the
//! in-tree `ix-testkit` wall-clock runner: the components §4.2/§4.4 of
//! the paper claims are fast — the Toeplitz RSS hash, the hierarchical
//! timing wheel under its cancel-dominant workload, the per-thread mbuf
//! pool, TCP segment processing, and the full simulated host-to-host
//! echo round trip.
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

/// The seed engine's scheduler, kept as the reference point for the
/// calendar-queue rewrite: a `BinaryHeap` ordered by `(time, seq)` with
/// a tombstone `HashSet` consulted (and cleaned) on every pop.
mod binheap_model {
    use std::collections::{BinaryHeap, HashSet};

    struct Ev {
        time: u64,
        seq: u64,
        action: Box<dyn FnOnce()>,
    }

    impl PartialEq for Ev {
        fn eq(&self, other: &Ev) -> bool {
            (self.time, self.seq) == (other.time, other.seq)
        }
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
            // Reversed: BinaryHeap is a max-heap, we want min-(time, seq).
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    pub struct BinHeapSim {
        now: u64,
        seq: u64,
        queue: BinaryHeap<Ev>,
        cancelled: HashSet<u64>,
        executed: u64,
    }

    impl BinHeapSim {
        pub fn new() -> BinHeapSim {
            BinHeapSim {
                now: 0,
                seq: 0,
                queue: BinaryHeap::new(),
                cancelled: HashSet::new(),
                executed: 0,
            }
        }

        pub fn schedule_in(&mut self, delay: u64, action: impl FnOnce() + 'static) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Ev {
                time: self.now + delay,
                seq,
                action: Box::new(action),
            });
            seq
        }

        pub fn cancel(&mut self, seq: u64) {
            self.cancelled.insert(seq);
        }

        pub fn step(&mut self) -> bool {
            while let Some(ev) = self.queue.pop() {
                if self.cancelled.remove(&ev.seq) {
                    continue;
                }
                self.now = ev.time;
                (ev.action)();
                self.executed += 1;
                return true;
            }
            false
        }

        pub fn executed(&self) -> u64 {
            self.executed
        }
    }
}

/// Scheduler workloads, run identically against the calendar-queue
/// engine and the BinaryHeap reference. Each iteration schedules and
/// fires so the queue holds a steady working set; one event executes
/// per iteration, so events/sec = 1e9 / ns_per_iter.
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
    r.bench("scheduler_binheap/churn_fire_8k", |b| {
        let mut sim = binheap_model::BinHeapSim::new();
        for i in 0..DEPTH {
            sim.schedule_in(500 + (i * 97) % NEAR_SPREAD, || {});
        }
        let mut d = 0u64;
        b.iter(|| {
            d = (d.wrapping_mul(997).wrapping_add(131)) % NEAR_SPREAD;
            sim.schedule_in(500 + d, || {});
            black_box(sim.step());
        });
        black_box(sim.executed());
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
    r.bench("scheduler_binheap/cancel_rto_rearm", |b| {
        let mut sim = binheap_model::BinHeapSim::new();
        b.iter(|| {
            let id = sim.schedule_in(200_000, || {});
            sim.cancel(id);
            sim.schedule_in(600, || {});
            black_box(sim.step());
        });
        black_box(sim.executed());
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
    r.bench("scheduler_binheap/mixed_near_far", |b| {
        let mut sim = binheap_model::BinHeapSim::new();
        for i in 0..DEPTH {
            let base = (i * 97) % NEAR_SPREAD;
            sim.schedule_in(if i % 2 == 0 { 500 + base } else { FAR_DELAY + base }, || {});
        }
        let mut d = 0u64;
        b.iter(|| {
            d = (d.wrapping_mul(997).wrapping_add(131)) % NEAR_SPREAD;
            let far = d.is_multiple_of(2);
            sim.schedule_in(if far { FAR_DELAY + d } else { 500 + d }, || {});
            black_box(sim.step());
        });
        black_box(sim.executed());
    });
}

fn bench_toeplitz(r: &mut BenchRunner) {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let mut port = 0u16;
    r.bench("rss/toeplitz_ipv4_tuple", |b| {
        b.iter(|| {
            port = port.wrapping_add(1);
            black_box(hash_ipv4_tuple(
                &TOEPLITZ_DEFAULT_KEY,
                black_box(src),
                black_box(dst),
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
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let hdr = TcpHeader {
        src_port: 40_000,
        dst_port: 80,
        seq: 12345,
        ack: 67890,
        flags: TcpFlags::ACK,
        window: 65_535,
        mss: None,
        wscale: None,
    };
    let payload = [0xA5u8; 64];
    let mut buf = vec![0u8; hdr.len() + payload.len()];
    buf[hdr.len()..].copy_from_slice(&payload);
    r.bench("tcp_codec/encode_64b_segment", |b| {
        b.iter(|| {
            let (h, t) = buf.split_at_mut(20);
            hdr.encode(h, src, dst, t);
        })
    });
    // Prepare a valid segment for decode.
    let (h, t) = buf.split_at_mut(20);
    hdr.encode(h, src, dst, t);
    r.bench("tcp_codec/decode_64b_segment", |b| {
        b.iter(|| black_box(TcpHeader::decode(&buf, src, dst).expect("valid")))
    });
}

/// TX segment build, run through the in-place zero-copy pipeline and
/// through the Vec-chain model it replaced (retransmit-queue `Box` copy
/// → TCP-segment `Vec` → L3 `Vec` → mbuf copy). Identical wire frames
/// out of both; the difference is purely copies and allocations.
fn bench_txpath(r: &mut BenchRunner) {
    use ix_mempool::Mbuf;
    use ix_net::eth::{EthHeader, EtherType, MacAddr};
    use ix_net::ip::{IpProto, Ipv4Header};
    use ix_testkit::Bytes;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    fn tcp_hdr() -> TcpHeader {
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
    fn ip_hdr(l4_len: usize) -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + l4_len) as u16,
            ident: 7,
            ttl: Ipv4Header::DEFAULT_TTL,
            proto: IpProto::Tcp,
            src: SRC,
            dst: DST,
        }
    }
    fn eth_hdr() -> EthHeader {
        EthHeader {
            dst: MacAddr::from_host_index(2),
            src: MacAddr::from_host_index(1),
            ethertype: EtherType::Ipv4,
        }
    }

    // The zero-copy path: one pool mbuf, payload written once into the
    // tail, headers prepended in place (checksums fed the payload slice).
    fn build_inplace(pool: &mut MbufPool, payload: &[u8]) -> Mbuf {
        let tcp = tcp_hdr();
        let hlen = tcp.len();
        let mut m = pool.alloc_with_headroom(ix_net::MAX_TX_HEADER_LEN).expect("capacity");
        m.extend_from_slice(payload);
        tcp.encode(m.prepend(hlen), SRC, DST, payload);
        ip_hdr(hlen + payload.len()).encode(m.prepend(Ipv4Header::LEN));
        eth_hdr().encode(m.prepend(EthHeader::LEN));
        m
    }

    // The replaced pipeline: copy into an owned rtq block, serialize the
    // TCP segment into a Vec, wrap in an L3 Vec, copy into the mbuf.
    fn build_vecchain(pool: &mut MbufPool, payload: &[u8]) -> (Mbuf, Box<[u8]>) {
        let rtq: Box<[u8]> = payload.into();
        let tcp = tcp_hdr();
        let hlen = tcp.len();
        let mut seg = vec![0u8; hlen + rtq.len()];
        seg[hlen..].copy_from_slice(&rtq);
        let (h, t) = seg.split_at_mut(hlen);
        tcp.encode(h, SRC, DST, t);
        let mut l3 = vec![0u8; Ipv4Header::LEN + seg.len()];
        ip_hdr(seg.len()).encode(&mut l3[..Ipv4Header::LEN]);
        l3[Ipv4Header::LEN..].copy_from_slice(&seg);
        let mut m = pool.alloc().expect("capacity");
        m.extend_from_slice(&l3);
        eth_hdr().encode(m.prepend(EthHeader::LEN));
        (m, rtq)
    }

    for (label, size) in [("build_64b", 64usize), ("build_1460b", 1460)] {
        let payload = vec![0xA5u8; size];
        r.bench(&format!("txpath/{label}"), |b| {
            let mut pool = MbufPool::new(1024);
            b.iter(|| black_box(build_inplace(&mut pool, &payload).len()))
        });
        r.bench(&format!("txpath_vecchain/{label}"), |b| {
            let mut pool = MbufPool::new(1024);
            b.iter(|| {
                let (m, rtq) = build_vecchain(&mut pool, &payload);
                black_box(m.len() + rtq.len())
            })
        });
    }

    // Retransmission: the new path bumps a refcount on the shared block
    // and rebuilds in place; the old path deep-cloned the rtq `Box` and
    // re-ran the whole chain.
    let block = Bytes::from(vec![0xA5u8; 1460]);
    r.bench("txpath/retransmit_front", |b| {
        let mut pool = MbufPool::new(1024);
        b.iter(|| {
            let data: Bytes = block.clone();
            black_box(build_inplace(&mut pool, &data).len())
        })
    });
    let boxed: Box<[u8]> = vec![0xA5u8; 1460].into();
    r.bench("txpath_vecchain/retransmit_front", |b| {
        let mut pool = MbufPool::new(1024);
        b.iter(|| {
            let data: Box<[u8]> = boxed.clone();
            let (m, rtq) = build_vecchain(&mut pool, &data);
            black_box(m.len() + rtq.len())
        })
    });
}

/// RX delivery, run through the zero-copy hold/credit pipeline and
/// through the copy model it replaced (a staging copy per delivery, and
/// a second copy when an out-of-order segment drained). The arriving
/// frame's DMA fill is identical in both models; the difference is
/// everything between the ring buffer and the application.
fn bench_rxpath(r: &mut BenchRunner) {
    use std::collections::{BTreeMap, VecDeque};

    use ix_apps::workload::proto;
    use ix_mempool::Mbuf;
    use ix_testkit::Bytes;

    // -- In-order delivery: a 1460 B payload from a just-DMA'd pool mbuf
    // to the app and back (`recv_done`). Zero-copy: a refcounted view
    // and a queue move; the app reads the view where it lies. Copy
    // model: stage into an owned buffer, then append into the app's
    // reassembly buffer — the two copies the old pipeline made. Source
    // payloads rotate across a footprint larger than L1 so the copies
    // pay realistic cache-miss costs, as they would at line rate.
    const SLOTS: usize = 256;
    let sources: Vec<Vec<u8>> = (0..SLOTS).map(|i| vec![i as u8; 1460]).collect();
    r.bench("rxpath/deliver_1460b", |b| {
        let mut pool = MbufPool::new(SLOTS + 8);
        drop(pool.alloc()); // Provision the pool outside the timed loop.
        let mut held: VecDeque<Mbuf> = VecDeque::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&sources[i % SLOTS]); // DMA (both models).
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
    r.bench("rxpath_copy/deliver_1460b", |b| {
        let mut pool = MbufPool::new(SLOTS + 8);
        drop(pool.alloc()); // Provision the pool outside the timed loop.
        let mut rx: Vec<u8> = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&sources[i % SLOTS]); // DMA (both models).
            i += 1;
            let staged = m.data().to_vec(); // Copy one: event staging.
            drop(m);
            rx.extend_from_slice(&staged); // Copy two: app reassembly.
            let n = black_box(rx[0] as usize + rx.len());
            rx.clear();
            n
        })
    });

    // -- Out-of-order: buffer a 1460 B segment, then drain it once the
    // gap fills, trimming a 100 B stale prefix. Zero-copy: the mbuf
    // itself is buffered and later trimmed in place with `pull`. Copy
    // model: one copy into the reassembly map and a second on drain —
    // the double copy the old `drain_ooo` performed.
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
    r.bench("rxpath_copy/ooo_drain", |b| {
        let mut pool = MbufPool::new(SLOTS + 8);
        drop(pool.alloc()); // Provision the pool outside the timed loop.
        let mut rx: Vec<u8> = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut ooo: BTreeMap<u32, Box<[u8]>> = BTreeMap::new();
            let mut m = pool.alloc().expect("capacity");
            m.extend_from_slice(&sources[i % SLOTS]);
            i += 1;
            ooo.insert(1_000, m.data().into()); // Copy one: into the map.
            drop(m);
            let d = ooo.remove(&1_000).expect("present");
            let staged = d[100..].to_vec(); // Copy two: trim on drain.
            rx.extend_from_slice(&staged); // Copy three: app reassembly.
            let n = black_box(rx[0] as usize + rx.len());
            rx.clear();
            n
        })
    });

    // -- Application parse: one delivery carrying eight pipelined GET
    // requests. In place: decode straight from the delivered view (the
    // KV server's contiguous fast path). Copy model: append to the
    // per-connection reassembly buffer first (the old unconditional
    // spill), then decode and drain.
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
    r.bench("rxpath_copy/kv_parse_inplace", |b| {
        let mut rx: Vec<u8> = Vec::new();
        b.iter(|| {
            rx.extend_from_slice(&delivery); // The old unconditional append.
            let mut consumed = 0usize;
            let mut served = 0u32;
            while let Some(h) = proto::decode_request_header(&rx[consumed..]) {
                if rx.len() - consumed < h.total_len() {
                    break;
                }
                consumed += h.total_len();
                served += 1;
            }
            rx.drain(..consumed);
            black_box(served)
        })
    });
}

/// Flow-table workloads, run identically against the open-addressing
/// [`ix_tcp::FlowMap`] and the `HashMap<u64, _>` it replaced in the
/// TCP shard. Payloads are 64 B (a TCB-shaped cache-line) and keys are
/// `FlowId::pack`-shaped words, so the comparison measures exactly the
/// per-packet demux the stack performs.
fn bench_flowtable(r: &mut BenchRunner) {
    use ix_tcp::FlowMap;
    use std::collections::HashMap;

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
    r.bench("flowtable_hashmap/lookup_hit", |b| {
        let mut m: HashMap<u64, Payload> = HashMap::new();
        for i in 0..LIVE as u64 {
            m.insert(flow_key(i), [i; 8]);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i.wrapping_mul(25_214_903_917).wrapping_add(11)) % LIVE;
            black_box(m.get(&flow_key(i as u64)).expect("present")[0]);
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
    r.bench("flowtable_hashmap/insert_churn", |b| {
        let mut m: HashMap<u64, Payload> = HashMap::new();
        for i in 0..LIVE as u64 {
            m.insert(flow_key(i), [i; 8]);
        }
        let (mut head, mut tail) = (LIVE as u64, 0u64);
        b.iter(|| {
            m.insert(flow_key(head), [head; 8]);
            black_box(m.remove(&flow_key(tail)).expect("present"));
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
    r.bench("flowtable_hashmap/migrate_extract", |b| {
        let mut m: HashMap<u64, Payload> = HashMap::new();
        for i in 0..SHARD {
            m.insert(flow_key(i), [i; 8]);
        }
        b.iter(|| {
            let mut batch: Vec<u64> =
                m.iter().filter(|(k, _)| (*k >> 16) & 7 == 0).map(|(k, _)| *k).collect();
            batch.sort_unstable();
            let mut out = Vec::with_capacity(batch.len());
            for &k in &batch {
                out.push((k, m.remove(&k).expect("present")));
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
/// untimed ([`Bencher::iter_timed`]). The bulk path walks the group's
/// intrusive bucket list and splices its timers with `cancel_batch`;
/// the per-flow baseline is the pipeline it replaced, whose cost is
/// O(table) regardless of group size — `collect_keys()` over every
/// live flow, a software Toeplitz hash per key to test group
/// membership, a full key sort, then 4 × (`remaining_ns` + `cancel`)
/// wheel round-trips per extracted flow. Absorb side: the whole shard
/// lands on a freshly-started destination core (the fig9 shape); the
/// bulk path reserves the flow table once and re-arms timers through
/// `schedule_batch` slot handles, the baseline grows the table one
/// insert at a time and pays 4 × `schedule` + `get_mut` re-lookups
/// per flow.
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

    const LOCAL_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
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
            LOCAL_IP,
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

    /// Per-flow baseline extract of the same group: full-table key
    /// scan, a Toeplitz hash per key to test membership, a sort, then
    /// four individual wheel round-trips per flow.
    fn extract_perflow(m: &mut FlowMap<Flow>, w: &mut TimerWheel<u64>, b: u16) -> Vec<(u64, u16, Flow)> {
        let mut batch = m.collect_keys();
        batch.retain(|&k| bucket_of_key(k) == b);
        batch.sort_unstable();
        let mut out = Vec::with_capacity(batch.len());
        for &k in &batch {
            let f = m.remove(k).expect("present");
            for id in f.timers.into_iter().flatten() {
                black_box(w.remaining_ns(id));
                w.cancel(id);
            }
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

    /// Per-flow baseline absorb: one unreserved insert per flow, then
    /// 4 × `schedule` + `get_mut` re-lookup to store each timer id.
    fn absorb_perflow(m: &mut FlowMap<Flow>, w: &mut TimerWheel<u64>, group: Vec<(u64, u16, Flow)>) {
        for (k, b, mut f) in group {
            f.timers = [None; 4];
            m.insert_in_bucket(k, b, f);
            for j in 0..4 {
                let id = w.schedule(delay(k, j), k);
                m.get_mut(k).expect("just inserted").timers[j] = Some(id);
            }
        }
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
        r.bench(&format!("migrate_perflow/extract_{label}"), |be| {
            let (mut m, mut w) = setup(n);
            let mut b = 0u16;
            be.iter_timed(|| {
                let t = Instant::now();
                let group = extract_perflow(&mut m, &mut w, b);
                let dt = t.elapsed();
                black_box(group.len());
                absorb_bulk(&mut m, &mut w, group);
                b = (b + 1) % NUM_BUCKETS as u16;
                dt
            })
        });
        // Absorb-side: the whole shard lands on a freshly-started
        // destination core (the fig9 shape) — empty flow table, empty
        // wheel. The baseline grows both one insert at a time.
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
        r.bench(&format!("migrate_perflow/absorb_{label}"), |be| {
            let (mut m, mut w) = setup(n);
            be.iter_timed(|| {
                let mut group = Vec::with_capacity(n as usize);
                for b in 0..NUM_BUCKETS as u16 {
                    group.append(&mut extract_bulk(&mut m, &mut w, b));
                }
                let mut dm: FlowMap<Flow> = FlowMap::new();
                let mut dw: TimerWheel<u64> = TimerWheel::new();
                let t = Instant::now();
                absorb_perflow(&mut dm, &mut dw, group);
                let dt = t.elapsed();
                black_box(dm.len());
                (m, w) = (dm, dw);
                dt
            })
        });
    }
}

/// The pre-stack RX filter: fixed-offset pre-parse plus one
/// open-addressing policy lookup per frame, against a HashMap-ACL model
/// (separate std maps per rule kind, probed in the same precedence
/// order), plus the SYN-cookie encode/validate pair.
fn bench_filter(r: &mut BenchRunner) {
    use ix_net::filter::{pre_parse, FilterPolicy, PreParsed, RuleAction};
    use ix_net::ip::IpProto;
    use std::collections::HashMap;

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
        use ix_net::eth::{EthHeader, EtherType, MacAddr};
        use ix_net::ip::Ipv4Header;
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let tcp = TcpHeader {
            src_port: 31_337,
            dst_port: 80,
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            mss: Some(1460),
            wscale: None,
        };
        let tcp_len = tcp.len();
        let mut f = vec![0u8; EthHeader::LEN + Ipv4Header::LEN + tcp_len];
        EthHeader {
            dst: MacAddr::from_host_index(1),
            src: MacAddr::from_host_index(2),
            ethertype: EtherType::Ipv4,
        }
        .encode(&mut f[..EthHeader::LEN]);
        Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + tcp_len) as u16,
            ident: 0,
            ttl: 64,
            proto: IpProto::Tcp,
            src,
            dst,
        }
        .encode(&mut f[EthHeader::LEN..EthHeader::LEN + Ipv4Header::LEN]);
        tcp.encode(&mut f[EthHeader::LEN + Ipv4Header::LEN..], src, dst, &[]);
        f
    }

    /// The ACL shape the open-addressing table replaces: one std
    /// HashMap per rule kind, probed src → net16 → port.
    struct HashAcl {
        src: HashMap<u32, RuleAction>,
        net16: HashMap<u32, RuleAction>,
        port: HashMap<(IpProto, u16), RuleAction>,
    }

    impl HashAcl {
        fn model() -> HashAcl {
            let mut src = HashMap::new();
            for i in 0..RULES {
                src.insert(rule_ip(i).0, RuleAction::Drop);
            }
            let mut net16 = HashMap::new();
            net16.insert(0x0af0u32, RuleAction::Drop);
            let mut port = HashMap::new();
            port.insert((IpProto::Tcp, 11_211u16), RuleAction::SynChallenge);
            HashAcl { src, net16, port }
        }

        fn classify(&self, p: &PreParsed) -> u8 {
            let rule = self
                .src
                .get(&p.src_ip.0)
                .or_else(|| self.net16.get(&(p.src_ip.0 >> 16)))
                .or_else(|| self.port.get(&(p.proto, p.dst_port)));
            match rule {
                Some(RuleAction::Drop) => 1,
                Some(_) => 2,
                None => 0,
            }
        }
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
        r.bench(&format!("filter_hashmap/{wl}"), |b| {
            let acl = HashAcl::model();
            b.iter(|| {
                let pre = pre_parse(black_box(frame)).expect("parses");
                black_box(acl.classify(&pre));
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

/// Internet-checksum folding: the widened u64 chunker against the
/// scalar u16-pair fold it replaced. Verify covers the RX validation
/// path (header + payload in one pass), build the TX insertion path.
fn bench_checksum(r: &mut BenchRunner) {
    use ix_net::checksum::checksum;

    /// The pre-widening implementation, kept as the baseline: u16
    /// big-endian pairs into a u32 accumulator, folded at the end.
    fn fold_u16(data: &[u8]) -> u16 {
        let mut sum = 0u32;
        let mut chunks = data.chunks_exact(2);
        for pair in &mut chunks {
            sum += u32::from(u16::from_be_bytes([pair[0], pair[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += (*last as u32) << 8;
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

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
        let base = buf.clone();
        r.bench(&format!("checksum/{wl}"), |b| {
            b.iter(|| black_box(ix_net::checksum::verify(black_box(&buf))))
        });
        r.bench(&format!("checksum_u16/{wl}"), |b| {
            b.iter(|| black_box(fold_u16(black_box(&base)) == 0))
        });
    }

    // Build-shaped: sum a zero-field payload, as TX header encode does.
    let buf = payload(1460);
    r.bench("checksum/build_1460b", |b| {
        b.iter(|| black_box(checksum(black_box(&buf))))
    });
    r.bench("checksum_u16/build_1460b", |b| {
        b.iter(|| black_box(fold_u16(black_box(&buf))))
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
    use ix_net::eth::{EthHeader, EtherType, MacAddr};
    use ix_net::ip::{IpProto, Ipv4Header};
    use ix_tcp::{AckPolicy, StackConfig, TcpEvent, TcpShard};

    const CLI_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SRV_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
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
        let hlen = hdr.len();
        let mut f = vec![0u8; EthHeader::LEN + Ipv4Header::LEN + hlen + payload.len()];
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
            src: CLI_IP,
            dst: SRV_IP,
        }
        .encode(&mut f[EthHeader::LEN..EthHeader::LEN + Ipv4Header::LEN]);
        hdr.encode(&mut f[EthHeader::LEN + Ipv4Header::LEN..], CLI_IP, SRV_IP, payload);
        f[EthHeader::LEN + Ipv4Header::LEN + hlen..].copy_from_slice(payload);
        f
    }

    /// Stands up a shard with `HOT_FLOWS + IDLE_FLOWS` established
    /// connections (distinct client ports starting at 40000) and returns
    /// it plus, per hot flow, the server's `snd_una` (srv_iss + 1).
    fn established_shard(cfg: StackConfig) -> (TcpShard, Vec<u32>) {
        let mut b = TcpShard::new(cfg, SRV_IP, MacAddr::from_host_index(2));
        b.arp_seed(CLI_IP, MacAddr::from_host_index(1));
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
            for mut f in b.take_tx() {
                f.pull(EthHeader::LEN + Ipv4Header::LEN);
                let (hdr, _) = TcpHeader::decode(f.data(), SRV_IP, CLI_IP).expect("tcp");
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
            for e in b.take_events() {
                if let TcpEvent::Knock { flow, .. } = e {
                    b.accept(flow, u64::from(port)).unwrap();
                }
            }
            let _ = b.take_tx();
            let _ = b.take_events();
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
        let mut n = shard.take_tx().len();
        for e in shard.take_events() {
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
        let cfg = StackConfig { ack_policy: AckPolicy::Immediate, ..StackConfig::default() };
        let (mut shard, hot_acks) = established_shard(cfg);
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
        let cfg = StackConfig { ack_policy: AckPolicy::Immediate, ..StackConfig::default() };
        let (mut shard, hot_acks) = established_shard(cfg);
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

fn bench_end_to_end(r: &mut BenchRunner) {
    // Simulation engine throughput: how many virtual echo messages per
    // wall-second the DES sustains (determines bench harness runtimes).
    r.bench("simulation/ix_echo_1ms_virtual", |b| {
        b.iter(|| {
            use ix_apps::harness::{run_netpipe, EngineTuning, System};
            black_box(run_netpipe(System::Ix, 64, 50, &EngineTuning::default()))
        })
    });
}

/// Persists every result (and the calendar-vs-BinaryHeap comparison) to
/// `results/BENCH_sim.json`.
fn write_report(r: &BenchRunner) {
    let quick = std::env::var("IX_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let mut rows = String::from("[");
    for (i, res) in r.results().iter().enumerate() {
        if i > 0 {
            rows.push_str(", ");
        }
        rows += &format!(
            "{{\"name\": \"{}\", \"ns_per_iter\": {:.2}, \"iters\": {}}}",
            ix_bench::report::json_escape(&res.name),
            res.ns_per_iter,
            res.iters
        );
    }
    rows.push(']');
    // Quick (CI smoke) runs get their own keys so they never clobber
    // recorded full-length numbers.
    let suffix = if quick { "_quick" } else { "" };
    ix_bench::report::update_section(
        &format!("microbench{suffix}"),
        &format!("{{\"quick\": {quick}, \"results\": {rows}}}"),
    );

    // One event fires per iteration in every scheduler workload, so
    // events/sec is directly 1e9 / ns_per_iter and the speedup is the
    // ns ratio against the BinaryHeap model.
    let find = |name: &str| r.results().iter().find(|x| x.name == name).map(|x| x.ns_per_iter);
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["churn_fire_8k", "cancel_rto_rearm", "mixed_near_far"] {
        if let (Some(new), Some(base)) = (
            find(&format!("scheduler/{wl}")),
            find(&format!("scheduler_binheap/{wl}")),
        ) {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"calendar_ns\": {new:.2}, \"binheap_ns\": {base:.2}, \
                 \"calendar_events_per_sec\": {:.0}, \"binheap_events_per_sec\": {:.0}, \
                 \"speedup\": {:.2}}}",
                1e9 / new,
                1e9 / base,
                base / new
            );
            println!(
                "[scheduler] {wl}: {:.1} ns/event vs binheap {:.1} ns/event ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("scheduler_speedup{suffix}"), &cmp);
    }

    // Same shape for the flow-table workloads: identical workload run
    // against the open-addressing FlowMap and the HashMap it replaced.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["lookup_hit", "insert_churn", "migrate_extract"] {
        if let (Some(new), Some(base)) = (
            find(&format!("flowtable/{wl}")),
            find(&format!("flowtable_hashmap/{wl}")),
        ) {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"flowtable_ns\": {new:.2}, \"hashmap_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[flowtable] {wl}: {:.1} ns/op vs HashMap {:.1} ns/op ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("flowtable_speedup{suffix}"), &cmp);
    }

    // And for the TX build path: the in-place zero-copy pipeline against
    // the Vec-chain model it replaced.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["build_64b", "build_1460b", "retransmit_front"] {
        if let (Some(new), Some(base)) =
            (find(&format!("txpath/{wl}")), find(&format!("txpath_vecchain/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"inplace_ns\": {new:.2}, \"vecchain_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[txpath] {wl}: {:.1} ns/seg vs vec-chain {:.1} ns/seg ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("txpath_speedup{suffix}"), &cmp);
    }

    // And for the RX delivery path: the zero-copy hold/credit pipeline
    // against the staging-copy model it replaced.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["deliver_1460b", "ooo_drain", "kv_parse_inplace"] {
        if let (Some(new), Some(base)) =
            (find(&format!("rxpath/{wl}")), find(&format!("rxpath_copy/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"zerocopy_ns\": {new:.2}, \"copy_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[rxpath] {wl}: {:.1} ns/op vs copy model {:.1} ns/op ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("rxpath_speedup{suffix}"), &cmp);
    }

    // And for flow-group migration: the bulk bucket-walk + timer-splice
    // path against the per-flow scan/sort/re-lookup pipeline it
    // replaced. One iteration migrates 1/8 of the shard out and back.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in
        ["extract_1k", "extract_10k", "extract_100k", "absorb_1k", "absorb_10k", "absorb_100k"]
    {
        if let (Some(new), Some(base)) =
            (find(&format!("migrate/{wl}")), find(&format!("migrate_perflow/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"bulk_ns\": {new:.2}, \"perflow_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[migrate] {wl}: {:.1} ns/round vs per-flow {:.1} ns/round ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("migrate_speedup{suffix}"), &cmp);
    }

    // And for the pre-stack filter: pre-parse + one open-addressing
    // lookup per frame against the HashMap-ACL model, plus the absolute
    // per-SYN cookie cost (no baseline — the alternative is a TCB).
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["classify_hit", "classify_miss"] {
        if let (Some(new), Some(base)) =
            (find(&format!("filter/{wl}")), find(&format!("filter_hashmap/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"filter_ns\": {new:.2}, \"hashmap_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[filter] {wl}: {:.1} ns/frame vs HashMap ACL {:.1} ns/frame ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    if let Some(ns) = find("filter/syn_cookie_roundtrip") {
        if !first {
            cmp.push_str(", ");
        }
        cmp += &format!("\"syn_cookie_roundtrip\": {{\"filter_ns\": {ns:.2}}}");
        println!("[filter] syn_cookie_roundtrip: {ns:.1} ns/handshake (mint + validate)");
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("filter_speedup{suffix}"), &cmp);
    }

    // And for checksum folding: the u64 chunker against the scalar
    // u16-pair fold it replaced, on verify- and build-shaped buffers.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["verify_64b", "verify_1460b", "build_1460b"] {
        if let (Some(new), Some(base)) =
            (find(&format!("checksum/{wl}")), find(&format!("checksum_u16/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"wide_ns\": {new:.2}, \"u16_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[checksum] {wl}: {:.1} ns/op vs u16 fold {:.1} ns/op ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("checksum_speedup{suffix}"), &cmp);
    }

    // And for RX batching: one flow-grouped 64-frame `input_batch`
    // against the same frames fed one `input()` call at a time.
    let mut cmp = String::from("{");
    let mut first = true;
    for wl in ["group_probe"] {
        if let (Some(new), Some(base)) =
            (find(&format!("rxbatch/{wl}")), find(&format!("rxbatch_frame/{wl}")))
        {
            if !first {
                cmp.push_str(", ");
            }
            first = false;
            cmp += &format!(
                "\"{wl}\": {{\"batched_ns\": {new:.2}, \"perframe_ns\": {base:.2}, \
                 \"speedup\": {:.2}}}",
                base / new
            );
            println!(
                "[rxbatch] {wl}: {:.1} ns/batch vs per-frame {:.1} ns/batch ({:.2}x)",
                new,
                base,
                base / new
            );
        }
    }
    cmp.push('}');
    if cmp.len() > 2 {
        ix_bench::report::update_section(&format!("rxbatch_speedup{suffix}"), &cmp);
    }
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
    bench_end_to_end(&mut r);
    write_report(&r);
    r.finish();
}
