//! The memcached request path against models of what it replaced
//! (DESIGN.md §13, "the memcached path"):
//!
//! * the log-structured store against a `HashMap` — results, `len()` and
//!   every lock charge;
//! * requests and responses built in place in recycled blocks against
//!   the vector-building encoders they replaced, byte for byte, with no
//!   block rewritten under a live view;
//! * the server's stream parser, fed arbitrary bytes in arbitrary cuts,
//!   against the same bytes delivered whole — and, over a real
//!   connection, a header beyond the protocol's limits answered with a
//!   reset.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::OnceLock;

use ix_apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix_apps::kvstore::{key_hash, KvServer, SharedStore, SEGMENT};
use ix_apps::mutilate::build_request;
use ix_apps::workload::{proto, Workload, WorkloadKind};
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_mempool::Blocks;
use ix_tcp::DeadReason;
use ix_testkit::prelude::*;

/// `proto::encode_request` as it was before the in-place writers.
fn reference_request(op: u8, seq: u64, key: &[u8], val: &[u8]) -> Vec<u8> {
    let mut out = vec![op];
    out.extend_from_slice(&(key.len() as u16).to_be_bytes());
    out.extend_from_slice(&(val.len() as u32).to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(key);
    if op == proto::OP_SET {
        out.extend_from_slice(val);
    }
    out
}

/// `proto::encode_response` as it was.
fn reference_response(status: u8, seq: u64, val: &[u8]) -> Vec<u8> {
    let mut out = vec![status];
    out.extend_from_slice(&(val.len() as u32).to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(val);
    out
}

/// `Workload::key_bytes` as it was.
fn reference_key(key: u64, key_len: usize) -> Vec<u8> {
    let mut v = vec![b'k'; key_len];
    let n = key_len.min(8);
    v[..n].copy_from_slice(&key.to_le_bytes()[..n]);
    v
}

/// Sixty-four keys whose hashes agree in their top ten bits: up to 1024
/// index slots they all have the same home, so they lie on one probe
/// chain through every doubling the store test reaches.
fn colliding_keys() -> &'static [Vec<u8>] {
    static KEYS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|n| format!("chained-{n}").into_bytes())
            .filter(|k| key_hash(k) >> 54 == 0x155)
            .take(64)
            .collect();
        keys
    })
}

/// The store's lock, restated: `(charge, wait)` for a section of
/// `crit_ns` entered at `now_ns`.
fn model_lock(busy_until_ns: &mut u64, now_ns: u64, crit_ns: u64) -> (u64, u64) {
    let wait = busy_until_ns.saturating_sub(now_ns);
    *busy_until_ns = now_ns.max(*busy_until_ns) + crit_ns;
    (wait + crit_ns, wait)
}

#[test]
fn encoders_match_the_bytes_pinned_at_the_parent_commit() {
    // Printed by the parent commit's `encode_request` / `encode_response`
    // / `key_bytes`, not derived from the code under test.
    let get = proto::encode_request(
        proto::OP_GET,
        0x0102_0304_0506_0708,
        &Workload::key_bytes(0x1234, 20),
        &[0; 300],
    );
    assert_eq!(
        get,
        [
            0, 0, 20, 0, 0, 1, 44, 1, 2, 3, 4, 5, 6, 7, 8, 52, 18, 0, 0, 0, 0, 0, 0, 107, 107, 107,
            107, 107, 107, 107, 107, 107, 107, 107, 107
        ]
    );
    let set = proto::encode_request(
        proto::OP_SET,
        77,
        &Workload::key_bytes(0x0a0b_0c0d_0e0f_1011, 5),
        b"www",
    );
    assert_eq!(
        set,
        [1, 0, 5, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 77, 17, 16, 15, 14, 13, 119, 119, 119]
    );
    let rsp = proto::encode_response(proto::ST_OK, 42, b"ab");
    assert_eq!(rsp, [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 42, 97, 98]);
}

#[test]
fn no_block_is_rewritten_under_a_live_view() {
    let workload = Workload::new(WorkloadKind::Etc);
    let (mut rng, mut pick) = (SimRng::new(21), SimRng::new(22));
    let mut blocks = Blocks::new();
    // Views held for a random while — TCP's retransmit queue, with
    // acknowledgements out of order across connections — beside a copy
    // of what each showed when it was built.
    let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
    for seq in 0..10_000 {
        let view = build_request(&mut blocks, &workload, &mut rng, seq);
        held.push((view.clone(), view.to_vec()));
        while held.len() > 48 || (!held.is_empty() && pick.chance(0.3)) {
            let (view, copy) = held.swap_remove(pick.below(held.len() as u64) as usize);
            assert_eq!(
                view, copy,
                "a block was rewritten while lent (request {seq})"
            );
        }
    }
    assert!(held.iter().all(|(view, copy)| view == copy));
    // And the pool followed the 48 in flight, not the 10 000 built.
    assert!(blocks.made() < 6 * 48, "{} blocks made", blocks.made());
}

/// Writes `stream` on one connection and records what comes back and how
/// the connection ends.
struct RawClient {
    server: ix_net::Ipv4Addr,
    stream: Bytes,
    dialed: bool,
    seen: Rc<RefCell<(Vec<u8>, Option<DeadReason>)>>,
}

impl LibixHandler for RawClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !std::mem::replace(&mut self.dialed, true) {
            ctx.connect(self.server, 11211, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok && ctx.write(self.stream.clone()));
    }

    fn on_data(&mut self, _ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.seen.borrow_mut().0.extend_from_slice(data);
    }

    fn on_dead(&mut self, _ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.seen.borrow_mut().1 = Some(reason);
    }

    fn wants_tick(&self, _now_ns: u64) -> bool {
        !self.dialed
    }
}

#[test]
fn a_length_beyond_the_limits_resets_the_connection() {
    // A GET header asking for a 4 GiB filler, then a SET header
    // promising a 4 GiB value; each behind one good request, and each
    // followed by a good one that must not be served.
    for op in [proto::OP_GET, proto::OP_SET] {
        let mut stream = proto::encode_request(proto::OP_SET, 1, b"kept", b"v");
        stream.push(op);
        stream.extend_from_slice(&4u16.to_be_bytes());
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&2u64.to_be_bytes());
        stream.extend_from_slice(b"evil");
        stream.extend(proto::encode_request(proto::OP_SET, 3, b"not-kept", b"v"));

        let tuning = EngineTuning::default();
        let mut tb = Testbed::new(9, 1, 1);
        let store = SharedStore::new();
        let st = store.clone();
        tb.launch_server(System::Ix, 2, &tuning, 11211, |_| KvServer::new(st.clone()));
        let seen = Rc::new(RefCell::new((Vec::new(), None)));
        let (server, stream, sn) = (tb.server_ip(), Bytes::from(stream), seen.clone());
        tb.launch_linux_clients(1, &tuning, |_, _| RawClient {
            server,
            stream: stream.clone(),
            dialed: false,
            seen: sn.clone(),
        });
        tb.run_until_ns(50_000_000);

        // The abort dropped the first request's queued response with
        // the connection: the client sees the reset and nothing else.
        assert_eq!(*seen.borrow(), (Vec::new(), Some(DeadReason::PeerReset)));
        let Some(ServerEngine::Ix(dp)) = &tb.engine else {
            unreachable!("an IX server")
        };
        let (mut served, mut rejected, mut conns) = (0, 0, 0);
        for th in &dp.threads {
            let mut th = th.borrow_mut();
            let libix: &mut Libix<KvServer> = th.base.app_mut().as_any().downcast_mut().expect("libix");
            served += libix.handler().served;
            rejected += libix.handler().rejected;
            conns += libix.conn_count() + libix.handler().spilled_conns();
        }
        assert_eq!((served, rejected, conns), (1, 1, 0));
        assert_eq!(
            store.borrow().len(),
            1,
            "only the request before the bad header was served"
        );
    }
}

props! {
    /// Random SET / GET / overwrite sequences: a pool of 320 keys — 64 of
    /// them on one probe chain — takes the index through three
    /// doublings, with the odd value longer than a segment.
    #[test]
    fn store_matches_a_hashmap_model(seed in any::<u64>(), ops in 900usize..1100) {
        let mut rng = SimRng::new(seed);
        let mut keys = colliding_keys().to_vec();
        while keys.len() < 320 {
            let mut key = reference_key(rng.next_u64(), rng.below(72) as usize);
            key.push(keys.len() as u8); // distinct whatever the draw
            keys.push(key);
        }
        let store = SharedStore::new();
        let mut store = store.borrow_mut();
        let (crit_get, crit_set) = (store.crit_get_ns, store.crit_set_ns);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let (mut now, mut busy, mut waited, mut log_bytes) = (0u64, 0u64, 0u64, 0u64);
        for n in 0..ops {
            // Now and then two threads arrive in the same instant.
            now += rng.below(4) * rng.below(300);
            let key = &keys[rng.below(keys.len() as u64) as usize];
            if rng.chance(0.6) {
                let long = rng.chance(0.004);
                let len = if long { SEGMENT + rng.below(1 << 16) as usize } else { rng.below(200) as usize };
                let val = vec![n as u8; len];
                let (charge, wait) = model_lock(&mut busy, now, crit_set);
                prop_assert_eq!(store.set(now, key, &val), charge);
                waited += wait;
                log_bytes += (key.len() + len) as u64;
                model.insert(key.clone(), val);
            } else {
                let (charge, wait) = model_lock(&mut busy, now, crit_get);
                let (charged, hit) = store.get(now, key);
                prop_assert_eq!(charged, charge);
                prop_assert_eq!(hit, model.get(key).map(Vec::as_slice));
                waited += wait;
            }
            prop_assert_eq!(store.len(), model.len());
        }
        prop_assert_eq!((store.ops, store.lock_wait_ns), (ops as u64, waited));
        prop_assert_eq!(store.log_bytes(), log_bytes);
        prop_assert!(store.len() > 192, "{} keys: fewer than three index doublings", store.len());
        // Everything is still there after the last doubling, and keys
        // never set are still misses.
        for key in &keys {
            prop_assert_eq!(store.get(now, key).1, model.get(key).map(Vec::as_slice));
        }
        prop_assert_eq!(store.is_empty(), model.is_empty());
    }

    /// A client's requests and the server's responses to them, built in
    /// blocks, are the bytes the vector encoders produced.
    #[test]
    fn blocks_carry_the_same_wire_bytes(
        seed in any::<u64>(),
        usr in any::<bool>(),
        n in 1u64..120,
    ) {
        let mut workload = Workload::new(if usr { WorkloadKind::Usr } else { WorkloadKind::Etc });
        workload.key_space = 16; // GETs that hit
        let (mut rng, mut model_rng) = (SimRng::new(seed), SimRng::new(seed));
        let mut blocks = Blocks::new();
        let mut server = KvServer::new(SharedStore::new());
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut in_flight = Vec::new();
        for seq in 0..n {
            let req = build_request(&mut blocks, &workload, &mut rng, seq);
            let op = workload.next_op(&mut model_rng);
            let key = reference_key(op.key, op.key_len);
            let (opcode, val) = if op.is_get {
                (proto::OP_GET, vec![0; op.val_len])
            } else {
                (proto::OP_SET, vec![b'w'; op.val_len])
            };
            prop_assert_eq!(&req[..], &reference_request(opcode, seq, &key, &val)[..]);

            let mut rsps = Vec::new();
            let delivery = server.deliver(3, seq * 1_000_000, &req, |rsp| rsps.push(rsp));
            prop_assert!(!delivery.rejected);
            let expected = if op.is_get {
                model.get(&key).cloned().unwrap_or_else(|| vec![b'v'; op.val_len])
            } else {
                model.insert(key, val);
                Vec::new()
            };
            prop_assert_eq!(rsps.len(), 1);
            prop_assert_eq!(&rsps[0][..], &reference_response(proto::ST_OK, seq, &expected)[..]);
            // Both stay lent, as if unacknowledged, to the end.
            in_flight.push((req.clone(), req.to_vec()));
            in_flight.push((rsps[0].clone(), rsps[0].to_vec()));
        }
        prop_assert!(in_flight.iter().all(|(view, copy)| view == copy));
        prop_assert_eq!(server.served, n);
    }

    /// Arbitrary bytes — requests, some with unknown opcodes, and
    /// garbage between them — cut into arbitrary deliveries: nothing
    /// panics, and the server answers exactly as it does to the same
    /// bytes delivered whole, so every byte was parsed or carried over
    /// exactly once. A stream that goes bad is rejected once.
    #[test]
    fn parser_serves_any_cut_of_a_stream_as_it_serves_the_whole(
        seed in any::<u64>(),
        items in 1usize..30,
        cuts in collection::vec(1usize..120, 1..60),
    ) {
        let mut rng = SimRng::new(seed);
        let mut stream = Vec::new();
        for seq in 0..items as u64 {
            if rng.chance(0.1) {
                stream.extend((0..rng.range_inclusive(1, 40)).map(|_| rng.next_u64() as u8));
            } else {
                let key = reference_key(rng.below(8), rng.below(30) as usize);
                let val = vec![seq as u8; rng.below(400) as usize];
                stream.extend(proto::encode_request(rng.below(3) as u8, seq, &key, &val));
            }
        }
        if rng.chance(0.5) {
            stream.truncate(rng.below(stream.len() as u64 + 1) as usize);
        }

        let whole_store = SharedStore::new();
        let mut whole = KvServer::new(whole_store.clone());
        let mut whole_rsps = Vec::new();
        let whole_delivery = whole.deliver(1, 0, &stream, |rsp| whole_rsps.extend_from_slice(&rsp));

        let cut_store = SharedStore::new();
        let mut cut = KvServer::new(cut_store.clone());
        let (mut cut_rsps, mut charge_ns, mut rejected) = (Vec::new(), 0, false);
        let (mut rest, mut now, mut deliveries) = (&stream[..], 0, 0);
        for len in cuts.iter().cycle() {
            if rest.is_empty() || rejected {
                break;
            }
            deliveries += 1;
            let (head, tail) = rest.split_at((*len).min(rest.len()));
            // A millisecond apart: the lock has always drained.
            now += 1_000_000;
            let delivery = cut.deliver(1, now, head, |rsp| cut_rsps.extend_from_slice(&rsp));
            charge_ns += delivery.charge_ns;
            rejected = delivery.rejected;
            rest = tail;
        }

        prop_assert_eq!(&cut_rsps, &whole_rsps);
        prop_assert_eq!(
            (cut.served, rejected, charge_ns),
            (whole.served, whole_delivery.rejected, whole_delivery.charge_ns)
        );
        prop_assert_eq!((cut.rejected, whole.rejected), (rejected as u64, rejected as u64));
        prop_assert_eq!(cut.spilled_conns(), whole.spilled_conns());
        prop_assert!(whole.spilled_conns() <= !rejected as usize, "a rejected stream kept a spill");
        let (cut_store, whole_store) = (cut_store.borrow(), whole_store.borrow());
        prop_assert_eq!(
            (cut_store.len(), cut_store.log_bytes()),
            (whole_store.len(), whole_store.log_bytes())
        );
        // One response per request served, whole; and every delivery
        // was either parsed in place or staged, the rejected one perhaps
        // neither.
        let (mut rsps, mut answered) = (&whole_rsps[..], 0);
        while let Some(h) = proto::decode_response_header(rsps) {
            rsps = &rsps[h.total_len()..];
            answered += 1;
        }
        prop_assert_eq!((answered, rsps.len()), (whole.served, 0));
        let unstaged = deliveries - (cut.inplace_parses + cut.spill_copies);
        prop_assert!(unstaged <= rejected as u64, "{deliveries} deliveries, {unstaged} on no path");
    }
}
