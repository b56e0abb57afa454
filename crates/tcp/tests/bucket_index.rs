//! Bucket-index ↔ flow-table consistency: the per-RSS-bucket intrusive
//! lists `FlowMap` maintains for flow-group migration must stay in
//! lock-step with the probe table under arbitrary insert / remove /
//! extract / absorb churn — every live bucketed entry reachable from
//! exactly one bucket list, in insertion order, with no stale links
//! after a migration round-trip — and the migration order must be a
//! function of the insertion history alone, independent of table
//! layout (capacity, growth history, slab fragmentation).

use std::collections::HashMap;

use ix_net::rss::RSS_BUCKETS;
use ix_tcp::config::StackConfig;
use ix_tcp::event::FlowId;
use ix_tcp::tcb::TcpState;
use ix_tcp::{FlowMap, Tcb, TcpShard, NO_BUCKET};
use ix_testkit::prelude::*;

/// One scripted operation against the map and its model.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Bucketed insert (the shard's flow-adoption path).
    Insert(u64, u16, u32),
    /// Plain insert — unbucketed, must stay invisible to bucket walks.
    InsertPlain(u64, u32),
    /// Remove (connection teardown).
    Remove(u64),
    /// Drain one whole bucket into the migrated pool (extract side).
    Extract(u16),
    /// Re-insert everything in the migrated pool (absorb side).
    Absorb,
}

fn key() -> impl Strategy<Value = u64> {
    (0u64..300).prop_map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Buckets concentrate on 0..6 so lists grow long enough to exercise
/// middle-of-list unlinks, with occasional strays across the full 128.
fn bucket() -> impl Strategy<Value = u16> {
    prop_oneof![
        6 => 0u16..6,
        1 => 0u16..RSS_BUCKETS as u16,
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key(), bucket(), any::<u32>()).prop_map(|(k, b, v)| Op::Insert(k, b, v)),
        1 => (key(), any::<u32>()).prop_map(|(k, v)| Op::InsertPlain(k, v)),
        3 => key().prop_map(Op::Remove),
        2 => bucket().prop_map(Op::Extract),
        1 => (0u8..1).prop_map(|_| Op::Absorb),
    ]
}

/// Model entry: bucket, value, and the insertion sequence number that
/// defines its position in the bucket list.
type Model = HashMap<u64, (u16, u32, u64)>;

/// The model's prediction of one bucket's walk order.
fn model_bucket_keys(model: &Model, b: u16) -> Vec<u64> {
    let mut keys: Vec<(u64, u64)> = model
        .iter()
        .filter(|(_, &(mb, _, _))| mb == b)
        .map(|(&k, &(_, _, seq))| (seq, k))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, k)| k).collect()
}

/// Full-structure audit: every bucket list matches the model's order,
/// every live bucketed key appears on exactly one list, unbucketed
/// entries appear on none, and `bucket_of` agrees everywhere.
fn audit(map: &FlowMap<u32>, model: &Model) {
    prop_assert_eq!(map.len(), model.len());
    let mut seen: HashMap<u64, u16> = HashMap::new();
    for b in 0..RSS_BUCKETS as u16 {
        let got: Vec<u64> = map.bucket_keys(b).collect();
        let want = model_bucket_keys(model, b);
        prop_assert_eq!(&got, &want, "bucket {} walk order", b);
        // The O(1) population counter must agree with the actual walk.
        prop_assert_eq!(map.bucket_len(b), got.len(), "bucket {} counter", b);
        for k in got {
            prop_assert!(seen.insert(k, b).is_none(), "key {k} on two bucket lists");
        }
    }
    for (&k, &(b, v, _)) in model {
        prop_assert_eq!(map.get(k), Some(&v), "value for {k}");
        prop_assert_eq!(map.bucket_of(k), Some(b), "bucket_of({k})");
        if b == NO_BUCKET {
            prop_assert!(!seen.contains_key(&k), "unbucketed {k} reachable from a list");
        } else {
            prop_assert_eq!(seen.get(&k).copied(), Some(b), "{k} missing from its list");
        }
    }
}

props! {
    #![config(cases = 256)]

    /// Randomized churn keeps the bucket index and the probe table
    /// consistent, including across extract/absorb migration rounds.
    #[test]
    fn bucket_index_stays_consistent_under_churn(ops in collection::vec(op(), 0..250)) {
        let mut map: FlowMap<u32> = FlowMap::new();
        let mut model: Model = HashMap::new();
        let mut pool: Vec<(u64, u16, u32)> = Vec::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                Op::Insert(k, b, v) => {
                    let (_, old) = map.insert_in_bucket(k, b, v);
                    let prev = model.insert(k, (b, v, seq));
                    prop_assert_eq!(old, prev.map(|(_, pv, _)| pv), "displaced for {}", k);
                    // Same-bucket replacement keeps its list position.
                    if let Some((pb, _, pseq)) = prev {
                        if pb == b {
                            model.insert(k, (b, v, pseq));
                        }
                    }
                    seq += 1;
                }
                Op::InsertPlain(k, v) => {
                    let old = map.insert(k, v);
                    let prev = model.insert(k, (NO_BUCKET, v, seq));
                    prop_assert_eq!(old, prev.map(|(_, pv, _)| pv));
                    if let Some((pb, _, pseq)) = prev {
                        if pb == NO_BUCKET {
                            model.insert(k, (NO_BUCKET, v, pseq));
                        }
                    }
                    seq += 1;
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(k), model.remove(&k).map(|(_, v, _)| v));
                }
                Op::Extract(b) => {
                    let keys: Vec<u64> = map.bucket_keys(b).collect();
                    prop_assert_eq!(&keys, &model_bucket_keys(&model, b), "extract order");
                    for k in keys {
                        let v = map.remove(k).expect("listed key present");
                        let (mb, mv, _) = model.remove(&k).expect("model has it");
                        prop_assert_eq!((mb, mv), (b, v));
                        pool.push((k, b, v));
                    }
                    prop_assert_eq!(map.bucket_len(b), 0, "bucket drained");
                }
                Op::Absorb => {
                    for (k, b, v) in pool.drain(..) {
                        map.insert_in_bucket(k, b, v);
                        let prev = model.insert(k, (b, v, seq));
                        // A pooled key re-inserted live before the absorb
                        // keeps its live list position (same-bucket
                        // replacement does not re-home).
                        if let Some((pb, _, pseq)) = prev {
                            if pb == b {
                                model.insert(k, (b, v, pseq));
                            }
                        }
                        seq += 1;
                    }
                }
            }
        }
        audit(&map, &model);
    }

    /// Migration order is layout-independent: the same per-bucket
    /// insertion history walked on a fresh pre-sized map and on a map
    /// with a completely different capacity/churn past (grown through
    /// thousands of unrelated inserts and removals, fragmented slab)
    /// yields byte-identical bucket walks.
    #[test]
    fn two_table_layouts_yield_identical_migration_order(
        inserts in collection::vec((key(), bucket()), 1..120),
        churn in 100usize..2000,
    ) {
        let mut fresh: FlowMap<u64> = FlowMap::with_capacity(4096);
        let mut scarred: FlowMap<u64> = FlowMap::new();
        // Scar tissue: grow the table and fragment the slab/free list
        // with keys disjoint from the test set, then delete them all.
        for i in 0..churn as u64 {
            scarred.insert_in_bucket(u64::MAX - i, (i % 64) as u16, i);
        }
        for i in 0..churn as u64 {
            scarred.remove(u64::MAX - i);
        }
        for (i, &(k, b)) in inserts.iter().enumerate() {
            fresh.insert_in_bucket(k, b, i as u64);
            scarred.insert_in_bucket(k, b, i as u64);
        }
        for b in 0..RSS_BUCKETS as u16 {
            let a: Vec<u64> = fresh.bucket_keys(b).collect();
            let c: Vec<u64> = scarred.bucket_keys(b).collect();
            prop_assert_eq!(a, c, "bucket {} order differs across layouts", b);
        }
    }
}

/// Builds a hand-made established TCB for `(remote_ip, rport, lport)`
/// the way the watchdog re-steer path would hand one to `absorb_flows`.
fn mk_tcb(cfg: &StackConfig, gen: u32, remote: u32, rport: u16, lport: u16) -> Tcb {
    let key = FlowId::pack(ix_net::Ipv4Addr(remote), rport, lport);
    Tcb::new(cfg, FlowId { key, gen }, 0, TcpState::Established, 0x1000)
}

/// Every bucket's flows, bucket 0..128, each in insertion order.
fn extract_all(s: &mut TcpShard) -> Vec<Tcb> {
    let mut out = Vec::new();
    (0..RSS_BUCKETS as u16).for_each(|b| s.extract_bucket_into(b, &mut out));
    out
}

/// Shard-level determinism pin: two shards with different flow-table
/// histories (one brand new, one that already absorbed and re-extracted
/// thousands of unrelated flows, growing its table and fragmenting its
/// slab) absorb the same flows in the same order — and then extract
/// them in the same order. This is the property the control plane's
/// migration replay depends on.
#[test]
fn shard_extract_order_is_layout_independent() {
    let cfg = StackConfig::default();
    let ip = ix_net::Ipv4Addr::new(10, 0, 0, 1);
    let mac = ix_net::eth::MacAddr([2, 0, 0, 0, 0, 1]);
    let mut a = TcpShard::new(cfg.clone(), ip, mac);
    let mut b = TcpShard::new(cfg.clone(), ip, mac);
    // Scar shard `b`: absorb 3000 unrelated flows, then extract them
    // all away. Its table capacity and slab free list now differ
    // completely from `a`'s.
    let scar: Vec<Tcb> =
        (0..3000u32).map(|i| mk_tcb(&cfg, 1, 0x0b00_0001 + i, 40_000, 7000)).collect();
    b.absorb_flows(0, scar);
    let extracted = extract_all(&mut b);
    assert_eq!(extracted.len(), 3000);
    // Same flows, same order, into both shards.
    let mkset = |gen: u32| -> Vec<Tcb> {
        (0..500u32)
            .map(|i| mk_tcb(&cfg, gen + i, 0x0a00_0002 + (i * 7) % 251, 30_000 + (i as u16 % 91), 7000))
            .collect()
    };
    a.absorb_flows(0, mkset(10));
    b.absorb_flows(0, mkset(10));
    let ea: Vec<u64> = extract_all(&mut a).iter().map(|t| t.id.key).collect();
    let eb: Vec<u64> = extract_all(&mut b).iter().map(|t| t.id.key).collect();
    assert!(!ea.is_empty());
    assert_eq!(ea, eb, "extract order depends on table layout");
}

/// Absorb computes a hand-built TCB's RSS bucket once; extracting that
/// bucket then finds it without any scan.
#[test]
fn absorbed_flows_land_on_their_bucket_list() {
    let cfg = StackConfig::default();
    let ip = ix_net::Ipv4Addr::new(10, 0, 0, 1);
    let mac = ix_net::eth::MacAddr([2, 0, 0, 0, 0, 1]);
    let mut s = TcpShard::new(cfg.clone(), ip, mac);
    let flows: Vec<Tcb> =
        (0..256u32).map(|i| mk_tcb(&cfg, 1 + i, 0x0a00_0100 + i, 41_000, 7000)).collect();
    let keys: Vec<u64> = flows.iter().map(|t| t.id.key).collect();
    s.absorb_flows(0, flows);
    assert_eq!(s.flow_count(), 256);
    // Every flow is reachable through exactly one bucket walk.
    let mut found = 0usize;
    let mut per_bucket_total = 0usize;
    for bkt in 0..RSS_BUCKETS as u16 {
        per_bucket_total += s.bucket_len(bkt);
        let mut group = Vec::new();
        s.extract_bucket_into(bkt, &mut group);
        found += group.iter().filter(|t| keys.contains(&t.id.key)).count();
        s.absorb_flows(0, group);
    }
    assert_eq!(per_bucket_total, 256);
    assert_eq!(found, 256);
    assert_eq!(s.flow_count(), 256, "extract/absorb round-trip leaked flows");
}
