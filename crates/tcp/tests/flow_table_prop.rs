//! Differential property tests: `FlowTable`/`FlowMap` must agree with
//! `std::collections::HashMap` on every observable — lookups, displaced
//! values, removal results, lengths, and the full iterated contents —
//! under randomized insert/remove/lookup workloads, including batches
//! of keys engineered to collide in the open-addressing home bucket
//! (the regime where linear probing and backshift deletion actually do
//! work).

use std::collections::HashMap;

use ix_tcp::{FlowMap, FlowTable};
use ix_testkit::prelude::*;

/// The table's hash finisher, replicated so the test can *search* for
/// colliding keys. Keep in sync with `flow_table::mix` — if they drift
/// the collision batches merely lose their bite (keys stop colliding);
/// correctness checking is unaffected.
fn mix(key: u64) -> u64 {
    let mut x = key;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Keys whose hashes share a home bucket in any table of up to
/// `2^bucket_bits` slots (their mixed low bits all equal `target`).
fn collider_pool(target: u64, bucket_bits: u32, n: usize) -> Vec<u64> {
    let mask = (1u64 << bucket_bits) - 1;
    (0..).filter(|&k| mix(k) & mask == target).take(n).collect()
}

/// One scripted operation against both maps.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Insert `key → val`, comparing the displaced value.
    Insert(u64, u32),
    /// Remove `key`, comparing the returned value.
    Remove(u64),
    /// Look up `key`, comparing presence and value.
    Get(u64),
}

/// Draws an op over a constrained key space: small random keys (so
/// removes and re-inserts actually hit), plus a pool of 32 keys that
/// all collide in any table up to 1024 slots, plus key 0 (the
/// would-be-sentinel edge) and u64::MAX.
fn key() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => (0u64..200).prop_map(|k| k * 3),
        3 => (0usize..32).prop_map(|i| {
            // Deterministic pool; recomputed per draw (cheap at n=32).
            collider_pool(7, 10, 32)[i]
        }),
        1 => (0u64..2).prop_map(|i| if i == 0 { 0 } else { u64::MAX }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v & 0xffff)),
        3 => key().prop_map(Op::Remove),
        2 => key().prop_map(Op::Get),
    ]
}

props! {
    // 256 cases take ~15 s in debug; ci.sh's deep-prop row runs 1 000
    // in release.
    #![config(cases = 64)]

    /// `FlowTable` (u64 → u32) is observationally a `HashMap`.
    #[test]
    fn flow_table_matches_hashmap(ops in collection::vec(op(), 0..400)) {
        let mut table = FlowTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(table.insert(k, v), model.insert(k, v), "insert({k}, {v})");
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(k), model.remove(&k), "remove({k})");
                }
                Op::Get(k) => {
                    prop_assert_eq!(table.get(k), model.get(&k).copied(), "get({k})");
                    prop_assert_eq!(table.contains_key(k), model.contains_key(&k));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        // Full-contents equivalence, order-insensitively (neither map
        // promises an order; the table's contract is sort-if-you-care).
        let mut got: Vec<(u64, u32)> = table.iter().collect();
        let mut want: Vec<(u64, u32)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// `FlowMap<T>` (the slab-backed value map the TCP shard uses) is
    /// observationally a `HashMap` too — same workloads, value payloads
    /// checked through get/get_mut/remove/iter.
    #[test]
    fn flow_map_matches_hashmap(ops in collection::vec(op(), 0..400)) {
        let mut map: FlowMap<(u32, u32)> = FlowMap::new();
        let mut model: HashMap<u64, (u32, u32)> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let val = (v, v ^ 0xdead);
                    prop_assert_eq!(map.insert(k, val), model.insert(k, val), "insert({k})");
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(k), model.remove(&k), "remove({k})");
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get(k), model.get(&k), "get({k})");
                    // Mutation through one map must be mirrored in the
                    // other, or later comparisons diverge.
                    if let (Some(a), Some(b)) = (map.get_mut(k), model.get_mut(&k)) {
                        a.0 = a.0.wrapping_add(1);
                        b.0 = b.0.wrapping_add(1);
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        let mut got: Vec<(u64, (u32, u32))> = map.iter().map(|(k, v)| (k, *v)).collect();
        let mut want: Vec<(u64, (u32, u32))> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Pure collision torture: every key lands in the same home bucket,
    /// so the whole table is one probe chain. Insert all, remove a
    /// random subset, verify every survivor, then drain.
    #[test]
    fn collision_chain_survives_interleaved_removal(
        keep_mask in any::<u64>(),
        extra in 0usize..40,
    ) {
        let keys = collider_pool(3, 10, 64 + extra);
        let mut table = FlowTable::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table.insert(k, i as u32), None);
        }
        for (i, &k) in keys.iter().enumerate() {
            if keep_mask & (1 << (i % 64)) == 0 {
                prop_assert_eq!(table.remove(k), Some(i as u32), "remove #{i}");
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            let want = if keep_mask & (1 << (i % 64)) == 0 { None } else { Some(i as u32) };
            prop_assert_eq!(table.get(k), want, "survivor #{i}");
        }
        for (i, &k) in keys.iter().enumerate() {
            if keep_mask & (1 << (i % 64)) != 0 {
                prop_assert_eq!(table.remove(k), Some(i as u32), "drain #{i}");
            }
        }
        prop_assert_eq!(table.len(), 0);
    }
}
