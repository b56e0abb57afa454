use super::*;

#[test]
fn empty_table_answers_without_allocating() {
    let t = FlowTable::new();
    assert_eq!(t.get(0), None);
    assert_eq!(t.len(), 0);
    assert_eq!(t.capacity(), 0);
    assert!(!t.contains_key(42));
}

#[test]
fn key_zero_is_a_valid_key() {
    let mut t = FlowTable::new();
    assert_eq!(t.insert(0, 7), None);
    assert_eq!(t.get(0), Some(7));
    assert_eq!(t.remove(0), Some(7));
    assert_eq!(t.get(0), None);
}

#[test]
fn insert_replace_remove_roundtrip() {
    let mut t = FlowTable::new();
    for k in 0..1000u64 {
        assert_eq!(t.insert(k * 3, k as u32), None);
    }
    assert_eq!(t.len(), 1000);
    assert!(t.capacity().is_power_of_two());
    // Replacement returns the old index and does not change len.
    assert_eq!(t.insert(30, 9999), Some(10));
    assert_eq!(t.len(), 1000);
    for k in 0..1000u64 {
        let want = if k == 10 { 9999 } else { k as u32 };
        assert_eq!(t.get(k * 3), Some(want), "key {}", k * 3);
        assert_eq!(t.get(k * 3 + 1), None);
    }
    for k in 0..1000u64 {
        assert!(t.remove(k * 3).is_some());
        assert_eq!(t.get(k * 3), None, "removed key still found");
    }
    assert!(t.is_empty());
}

#[test]
fn load_factor_stays_at_or_below_seven_eighths() {
    let mut t = FlowTable::new();
    for k in 0..100_000u64 {
        t.insert(k, 0);
        assert!(t.len() * 8 <= t.capacity() * 7, "overfull at {} / {}", t.len(), t.capacity());
    }
}

/// Backshift deletion under forced collisions: craft keys that all
/// land in one home bucket and delete from the middle of the chain.
#[test]
fn backshift_deletion_preserves_colliding_chains() {
    let mut t = FlowTable::with_capacity(64);
    let cap = t.capacity();
    // Find keys whose mixed hash lands in bucket 3 of the current
    // capacity (capacity is held fixed: 20 keys fit in 64 slots).
    let colliders: Vec<u64> =
        (0..2_000_000u64).filter(|&k| (mix(k) as usize) & (cap - 1) == 3).take(20).collect();
    assert_eq!(colliders.len(), 20, "not enough colliding keys found");
    for (i, &k) in colliders.iter().enumerate() {
        t.insert(k, i as u32);
    }
    assert_eq!(t.capacity(), cap, "test assumes no growth");
    // Remove every other one, middle-out, checking the rest after
    // each backshift.
    for (i, &k) in colliders.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
        assert_eq!(t.remove(k), Some(i as u32));
        for (j, &kk) in colliders.iter().enumerate() {
            let want = if j % 2 == 1 && j <= i { None } else { Some(j as u32) };
            assert_eq!(t.get(kk), want, "after removing #{i}: key #{j}");
        }
    }
}

#[test]
fn flowmap_reuses_slab_slots_lifo() {
    let mut m: FlowMap<String> = FlowMap::new();
    m.insert(1, "a".into());
    m.insert(2, "b".into());
    m.insert(3, "c".into());
    assert_eq!(m.mem_stats().slab_slots, 3);
    assert_eq!(m.remove(2), Some("b".into()));
    // The freed slot is reused: no slab growth.
    m.insert(4, "d".into());
    assert_eq!(m.mem_stats().slab_slots, 3);
    assert_eq!(m.get(4), Some(&"d".into()));
    assert_eq!(m.get(2), None);
    let mut keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
    keys.sort_unstable();
    assert_eq!(keys, [1, 3, 4]);
}

#[test]
fn bucket_lists_keep_insertion_order_across_churn() {
    let mut m: FlowMap<u64> = FlowMap::new();
    for k in 0..12u64 {
        m.insert_in_bucket(k, (k % 3) as u16, k * 10);
    }
    assert_eq!(m.bucket_keys(0).collect::<Vec<_>>(), [0, 3, 6, 9]);
    assert_eq!(m.bucket_keys(1).collect::<Vec<_>>(), [1, 4, 7, 10]);
    assert_eq!(m.bucket_len(2), 4);
    // Remove from the middle of a list; order of the rest holds.
    assert_eq!(m.remove(3), Some(30));
    assert_eq!(m.remove(9), Some(90));
    assert_eq!(m.bucket_keys(0).collect::<Vec<_>>(), [0, 6]);
    // Reinsert: appends at the tail, reusing a freed slab slot.
    m.insert_in_bucket(3, 0, 31);
    assert_eq!(m.bucket_keys(0).collect::<Vec<_>>(), [0, 6, 3]);
    assert_eq!(m.bucket_of(3), Some(0));
    assert_eq!(m.bucket_of(99), None);
}

#[test]
fn replacement_rehomes_only_on_bucket_change() {
    let mut m: FlowMap<&str> = FlowMap::new();
    m.insert_in_bucket(1, 5, "a");
    m.insert_in_bucket(2, 5, "b");
    // Same-bucket replacement keeps list position.
    assert_eq!(m.insert_in_bucket(1, 5, "a2").1, Some("a"));
    assert_eq!(m.bucket_keys(5).collect::<Vec<_>>(), [1, 2]);
    // Cross-bucket replacement moves the entry to the new tail.
    assert_eq!(m.insert_in_bucket(1, 6, "a3").1, Some("a2"));
    assert_eq!(m.bucket_keys(5).collect::<Vec<_>>(), [2]);
    assert_eq!(m.bucket_keys(6).collect::<Vec<_>>(), [1]);
    assert_eq!(m.bucket_of(1), Some(6));
}

#[test]
fn unbucketed_entries_are_invisible_to_bucket_walks() {
    let mut m: FlowMap<u32> = FlowMap::new();
    m.insert(7, 70);
    m.insert_in_bucket(8, 0, 80);
    assert_eq!(m.bucket_of(7), Some(NO_BUCKET));
    assert_eq!(m.bucket_keys(0).collect::<Vec<_>>(), [8]);
    assert_eq!(m.remove(7), Some(70));
    assert_eq!(m.remove(8), Some(80));
    assert_eq!(m.bucket_len(0), 0);
}

#[test]
fn an_unbucketed_map_carries_no_list_nodes() {
    let slab_and_table = |m: &FlowMap<u64>| {
        m.slab.capacity() * std::mem::size_of::<Option<u64>>() + m.table.mem_bytes()
    };
    let mut m: FlowMap<u64> = FlowMap::new();
    for k in 0..100u64 {
        m.insert(k, k);
    }
    *m.get_or_insert_default(100) = 100;
    assert_eq!(m.remove(3), Some(3));
    m.insert(3, 33); // Reuses the freed slot.
    assert_eq!(m.mem_stats().bytes, slab_and_table(&m) + m.free.capacity() * 4);
    assert_eq!(m.bucket_of(3), Some(NO_BUCKET));
    // The first bucketed entry threads the map: every slot there is so
    // far gets a node, and the walk sees only the bucketed one.
    m.insert_in_bucket(200, 9, 200);
    assert_eq!(m.links.len(), m.slab.len());
    assert_eq!(m.bucket_keys(9).collect::<Vec<_>>(), [200]);
    assert_eq!(m.bucket_of(50), Some(NO_BUCKET));
    // Moving an old entry into a bucket works as in a map threaded from birth.
    m.insert_in_bucket(50, 9, 5050);
    assert_eq!(m.bucket_keys(9).collect::<Vec<_>>(), [200, 50]);
    assert_eq!(m.remove(200), Some(200));
    assert_eq!(m.bucket_keys(9).collect::<Vec<_>>(), [50]);
    assert_eq!(m.len(), 101);
}

#[test]
fn slot_handle_skips_the_probe() {
    let mut m: FlowMap<u64> = FlowMap::new();
    let (idx, old) = m.insert_in_bucket(42, 3, 1);
    assert!(old.is_none());
    *m.slot_mut(idx) += 9;
    assert_eq!(m.get(42), Some(&10));
}

#[test]
fn reserve_prevents_incremental_growth() {
    let mut m: FlowMap<u64> = FlowMap::new();
    m.reserve(100_000);
    let cap = m.table.capacity();
    for k in 0..100_000u64 {
        m.insert_in_bucket(k, (k % RSS_BUCKETS as u64) as u16, k);
    }
    assert_eq!(m.table.capacity(), cap, "reserve should pre-size the table");
}

/// The staged bulk path and the incremental path agree: same
/// lookups, same bucket walks, same slot handles usable before the
/// commit, and the commit's home-slot-ordered writes place keys
/// exactly where incremental probing would.
#[test]
fn staged_commit_matches_incremental_inserts() {
    let mut staged: FlowMap<u64> = FlowMap::new();
    let mut incr: FlowMap<u64> = FlowMap::new();
    staged.reserve(3000);
    incr.reserve(3000);
    for k in 0..3000u64 {
        let key = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = (k % RSS_BUCKETS as u64) as u16;
        let slot = staged.stage_push(key, k);
        staged.stage_adopted(slot, key, b);
        *staged.slot_mut(slot) += 1;
        incr.insert_in_bucket(key, b, k + 1);
    }
    // Staged keys are invisible to the table until commit.
    assert_eq!(staged.len(), 0);
    staged.commit_staged();
    assert_eq!(staged.len(), incr.len());
    for k in 0..3000u64 {
        let key = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(staged.get(key), Some(&(k + 1)), "key {k}");
        assert_eq!(staged.bucket_of(key), incr.bucket_of(key));
    }
    for b in 0..RSS_BUCKETS as u16 {
        let a: Vec<u64> = staged.bucket_keys(b).collect();
        let c: Vec<u64> = incr.bucket_keys(b).collect();
        assert_eq!(a, c, "bucket {b} walk order");
        assert_eq!(staged.bucket_len(b), incr.bucket_len(b));
    }
    // Removal (backward-shift) works on the committed layout.
    for k in (0..3000u64).step_by(3) {
        let key = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(staged.remove(key), Some(k + 1));
        assert_eq!(staged.get(key), None);
    }
    assert_eq!(staged.len(), 2000);
}

/// Adoption retires the old slab instead of dropping it inline;
/// bounded reclaim drains it incrementally and the backlog never
/// exceeds two slabs.
#[test]
fn retired_slabs_drain_incrementally() {
    let mut m: FlowMap<u64> = FlowMap::new();
    let fill = |n: u64| (0..n).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect::<Vec<_>>();
    // Round 1: normal inserts, then drain — slab full of Nones.
    for &k in &fill(1000) {
        m.insert_in_bucket(k, 0, k);
    }
    for &k in &fill(1000) {
        m.remove(k);
    }
    assert_eq!(m.retired_backlog(), 0);
    // Adoption swaps the slab out; the old one goes to retired.
    m.adopt_slab(fill(500));
    assert_eq!(m.retired_backlog(), 1000);
    for (i, &k) in fill(500).iter().enumerate() {
        m.stage_adopted(i as u32, k, 3);
    }
    m.commit_staged();
    assert_eq!(m.len(), 500);
    assert_eq!(m.bucket_len(3), 500);
    // Incremental reclaim drains oldest-first in bounded chunks.
    assert_eq!(m.reclaim_retired(300), 300);
    assert_eq!(m.retired_backlog(), 700);
    assert_eq!(m.reclaim_retired(usize::MAX), 700);
    assert_eq!(m.retired_backlog(), 0);
    assert_eq!(m.reclaim_retired(64), 0);
    // The backlog is bounded: repeated adoptions without reclaim
    // keep at most two retired slabs.
    for round in 0..5u64 {
        for &k in &fill(100) {
            m.remove(k.wrapping_add(round));
        }
        let all: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        for k in all {
            m.remove(k);
        }
        m.adopt_slab(fill(100));
        for (i, &k) in fill(100).iter().enumerate() {
            m.stage_adopted(i as u32, k, 0);
        }
        m.commit_staged();
    }
    assert!(m.retired_backlog() <= 2 * 500, "backlog grew: {}", m.retired_backlog());
}

#[test]
#[should_panic(expected = "already present")]
fn staging_a_live_key_panics_at_commit() {
    let mut m: FlowMap<u32> = FlowMap::new();
    m.insert_in_bucket(7, 0, 1);
    let slot = m.stage_push(7, 2);
    m.stage_adopted(slot, 7, 0);
    m.commit_staged();
}

#[test]
fn flowmap_memory_is_linear_in_live_flows() {
    let mut m: FlowMap<[u64; 16]> = FlowMap::new();
    for k in 0..250_000u64 {
        m.insert(k, [k; 16]);
    }
    let at_peak = m.mem_stats();
    assert_eq!(at_peak.live, 250_000);
    // ~136 B/flow payload+index; linear bound with pow2 slack.
    let per_flow = std::mem::size_of::<Option<[u64; 16]>>() + 16;
    assert!(
        at_peak.bytes <= 250_000 * per_flow * 3,
        "footprint superlinear: {} bytes for 250k flows",
        at_peak.bytes
    );
    // Churn does not grow the high-water mark.
    for k in 0..250_000u64 {
        m.remove(k);
        m.insert(k + 1_000_000, [k; 16]);
    }
    assert_eq!(m.mem_stats().slab_slots, at_peak.slab_slots);
}
