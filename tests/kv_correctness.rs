//! End-to-end key-value correctness: a SET stored through the whole
//! stack (client app → client Linux kernel model → wire → IX dataplane →
//! KV store) is returned verbatim by a later GET on a different
//! connection, including values large enough to span several TCP
//! segments.

pub mod common;

use common::set_then_get;
use ix::apps::harness::EngineTuning;

fn roundtrip(payload_len: usize) {
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31 % 251) as u8).collect();
    let (got, store) = set_then_get(77, &EngineTuning::default(), |_| {}, &payload, 400);
    assert_eq!(
        got.as_deref(),
        Some(&payload[..]),
        "GET must return the SET bytes (len {payload_len})"
    );
    assert_eq!(store.borrow().len(), 1);
}

#[test]
fn small_value_roundtrips() {
    roundtrip(2);
}

#[test]
fn mss_sized_value_roundtrips() {
    roundtrip(1460);
}

#[test]
fn multi_segment_value_roundtrips() {
    roundtrip(10_000);
}
