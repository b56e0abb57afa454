//! End-to-end dataplane tests: IX client and IX server over the
//! simulated fabric (NIC rings, RSS, switch, virtual time), exercising
//! the full Fig 1b cycle on both ends.

pub mod common;

use common::setup;
use ix_core::dataplane::Dataplane;
use ix_core::ixcp::set_active_threads;
use ix_sim::Nanos;

#[test]
fn single_echo_rtt_near_paper_figure() {
    let (mut tb, _server, _client, results) = setup(1, 150, 1, 1);
    tb.run_until_ns(Nanos::from_millis(50).as_nanos());
    let r = results.borrow();
    assert!(r.done, "echo did not complete");
    assert_eq!(r.rtts_ns.len(), 1);
    let rtt = r.rtts_ns[0];
    // Fig 2: IX one-way ≈ 5.7 µs for 64 B ⇒ RTT ≈ 11.4 µs. Allow a band:
    // the measured RTT includes connection warmup effects.
    assert!(rtt > 6_000 && rtt < 25_000, "RTT {rtt} ns out of band");
}

#[test]
fn pipelined_echoes_complete_exactly() {
    let (mut tb, sdp, _client, results) = setup(2, 150, 200, 4);
    tb.run_until_ns(Nanos::from_millis(200).as_nanos());
    let r = results.borrow();
    assert!(r.done, "run incomplete: {} rtts", r.rtts_ns.len());
    assert_eq!(r.rtts_ns.len(), 200 * 4);
    // No packet loss end to end: server saw traffic, no ring drops.
    assert!(sdp.threads.iter().any(|t| t.borrow().base.rx_packets > 0));
    assert_eq!(sdp.stats().tx_ring_drops, 0);
}

#[test]
fn rss_spreads_connections_across_elastic_threads() {
    let (mut tb, sdp, _client, results) = setup(4, 150, 2, 32);
    tb.run_until_ns(Nanos::from_millis(100).as_nanos());
    assert!(results.borrow().done);
    let busy: Vec<u64> = sdp
        .threads
        .iter()
        .map(|t| t.borrow().base.rx_packets)
        .collect();
    let active = busy.iter().filter(|&&p| p > 0).count();
    assert!(active >= 3, "RSS spread used only {active}/4 threads: {busy:?}");
}

#[test]
fn kernel_dominates_dataplane_but_split_is_tracked() {
    let (mut tb, sdp, _client, results) = setup(1, 150, 500, 2);
    tb.run_until_ns(Nanos::from_millis(200).as_nanos());
    assert!(results.borrow().done);
    let (kernel, user) = sdp.threads.iter().fold((0, 0), |(k, u), t| {
        let t = t.borrow();
        let core = t.base.core.borrow();
        (k + core.kernel_ns, u + core.user_ns)
    });
    assert!(kernel > 0 && user > 0);
    // The echo app charges 150 ns/request vs ~1 µs dataplane work: the
    // dataplane share is large for a trivial app, but bounded.
    let share = kernel as f64 / (kernel + user) as f64;
    assert!(share > 0.5 && share < 0.99, "kernel share {share}");
}

#[test]
fn adaptive_batching_stays_small_when_unloaded() {
    let (mut tb, sdp, _client, results) = setup(1, 150, 50, 1);
    tb.run_until_ns(Nanos::from_millis(100).as_nanos());
    assert!(results.borrow().done);
    let st = sdp.stats();
    // One connection ping-ponging: each iteration sees ~1 packet. "We
    // never wait to batch requests" (§3).
    let avg_batch = st.batch_sum as f64 / st.iterations.max(1) as f64;
    assert!(avg_batch < 3.0, "unloaded batch size {avg_batch}");
    assert_eq!(st.full_batches, 0);
}

#[test]
fn steady_state_runs_without_scratch_reallocation() {
    let (mut tb, sdp, _client, results) = setup(2, 150, 500, 4);
    // Warmup: the per-cycle scratch buffers grow to their high-water
    // capacity during the first bursts of traffic.
    tb.run_until_ns(Nanos::from_millis(2).as_nanos());
    let warm = sdp.stats();
    assert!(warm.iterations > 100, "warmup saw only {} cycles", warm.iterations);
    // Steady state: thousands more run-to-completion cycles, zero
    // further scratch reallocation (ISSUE 10 satellite pin).
    tb.run_until_ns(Nanos::from_millis(500).as_nanos());
    let r = results.borrow();
    assert!(r.done, "run incomplete: {} rtts", r.rtts_ns.len());
    let st = sdp.stats();
    assert!(st.iterations > warm.iterations, "no cycles ran after warmup");
    assert_eq!(
        st.scratch_allocs, warm.scratch_allocs,
        "scratch buffers reallocated in steady state ({} cycles)",
        st.iterations - warm.iterations
    );
}

#[test]
fn ixcp_revocation_migrates_flows_and_traffic_continues() {
    let (mut tb, sdp, _client, results) = setup(4, 150, 400, 16);
    let active = |dp: &Dataplane| dp.threads.iter().filter(|t| !t.borrow().parked).count();
    // Let traffic start on 4 threads.
    tb.run_until_ns(Nanos::from_millis(5).as_nanos());
    assert_eq!(active(&sdp), 4);
    // Revoke two threads mid-run; flows must migrate and finish.
    set_active_threads(&mut tb.sim, &sdp, 2, None);
    assert_eq!(active(&sdp), 2);
    tb.run_until_ns(Nanos::from_millis(400).as_nanos());
    assert!(
        results.borrow().done,
        "traffic stalled after revocation: {} rtts",
        results.borrow().rtts_ns.len()
    );
    // Parked threads hold no flows.
    for th in sdp.threads.iter().skip(2) {
        assert_eq!(th.borrow().base.shard.flow_count(), 0, "parked thread kept flows");
    }
    // And the control plane can give them back.
    set_active_threads(&mut tb.sim, &sdp, 4, None);
    assert_eq!(active(&sdp), 4);
}
