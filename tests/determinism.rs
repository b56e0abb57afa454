//! Determinism regression: every experiment in this repo must reproduce
//! **byte-identically** from `(configuration, seed)` alone — that is the
//! foundation the golden-trace test, the figure pipeline, and every
//! debugging session stand on. These tests catch any accidental
//! nondeterminism (hash-map iteration order, wall-clock leakage, RNG
//! stream drift) at the whole-experiment level — and also prove the seed
//! is actually wired through, not silently ignored.

use ix_apps::harness::{run, App, EngineTuning, RunReport, Scenario};
use ix_faults::{FaultPlan, GilbertElliott, LinkFaults};
use ix_sim::Nanos;
use ix_tcp::StackConfig;

/// NetPIPE's `(one_way_ns, goodput bits)` at `seed` (`run` panics if the
/// fault-free transfer stalls).
fn netpipe(seed: u64) -> (u64, u64) {
    let r = run(&Scenario { seed, ..Scenario::netpipe(256, 40) });
    (r.one_way_ns, r.goodput_gbps.to_bits())
}

#[test]
fn netpipe_same_seed_reproduces_byte_identically() {
    // Exact equality, including the f64 goodput bits — not "close".
    assert_eq!(netpipe(42), netpipe(42), "NetPIPE diverged between identical runs");
}

#[test]
fn netpipe_different_seeds_measure_different_runs() {
    // The seed sets the client's start phase; at least one of these
    // perturbations must show up in the measured stats (they park the
    // client at distinct phases of the server's poll cadence).
    let base = netpipe(42);
    let perturbed = (1u64..6).map(netpipe).any(|r| r != base);
    assert!(perturbed, "five different seeds all reproduced seed 42's stats");
}

#[test]
fn echo_experiment_reproduces_from_config_and_seed() {
    let sc = Scenario {
        server_cores: 2,
        n_clients: 2,
        client_threads: 2,
        conns_per_thread: 4,
        app: App::Echo { msg: 64, n_per_conn: 32 },
        warmup: Nanos::from_millis(1),
        measure: Nanos::from_millis(3),
        seed: 7,
        ..Scenario::echo()
    };
    let x = run(&sc);
    let y = run(&sc);
    // The full result — histograms, counters, debug diagnostics — must
    // match field for field; Debug formatting covers all of them.
    assert_eq!(
        format!("{x:?}"),
        format!("{y:?}"),
        "same (config, seed) produced different results"
    );
}

/// One fixed faulted NetPIPE point: 2% Bernoulli loss layered with a
/// Gilbert–Elliott burst chain and one 2 ms flap on the client cable,
/// the fault RNG seeded with `fault_seed`.
fn faulted_netpipe_point(fault_seed: u64) -> RunReport {
    let base = Scenario::netpipe(256, 40);
    let faults = FaultPlan::new(fault_seed).with_link(
        base.client_port(0),
        LinkFaults {
            loss: 0.02,
            burst: Some(GilbertElliott::bursty(0.01, 4.0)),
            down_windows: vec![(4_000_000, 6_000_000)],
            ..LinkFaults::default()
        },
    );
    run(&Scenario {
        tuning: EngineTuning { stack: StackConfig::low_latency(), ..EngineTuning::default() },
        seed: 42,
        // Faulted transfers need slack for RTO backoff.
        measure: Nanos::from_millis(3_000),
        faults,
        ..base
    })
}

#[test]
fn faulted_netpipe_replays_byte_identically() {
    let a = faulted_netpipe_point(0xf1f0);
    let b = faulted_netpipe_point(0xf1f0);
    // The faults must really bite — otherwise this replays nothing —
    // and the transfer must still complete through recovery.
    assert!(a.faults.dropped_total() > 0, "fault plan injected nothing: {:?}", a.faults);
    assert!(a.done, "faulted NetPIPE stalled: {} reps, {:?}", a.messages, a.faults);
    assert!(
        a.tcp.retransmits + a.client_tcp.retransmits > 0,
        "drops occurred but nothing was retransmitted"
    );
    // Byte-identical replay: every measurement, every TCP counter, and
    // every fault counter — including the f64 goodput bits.
    assert_eq!(a.one_way_ns, b.one_way_ns, "latency diverged between identical faulted runs");
    assert_eq!(a.goodput_gbps.to_bits(), b.goodput_gbps.to_bits(), "goodput bits diverged");
    assert_eq!((a.messages, a.done), (b.messages, b.done));
    assert_eq!(a.tcp, b.tcp, "server TCP counters diverged");
    assert_eq!(a.client_tcp, b.client_tcp, "client TCP counters diverged");
    assert_eq!(a.faults, b.faults, "fault counters diverged");
}

/// A small Fig 4 point (the §5.4 rotating-RPC experiment) at a fixed
/// seed. The expected values below were captured before the
/// open-addressing flow-table / TCB-slab / ready-ring rewrite, so this
/// test is the byte-identity contract for that swap: the fast path may
/// only change *how fast* the experiment runs, never *what* it measures.
#[test]
fn fig4_point_replays_byte_identically_across_flow_table_swap() {
    let sc = Scenario {
        app: App::Rotating { total_conns: 400, outstanding: 3 },
        n_clients: 2,
        client_threads: 2,
        measure: Nanos::from_millis(4),
        ..Scenario::conn_scale()
    };
    let a = run(&sc);
    let b = run(&sc);
    // Replay determinism: the same (config, seed) twice in one binary.
    assert_eq!(a.msgs_per_sec.to_bits(), b.msgs_per_sec.to_bits());
    assert_eq!(a.avg_ns, b.avg_ns);
    assert_eq!(a.conns, b.conns);
    // Pinned pre-swap baseline (HashMap flow table, O(conns) client
    // scan): the measured numbers must not move.
    assert_eq!(
        (a.msgs_per_sec.to_bits(), a.avg_ns, a.misses_per_msg.to_bits(), a.conns),
        (0x411397a000000000u64, 37_400u64, 0x3ff6666666666666u64, 400u64),
        "fig4 point diverged from the pinned pre-swap baseline: \
         msgs_per_sec={} ({:#x}) rtt_avg_ns={} misses={:#x} server_conns={}",
        a.msgs_per_sec,
        a.msgs_per_sec.to_bits(),
        a.avg_ns,
        a.misses_per_msg.to_bits(),
        a.conns
    );
}

#[test]
fn faulted_netpipe_different_fault_seed_is_a_different_run() {
    let a = faulted_netpipe_point(0xf1f0);
    let b = faulted_netpipe_point(0x0dd);
    // Same experiment seed, different fault seed: the fault RNG stream
    // is independent and must actually steer which frames drop.
    assert_ne!(a.faults, b.faults, "fault seed had no effect on the injected faults");
}
