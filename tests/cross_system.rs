//! Cross-crate integration tests: the full reproduction stack (fabric +
//! engines + applications) exercised end to end on all three systems,
//! checking the paper's *orderings* hold (exact magnitudes are the
//! benches' job).

use ix::apps::harness::{run, App, RunReport, Scenario, System};
use ix::apps::workload::WorkloadKind;
use ix::sim::Nanos;

/// A 4-core echo point, `msg`-byte messages, n = 64.
fn small_echo(system: System, msg: usize) -> Scenario {
    Scenario {
        system,
        server_cores: 4,
        n_clients: 4,
        client_threads: 4,
        conns_per_thread: 8,
        app: App::Echo { msg, n_per_conn: 64 },
        warmup: Nanos::from_millis(4),
        measure: Nanos::from_millis(10),
        ..Scenario::echo()
    }
}

/// A fault-free NetPIPE run; `run` panics if the transfer stalls.
fn netpipe(system: System, msg: usize, reps: usize) -> RunReport {
    run(&Scenario { system, ..Scenario::netpipe(msg, reps) })
}

#[test]
fn netpipe_latency_ordering_matches_paper() {
    let ix = netpipe(System::Ix, 64, 50).one_way_ns;
    let linux = netpipe(System::Linux, 64, 50).one_way_ns;
    let mtcp = netpipe(System::Mtcp, 64, 50).one_way_ns;
    // Fig 2: IX ≈ 5.7 µs, 4x better than Linux; mTCP an order of
    // magnitude worse than IX.
    assert!(ix < linux && linux < mtcp, "ordering: ix={ix} linux={linux} mtcp={mtcp}");
    assert!(ix > 3_000 && ix < 9_000, "IX one-way {ix} ns");
    assert!(linux > 2 * ix, "Linux should be ≥2x IX ({linux} vs {ix})");
    assert!(mtcp > 5 * ix, "mTCP should be ≫ IX ({mtcp} vs {ix})");
}

#[test]
fn netpipe_large_messages_converge_to_wire_bandwidth() {
    let ix = netpipe(System::Ix, 262_144, 20).goodput_gbps;
    // A single 10GbE flow: goodput must approach but not exceed 10 Gbps.
    assert!(ix > 5.0 && ix < 10.0, "IX 256KB goodput {ix} Gbps");
}

#[test]
fn echo_throughput_ordering_matches_paper() {
    let ix = run(&small_echo(System::Ix, 64));
    let linux = run(&small_echo(System::Linux, 64));
    let mtcp = run(&small_echo(System::Mtcp, 64));
    // Fig 3b ordering: IX > mTCP > Linux.
    assert!(
        ix.msgs_per_sec > mtcp.msgs_per_sec && mtcp.msgs_per_sec > linux.msgs_per_sec,
        "ix={:.0} mtcp={:.0} linux={:.0}",
        ix.msgs_per_sec,
        mtcp.msgs_per_sec,
        linux.msgs_per_sec
    );
    // Everyone actually moved traffic and closed connections (churn).
    for r in [&ix, &linux, &mtcp] {
        assert!(r.messages > 1_000);
        assert!(r.conns_closed > 0, "RST churn must complete");
    }
}

#[test]
fn echo_payload_sizes_scale_goodput() {
    let rs = run(&small_echo(System::Ix, 64));
    let rb = run(&small_echo(System::Ix, 4096));
    assert!(
        rb.goodput_gbps > rs.goodput_gbps * 4.0,
        "4KB goodput {:.2} vs 64B {:.2}",
        rb.goodput_gbps,
        rs.goodput_gbps
    );
}

#[test]
fn memcached_ix_beats_linux_on_tail_latency() {
    let mk = |system| Scenario {
        system,
        app: App::Kv { workload: WorkloadKind::Usr, rps: 200_000.0 },
        server_cores: if system == System::Ix { 6 } else { 8 },
        n_clients: 8,
        client_threads: 4,
        conns_per_thread: 8,
        measure: Nanos::from_millis(20),
        ..Scenario::kv()
    };
    let ix = run(&mk(System::Ix));
    let linux = run(&mk(System::Linux));
    // Both meet the offered load at this light point.
    assert!(ix.msgs_per_sec > 185_000.0, "IX achieved {}", ix.msgs_per_sec);
    assert!(linux.msgs_per_sec > 185_000.0, "Linux achieved {}", linux.msgs_per_sec);
    // §5.5/Table 2: IX roughly halves the unloaded latencies.
    assert!(
        ix.agent_p99_ns < linux.agent_p99_ns,
        "IX p99 {} vs Linux {}",
        ix.agent_p99_ns,
        linux.agent_p99_ns
    );
    // Kernel-share ordering (§5.5): Linux spends far more CPU in-kernel.
    let share = |r: &RunReport| {
        r.cpu_split.0 as f64 / (r.cpu_split.0 + r.cpu_split.1) as f64
    };
    assert!(
        share(&linux) > share(&ix) + 0.2,
        "kernel shares: linux {:.2} ix {:.2}",
        share(&linux),
        share(&ix)
    );
}
