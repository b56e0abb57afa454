//! Single points for calibration work — not a paper figure.
//!
//! ```text
//! point                                          cross-system sanity numbers
//! point echo <ix|linux|mtcp> <cores> <ports> <msg> <n>
//! point kv   <ix|linux|mtcp> <etc|usr> <rps>
//! point conn <ix|linux|mtcp> <ports> <conns>
//! ```
//!
//! With no arguments it prints NetPIPE, echo and memcached sanity
//! numbers for every system, each followed by the engine's own
//! instrumentation: event-scheduler counters (volume, cancellation
//! ratio, queue depth, calendar-tier split), the server's mbuf churn, TCP
//! recovery counters and NIC ring drops, so a perf regression in the
//! simulator itself is visible without a profiler.

use ix_apps::harness::{run, App, RunReport, Scenario, System};
use ix_apps::workload::WorkloadKind;

fn system(arg: &str) -> System {
    match arg {
        "ix" => System::Ix,
        "linux" => System::Linux,
        "mtcp" => System::Mtcp,
        other => panic!("unknown system {other}"),
    }
}

/// The memcached point for `system` (Linux runs 8 cores, IX 6: §5.5).
fn kv(system: System, workload: WorkloadKind, rps: f64) -> Scenario {
    Scenario {
        system,
        app: App::Kv { workload, rps },
        server_cores: if system == System::Ix { 6 } else { 8 },
        ..Scenario::kv()
    }
}

fn kernel_pct(r: &RunReport) -> f64 {
    100.0 * r.cpu_split.0 as f64 / (r.cpu_split.0 + r.cpu_split.1).max(1) as f64
}

fn print_instrumentation(r: &RunReport) {
    let c = r.sim;
    println!(
        "         sched: {} scheduled ({} near / {} far, {} promoted), {} executed, {} cancelled (+{} stale), depth hw {} (bucket hw {})",
        c.scheduled,
        c.near_inserts,
        c.far_inserts,
        c.promotions,
        c.executed,
        c.cancelled,
        c.cancel_noops,
        c.pending_high_water,
        c.bucket_high_water,
    );
    let m = r.mbuf;
    println!(
        "         mbuf:  {} allocs / {} frees, peak outstanding {}, exhausted {}",
        m.allocs, m.frees, m.peak_outstanding, m.exhausted
    );
    let t = r.tcp;
    println!(
        "         tcp:   {} retx ({} rto, {} fastrtx, {} persist), max recovery {:.1} us, drops {} parse / {} csum",
        t.retransmits,
        t.rto_fires,
        t.fast_retransmits,
        t.persist_probes,
        t.max_recovery_ns as f64 / 1e3,
        t.parse_drops,
        t.checksum_drops,
    );
    println!("         nic:   {} rx ring drops, {} tx ring drops", r.nic_ring_drops, r.tx_ring_drops);
}

fn sanity() {
    println!("== NetPIPE 64B one-way latency (paper: IX 5.7us, Linux 24us, mTCP ~10x IX)");
    for sys in [System::Ix, System::Linux, System::Mtcp] {
        let r = run(&Scenario { system: sys, ..Scenario::netpipe(64, 200) });
        println!("  {:<6} {:>8.2} us", sys.name(), r.one_way_ns as f64 / 1000.0);
    }

    println!("== Echo 64B, n=1024, 8 cores, 10GbE (paper: IX 8.8M, mTCP ~4.6M, Linux ~1M)");
    for sys in [System::Ix, System::Linux, System::Mtcp] {
        let r = run(&Scenario { system: sys, ..Scenario::echo() });
        println!(
            "  {:<6} {:>6.2} M msg/s  rtt avg {:>7.1} us  p99 {:>7.1} us  conns {} kernel% {:.0}",
            sys.name(),
            r.msgs_per_sec / 1e6,
            r.avg_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.conns_closed,
            kernel_pct(&r),
        );
        println!("         {}", r.debug);
        print_instrumentation(&r);
    }

    println!("== memcached USR @ 300K RPS (sanity)");
    for sys in [System::Ix, System::Linux] {
        let r = run(&kv(sys, WorkloadKind::Usr, 300_000.0));
        println!(
            "  {:<6} {:>7.0}K rps  avg {:>7.1} us  p99 {:>7.1} us  agent avg {:>6.1} p99 {:>6.1}  kernel% {:.0} shed {}",
            sys.name(),
            r.msgs_per_sec / 1e3,
            r.avg_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.agent_avg_ns as f64 / 1e3,
            r.agent_p99_ns as f64 / 1e3,
            kernel_pct(&r),
            r.shed,
        );
        println!("         net avg {:.1} p99 {:.1} us", r.net_avg_ns as f64 / 1e3, r.net_p99_ns as f64 / 1e3);
        print_instrumentation(&r);
    }
}

fn main() {
    let a: Vec<String> = std::env::args().skip(1).collect();
    let a: Vec<&str> = a.iter().map(String::as_str).collect();
    match a.as_slice() {
        [] => sanity(),
        ["echo", sys, cores, ports, msg, n] => {
            let system = system(sys);
            let r = run(&Scenario {
                system,
                server_cores: cores.parse().expect("cores"),
                server_ports: ports.parse().expect("ports"),
                app: App::Echo { msg: msg.parse().expect("msg"), n_per_conn: n.parse().expect("n") },
                ..Scenario::echo()
            });
            println!(
                "{} cores={cores} ports={ports} s={msg} n={n} -> {:.2}M msg/s {:.2}Gbps rtt_avg={:.1}us p99={:.1}us tx_ring_drops={}",
                system.name(),
                r.msgs_per_sec / 1e6,
                r.goodput_gbps,
                r.avg_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.tx_ring_drops
            );
        }
        ["kv", sys, wl, rps] => {
            let system = system(sys);
            let wl = if *wl == "etc" { WorkloadKind::Etc } else { WorkloadKind::Usr };
            let rps: f64 = rps.parse().expect("rps");
            let r = run(&kv(system, wl, rps));
            println!(
                "{} {:?} target {:.0}K -> rps {:.0}K avg {:.1}us p99 {:.1}us agent {:.1}/{:.1}us shed {} tx_ring_drops {}",
                system.name(),
                wl,
                rps / 1e3,
                r.msgs_per_sec / 1e3,
                r.avg_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.agent_avg_ns as f64 / 1e3,
                r.agent_p99_ns as f64 / 1e3,
                r.shed,
                r.tx_ring_drops
            );
            println!("  {}", r.debug);
            println!("  store: ops={} lock_wait_total={:.1}ms", r.store_ops, r.store_lock_wait_ns as f64 / 1e6);
        }
        ["conn", sys, ports, conns] => {
            let system = system(sys);
            let r = run(&Scenario {
                system,
                server_ports: ports.parse().expect("ports"),
                app: App::Rotating { total_conns: conns.parse().expect("conns"), outstanding: 3 },
                ..Scenario::conn_scale()
            });
            println!(
                "{}-{}G conns={conns} -> {:.2}M msg/s rtt_avg={:.1}us misses/msg={:.1} server_conns={} tx_ring_drops={}",
                system.name(),
                if *ports == "1" { 10 } else { 40 },
                r.msgs_per_sec / 1e6,
                r.avg_ns as f64 / 1e3,
                r.misses_per_msg,
                r.conns,
                r.tx_ring_drops
            );
        }
        _ => panic!("usage: point [echo <sys> <cores> <ports> <msg> <n> | kv <sys> <etc|usr> <rps> | conn <sys> <ports> <conns>]"),
    }
}
