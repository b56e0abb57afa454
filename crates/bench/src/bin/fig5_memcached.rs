//! Fig 5 — "Average and 99th percentile latency as a function of
//! throughput for two memcached workloads" (ETC and USR), Linux vs IX.
//!
//! Paper shape: IX halves the unloaded latency and sustains 2.8× (ETC)
//! and 3.6× (USR) the RPS of Linux at the 500 µs 99th-percentile SLA.
//! Linux runs 8 cores; IX runs 6 (application lock contention stops IX
//! gaining beyond 6, §5.5).

use ix_apps::harness::{run, App, RunReport, Scenario, System};
use ix_apps::workload::WorkloadKind;
use ix_sim::Nanos;

fn print_series(system: System, wl: WorkloadKind, rows: &[(f64, &RunReport)]) {
    println!(
        "--- {} / {:?} ({} cores)",
        system.name(),
        wl,
        if system == System::Ix { 6 } else { 8 }
    );
    println!(
        "{:>9} | {:>9} | {:>9} {:>9} | {:>10} {:>10}",
        "target", "RPS", "avg us", "p99 us", "agent avg", "agent p99"
    );
    for &(t, r) in rows {
        println!(
            "{:>8.0}K | {:>8.0}K | {:>9.1} {:>9.1} | {:>10.1} {:>10.1}{}",
            t / 1e3,
            r.msgs_per_sec / 1e3,
            r.avg_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.agent_avg_ns as f64 / 1e3,
            r.agent_p99_ns as f64 / 1e3,
            if r.shed > 0 { "  (overload)" } else { "" },
        );
    }
}

fn main() {
    ix_bench::banner(
        "Figure 5",
        "memcached latency vs throughput, ETC and USR (SLA: p99 <= 500us)",
    );
    let quick = ix_bench::sweep::quick();
    let linux_targets: &[f64] = if quick {
        &[200e3, 500e3]
    } else {
        &[100e3, 200e3, 300e3, 400e3, 500e3, 600e3, 700e3]
    };
    let ix_targets: &[f64] = if quick {
        &[400e3, 1600e3]
    } else {
        &[100e3, 400e3, 800e3, 1200e3, 1600e3, 2000e3, 2300e3]
    };
    // Each (system, workload, target) point is a full independent
    // simulation (~7s serial each) — this figure dominates the suite's
    // runtime, so farm all 28 points across cores.
    let mut points: Vec<(System, WorkloadKind, f64)> = Vec::new();
    for wl in [WorkloadKind::Etc, WorkloadKind::Usr] {
        for &t in linux_targets {
            points.push((System::Linux, wl, t));
        }
        for &t in ix_targets {
            points.push((System::Ix, wl, t));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(system, wl, t)| {
        let mut sc = Scenario {
            system,
            app: App::Kv {
                workload: wl,
                rps: t,
            },
            server_cores: if system == System::Ix { 6 } else { 8 },
            ..Scenario::kv()
        };
        if ix_bench::sweep::quick() {
            sc.warmup = Nanos::from_millis(4);
            sc.measure = Nanos::from_millis(8);
        }
        run(&sc)
    });
    let mut i = 0;
    for wl in [WorkloadKind::Etc, WorkloadKind::Usr] {
        for (system, targets) in [(System::Linux, linux_targets), (System::Ix, ix_targets)] {
            let rows: Vec<(f64, &RunReport)> = targets
                .iter()
                .map(|&t| {
                    let r = &outcome.results[i];
                    i += 1;
                    (t, r)
                })
                .collect();
            print_series(system, wl, &rows);
        }
    }
    println!();
    println!("Paper (Table 2 SLA capacities): ETC-Linux 550K, ETC-IX 1550K, USR-Linux 500K, USR-IX 1800K.");
    ix_bench::sweep::record("fig5_memcached", &outcome);
}
