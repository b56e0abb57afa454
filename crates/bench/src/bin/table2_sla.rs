//! Table 2 — "Unloaded latency and maximum RPS for a given service-level
//! agreement for the memcache workloads ETC and USR."
//!
//! Paper values (99th percentile):
//!   ETC-Linux:  94 µs unloaded,  550K RPS @ <500 µs
//!   ETC-IX:     45 µs unloaded, 1550K RPS @ <500 µs
//!   USR-Linux:  85 µs unloaded,  500K RPS @ <500 µs
//!   USR-IX:     32 µs unloaded, 1800K RPS @ <500 µs

use ix_apps::harness::{run, App, Scenario, System};
use ix_apps::workload::WorkloadKind;

const SLA_NS: u64 = 500_000;

/// The SLA grid per system: bounded-runtime fixed walk, probed in
/// parallel with every other point in the table.
fn grid(system: System) -> &'static [f64] {
    match system {
        System::Ix => &[1_000e3, 1_300e3, 1_600e3, 1_900e3, 2_200e3],
        _ => &[350e3, 450e3, 550e3, 650e3],
    }
}

fn main() {
    ix_bench::banner(
        "Table 2",
        "Unloaded p99 latency and max RPS under a 500us p99 SLA",
    );
    // Flatten the whole table into one point list: for each of the four
    // (workload, system) configs, one unloaded probe (target 50K) plus
    // its SLA grid. All points are independent simulations.
    let configs: Vec<(WorkloadKind, System)> = [WorkloadKind::Etc, WorkloadKind::Usr]
        .into_iter()
        .flat_map(|wl| [System::Linux, System::Ix].map(|s| (wl, s)))
        .collect();
    let mut points: Vec<(WorkloadKind, System, f64)> = Vec::new();
    for &(wl, sys) in &configs {
        points.push((wl, sys, 50_000.0));
        for &t in grid(sys) {
            points.push((wl, sys, t));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(wl, system, target)| {
        run(&Scenario {
            system,
            app: App::Kv { workload: wl, rps: target },
            server_cores: if system == System::Ix { 6 } else { 8 },
            ..Scenario::kv()
        })
    });
    println!(
        "{:<12} | {:>14} | {:>16} | paper",
        "config", "min lat @p99", "RPS @SLA<500us"
    );
    let paper = [("ETC-Linux", 94, 550), ("ETC-IX", 45, 1550), ("USR-Linux", 85, 500), ("USR-IX", 32, 1800)];
    let mut i = 0;
    for (ci, &(wl, sys)) in configs.iter().enumerate() {
        let unloaded = outcome.results[i].agent_p99_ns;
        i += 1;
        // Highest grid target that meets the SLA and is actually achieved.
        let mut cap = 0.0;
        for &t in grid(sys) {
            let r = &outcome.results[i];
            i += 1;
            if r.agent_p99_ns <= SLA_NS && r.msgs_per_sec >= t * 0.95 {
                cap = t;
            }
        }
        let (pname, plat, pcap) = paper[ci];
        println!(
            "{:<12} | {:>11.1} us | {:>12.0}K    | {pname}: {plat} us, {pcap}K",
            format!("{:?}-{}", wl, sys.name()),
            unloaded as f64 / 1e3,
            cap / 1e3,
        );
    }
    ix_bench::sweep::record("table2_sla", &outcome);
}
