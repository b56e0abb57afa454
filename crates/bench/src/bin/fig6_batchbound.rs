//! Fig 6 — "99th percentile latency as a function of throughput for USR
//! workload from Fig 5, for different values of the batch bound B."
//!
//! Paper shape: at low load, B has no impact on tail latency (adaptive
//! batching never delays pending packets); at high load, larger B
//! improves throughput — +29% from B=1 to B=16 — and B ≥ 16 saturates.

use ix_apps::harness::{run, App, EngineTuning, Scenario};
use ix_apps::workload::WorkloadKind;
use ix_core::params::CostParams;

fn main() {
    ix_bench::banner(
        "Figure 6",
        "memcached USR p99 latency vs throughput for batch bounds B (IX, 6 cores)",
    );
    let bounds: &[usize] = &[1, 2, 8, 16, 64];
    let targets: &[f64] = if ix_bench::sweep::quick() {
        &[200e3, 2000e3]
    } else {
        &[200e3, 800e3, 1400e3, 2000e3]
    };
    let mut points: Vec<(f64, usize)> = Vec::new();
    for &t in targets {
        for &b in bounds {
            points.push((t, b));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(t, b)| {
        let tuning = EngineTuning {
            ix: CostParams::with_batch_bound(b),
            ..EngineTuning::default()
        };
        run(&Scenario {
            app: App::Kv {
                workload: WorkloadKind::Usr,
                rps: t,
            },
            tuning,
            ..Scenario::kv()
        })
    });
    println!(
        "{:>9} | {}",
        "target",
        bounds
            .iter()
            .map(|b| format!("{:>16}", format!("B={b} p99(us)")))
            .collect::<String>()
    );
    let mut max_rps = vec![0.0f64; bounds.len()];
    for (ti, &t) in targets.iter().enumerate() {
        let mut row = format!("{:>8.0}K |", t / 1e3);
        for (i, best) in max_rps.iter_mut().enumerate() {
            let r = &outcome.results[ti * bounds.len() + i];
            let sat = r.msgs_per_sec < t * 0.95;
            row += &format!(
                "{:>16}",
                if sat {
                    format!("({:.0}K max)", r.msgs_per_sec / 1e3)
                } else {
                    format!("{:.1}", r.agent_p99_ns as f64 / 1e3)
                }
            );
            *best = best.max(r.msgs_per_sec);
        }
        println!("{row}");
    }
    println!();
    for (i, &b) in bounds.iter().enumerate() {
        println!("B={b:<3} max sustained ≈ {:>7.0}K RPS", max_rps[i] / 1e3);
    }
    if max_rps[0] > 0.0 {
        let b16 = max_rps[bounds.iter().position(|&b| b == 16).expect("16 present")];
        println!(
            "B=16 vs B=1 throughput: +{:.0}% (paper: +29%)",
            100.0 * (b16 / max_rps[0] - 1.0)
        );
    }
    ix_bench::sweep::record("fig6_batchbound", &outcome);
}
