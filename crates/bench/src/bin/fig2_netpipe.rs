//! Fig 2 — "NetPIPE performance for varying message sizes and system
//! software configurations."
//!
//! Paper shape: IX-IX reaches 5 Gbps (half of 10GbE) with ~20 KB
//! messages and has 5.7 µs one-way latency at 64 B; Linux needs ~385 KB
//! for 5 Gbps with 24 µs at 64 B; mTCP trades latency for throughput and
//! is an order of magnitude worse than IX at small sizes.

use ix_apps::harness::{run, Scenario, System};

const SYSTEMS: [System; 3] = [System::Ix, System::Linux, System::Mtcp];

fn main() {
    ix_bench::banner("Figure 2", "NetPIPE goodput vs message size (same system on both ends)");
    let sizes: &[usize] = if ix_bench::sweep::quick() {
        &[64, 4_096, 65_536]
    } else {
        &[64, 256, 1_024, 4_096, 16_384, 32_768, 65_536, 131_072, 262_144, 524_288]
    };
    // Every (size, system) point is an independent simulation — farm the
    // grid out and reassemble rows afterwards.
    let mut points: Vec<(usize, System)> = Vec::new();
    for &size in sizes {
        for sys in SYSTEMS {
            points.push((size, sys));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(size, sys)| {
        let reps = if size >= 65_536 { 30 } else { 60 };
        let r = run(&Scenario { system: sys, ..Scenario::netpipe(size, reps) });
        (r.one_way_ns, r.goodput_gbps)
    });
    println!(
        "{:>9} | {:>12} {:>10} | {:>12} {:>10} | {:>12} {:>10}",
        "size(B)", "IX 1-way us", "IX Gbps", "Lnx 1-way us", "Lnx Gbps", "mTCP 1-way", "mTCP Gbps"
    );
    let mut half_bw: [Option<usize>; 3] = [None, None, None];
    for (si, &size) in sizes.iter().enumerate() {
        let mut row = format!("{size:>9} |");
        for (i, slot) in half_bw.iter_mut().enumerate() {
            let (one_way, gbps) = outcome.results[si * SYSTEMS.len() + i];
            row += &format!(" {:>12.2} {:>10.2} |", one_way as f64 / 1e3, gbps);
            if gbps >= 5.0 && slot.is_none() {
                *slot = Some(size);
            }
        }
        println!("{}", row.trim_end_matches('|'));
    }
    println!();
    println!("Half-bandwidth (5 Gbps) crossing points (paper: IX ~20KB, Linux ~385KB):");
    for (i, sys) in SYSTEMS.into_iter().enumerate() {
        match half_bw[i] {
            Some(s) => println!("  {:<6} <= {} B", sys.name(), s),
            None => println!("  {:<6} not reached in sweep", sys.name()),
        }
    }
    ix_bench::sweep::record("fig2_netpipe", &outcome);
}
