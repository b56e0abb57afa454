//! Fig 4 — "Connection scalability for the 10GbE and 4x10GbE
//! configurations": messages/sec vs total established connections
//! (log-scale x), plus the §5.4 cache-miss analysis.
//!
//! Paper shape: throughput rises with concurrency, peaks, then falls as
//! the TCP connection state outgrows the L3 cache; at 250k connections
//! IX delivers 47% of its peak; L3 misses/message go from 1.4 (≤10k
//! connections, DDIO keeps everything in cache) to ~25 at 250k.

use ix_apps::harness::{run, App, Scenario, System};

const COLUMNS: [(System, usize); 4] = [
    (System::Ix, 1),
    (System::Ix, 4),
    (System::Linux, 1),
    (System::Linux, 4),
];

fn main() {
    ix_bench::banner("Figure 4", "Echo messages/sec vs connection count (64B RPC)");
    let conn_counts: &[usize] = if ix_bench::sweep::quick() {
        &[100, 10_000]
    } else {
        &[100, 1_000, 10_000, 50_000, 100_000, 250_000, 500_000]
    };
    let mut points: Vec<(usize, System, usize)> = Vec::new();
    for &n in conn_counts {
        for (sys, ports) in COLUMNS {
            points.push((n, sys, ports));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(n, sys, ports)| {
        let base = Scenario::conn_scale();
        run(&Scenario {
            system: sys,
            server_ports: ports,
            // Few connections bound concurrency by themselves.
            app: App::Rotating { total_conns: n, outstanding: if n < 1_000 { 1 } else { 3 } },
            // The 18-host fleet saturates below 500k connections; the
            // half-million point doubles the client machines (paper
            // §5.4 tops out at 18x24 threads — connection counts past
            // 250k need a larger fleet).
            n_clients: if n > 250_000 { 36 } else { base.n_clients },
            ..base
        })
    });
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>10} | {:>9}",
        "conns", "IX-10G", "IX-40G", "Linux-10G", "Linux-40G", "miss/msg"
    );
    let mut ix40_series = Vec::new();
    for (ni, &n) in conn_counts.iter().enumerate() {
        let mut row = format!("{n:>8} |");
        let mut misses = 0.0;
        for (i, &(sys, ports)) in COLUMNS.iter().enumerate() {
            let r = &outcome.results[ni * COLUMNS.len() + i];
            row += &format!(" {:>9.2}M", r.msgs_per_sec / 1e6);
            misses = r.misses_per_msg;
            if (sys, ports) == (System::Ix, 4) {
                ix40_series.push((n, r.msgs_per_sec));
            }
        }
        println!("{row} | {misses:>9.1}");
    }
    println!();
    if let Some(&(_, peak)) = ix40_series
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    {
        if let Some(&(_, at250k)) = ix40_series.iter().find(|(n, _)| *n == 250_000) {
            println!(
                "IX-40G at 250k connections: {:.0}% of peak (paper: 47%)",
                100.0 * at250k / peak
            );
        }
    }
    println!("Paper: misses/msg 1.4 below ~10k connections, ~25 at 250k (DDIO model).");
    // Peak-RSS-style accounting, per point: summed per-core mbuf pool
    // high-water marks plus flow-table / TCB-slab occupancy. Printed
    // after the figure rows so those stay byte-identical across runs.
    println!();
    println!(
        "{:>8} | {:>10} | {:>9} {:>9} {:>10} {:>8}",
        "conns", "system", "mbuf_peak", "tcb_live", "slab_slots", "tcb_MiB"
    );
    for (ni, &n) in conn_counts.iter().enumerate() {
        for (i, &(sys, ports)) in COLUMNS.iter().enumerate() {
            let r = &outcome.results[ni * COLUMNS.len() + i];
            println!(
                "{:>8} | {:>6}-{}0G | {:>9} {:>9} {:>10} {:>8.2}",
                n,
                sys.name(),
                ports,
                r.mbuf.peak_outstanding,
                r.flows.live,
                r.flows.slab_slots,
                r.flows.bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
    ix_bench::sweep::record("fig4_connscale", &outcome);
}
