//! Fig 3c — "Different message sizes s (n=1)": goodput vs message size.
//!
//! Paper shape: IX-40G reaches 34.5 Gbps of goodput at s=8KB (wire
//! throughput 37.9 of a possible 39.7 Gbps); IX-10G approaches the
//! 10GbE ceiling; Linux stays far below at every size.

use ix_apps::harness::{run, App, Scenario, System};

const COLUMNS: [(System, usize); 5] = [
    (System::Ix, 1),
    (System::Ix, 4),
    (System::Linux, 1),
    (System::Linux, 4),
    (System::Mtcp, 1),
];

fn main() {
    ix_bench::banner("Figure 3c", "Echo goodput (Gbps) vs message size (n=1, 8 cores)");
    let sizes: &[usize] =
        if ix_bench::sweep::quick() { &[64, 8_192] } else { &[64, 256, 1_024, 4_096, 8_192] };
    let mut points: Vec<(usize, System, usize)> = Vec::new();
    for &s in sizes {
        for (sys, ports) in COLUMNS {
            points.push((s, sys, ports));
        }
    }
    // Large messages at n=1 need fewer conns to fill the pipe but more
    // per-conn work; keep the default fleet.
    let outcome = ix_bench::sweep::run(&points, |&(s, sys, ports)| {
        run(&Scenario {
            system: sys,
            server_ports: ports,
            app: App::Echo { msg: s, n_per_conn: 1 },
            ..Scenario::echo()
        })
    });
    println!(
        "{:>8} | {:>10} {:>10} | {:>10} {:>10} | {:>10}",
        "size(B)", "IX-10G", "IX-40G", "Linux-10G", "Linux-40G", "mTCP-10G"
    );
    for (si, &s) in sizes.iter().enumerate() {
        let mut row = format!("{s:>8} |");
        for (i, &(sys, ports)) in COLUMNS.iter().enumerate() {
            let r = &outcome.results[si * COLUMNS.len() + i];
            row += &format!(" {:>9.2}G", r.goodput_gbps);
            if matches!((sys, ports), (System::Ix, 4) | (System::Linux, 4)) {
                row += " |";
            }
        }
        println!("{row}");
    }
    println!();
    println!("Paper: IX-40G @8KB = 34.5 Gbps goodput (37.9 Gbps wire of 39.7 possible).");
    ix_bench::sweep::record("fig3c_msgsize", &outcome);
}
