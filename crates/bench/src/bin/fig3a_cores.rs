//! Fig 3a — "Multi-core scalability (n=1, s=64B)": messages (=
//! connections) per second vs server cores, for IX/Linux at 10GbE and
//! 4x10GbE and mTCP at 10GbE.
//!
//! Paper shape: IX saturates the 10GbE link with only 3 cores; mTCP
//! needs all 8; Linux stays low and flat-ish; IX on 4x10GbE scales
//! linearly to ~3.8M connections/s at 8 cores.

use ix_apps::harness::{run, App, Scenario, System};

const COLUMNS: [(System, usize); 5] = [
    (System::Ix, 1),
    (System::Ix, 4),
    (System::Linux, 1),
    (System::Linux, 4),
    (System::Mtcp, 1),
];

fn main() {
    ix_bench::banner(
        "Figure 3a",
        "Echo connections/sec vs server cores (n=1, s=64B; RST close + reopen)",
    );
    let cores: &[usize] =
        if ix_bench::sweep::quick() { &[1, 8] } else { &[1, 2, 3, 4, 6, 8] };
    let mut points: Vec<(usize, System, usize)> = Vec::new();
    for &c in cores {
        for (sys, ports) in COLUMNS {
            points.push((c, sys, ports));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(c, sys, ports)| {
        run(&Scenario {
            system: sys,
            server_cores: c,
            server_ports: ports,
            app: App::Echo { msg: 64, n_per_conn: 1 },
            ..Scenario::echo()
        })
    });
    println!(
        "{:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>10}",
        "cores", "IX-10G", "IX-40G", "Linux-10G", "Linux-40G", "mTCP-10G"
    );
    for (ci, &c) in cores.iter().enumerate() {
        let mut row = format!("{c:>5} |");
        for (i, &(sys, ports)) in COLUMNS.iter().enumerate() {
            let r = &outcome.results[ci * COLUMNS.len() + i];
            row += &format!(" {:>9.2}M", r.msgs_per_sec / 1e6);
            if (sys, ports) == (System::Ix, 4) || (sys, ports) == (System::Linux, 4) {
                row += " |";
            }
        }
        println!("{row}");
    }
    println!();
    println!("Paper: IX-10G saturates at 3 cores; IX-40G linear to ~3.8M conn/s at 8 cores.");
    ix_bench::sweep::record("fig3a_cores", &outcome);
}
