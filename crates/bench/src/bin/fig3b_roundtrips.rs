//! Fig 3b — "n round-trips per connection (s=64B)": messages/sec vs the
//! number of synchronous RPCs each connection performs before the RST
//! close, at 8 server cores.
//!
//! Paper shape at n=1024: IX-10G delivers 8.8M msgs/s (line rate),
//! 1.9× mTCP and 8.8× Linux; IX-40G is 2.3× IX-10G at n=1 and 1.3× at
//! n=1024.

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
        "Figure 3b",
        "Echo messages/sec vs round trips per connection (s=64B, 8 cores)",
    );
    let ns: &[usize] = if ix_bench::sweep::quick() { &[1, 1024] } else { &[1, 8, 64, 256, 1024] };
    let mut points: Vec<(usize, System, usize)> = Vec::new();
    for &n in ns {
        for (sys, ports) in COLUMNS {
            points.push((n, sys, ports));
        }
    }
    let outcome = ix_bench::sweep::run(&points, |&(n, sys, ports)| {
        run(&Scenario {
            system: sys,
            server_ports: ports,
            app: App::Echo { msg: 64, n_per_conn: n },
            ..Scenario::echo()
        })
    });
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10}",
        "n", "IX-10G", "IX-40G", "Linux-10G", "Linux-40G", "mTCP-10G"
    );
    let mut at_1024 = Vec::new();
    for (ni, &n) in ns.iter().enumerate() {
        let mut row = format!("{n:>6} |");
        for (i, &(sys, ports)) in COLUMNS.iter().enumerate() {
            let r = &outcome.results[ni * COLUMNS.len() + i];
            row += &format!(" {:>9.2}M", r.msgs_per_sec / 1e6);
            if matches!((sys, ports), (System::Ix, 4) | (System::Linux, 4)) {
                row += " |";
            }
            if n == 1024 {
                at_1024.push((sys, ports, r.msgs_per_sec));
            }
        }
        println!("{row}");
    }
    println!();
    if let [ix10, _ix40, lnx10, _lnx40, mtcp] = at_1024.as_slice() {
        println!(
            "n=1024 ratios: IX-10G/mTCP = {:.2}x (paper 1.9x), IX-10G/Linux = {:.2}x (paper 8.8x)",
            ix10.2 / mtcp.2,
            ix10.2 / lnx10.2
        );
    }
    ix_bench::sweep::record("fig3b_roundtrips", &outcome);
}
