//! A memcached-style key-value store served by the IX dataplane, driven
//! by a mutilate-style load generator on Linux-model clients — a
//! miniature of the paper's §5.5 evaluation.
//!
//! Run with: `cargo run --release --example key_value_store`

use ix::apps::harness::{run, App, Scenario, System};
use ix::apps::workload::WorkloadKind;
use ix::sim::Nanos;

fn main() {
    println!("memcached-style KV store: IX (6 cores) vs Linux (8 cores), USR workload\n");
    println!(
        "{:>9} | {:>11} {:>11} | {:>11} {:>11}",
        "load", "IX p99(us)", "IX rps", "Lnx p99(us)", "Lnx rps"
    );
    for target in [100e3, 400e3, 800e3] {
        let mut row = format!("{:>8.0}K |", target / 1e3);
        for sys in [System::Ix, System::Linux] {
            let r = run(&Scenario {
                system: sys,
                app: App::Kv { workload: WorkloadKind::Usr, rps: target },
                server_cores: if sys == System::Ix { 6 } else { 8 },
                measure: Nanos::from_millis(25),
                ..Scenario::kv()
            });
            row += &format!(" {:>11.1} {:>10.0}K", r.agent_p99_ns as f64 / 1e3, r.msgs_per_sec / 1e3);
            if sys == System::Ix {
                row += " |";
            }
        }
        println!("{row}");
    }
    println!("\nThe Linux column collapses first — the §5.5 result: IX sustains");
    println!("~3.6x the USR load of Linux under the same 500us tail-latency SLA.");
}
