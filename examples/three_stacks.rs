//! The paper's core comparison in one program: the same echo application
//! running on IX, on the Linux model, and on the mTCP model — same
//! protocol stack, three execution architectures (§5.2).
//!
//! Run with: `cargo run --release --example three_stacks`

use ix::apps::harness::{run, Scenario, System};

fn main() {
    println!("NetPIPE 64B ping-pong, same system on both ends (paper Fig 2):\n");
    let mut rows = Vec::new();
    for sys in [System::Ix, System::Linux, System::Mtcp] {
        let one_way = run(&Scenario { system: sys, ..Scenario::netpipe(64, 100) }).one_way_ns;
        rows.push((sys, one_way));
        println!("  {:<6} one-way latency: {:>7.2} us", sys.name(), one_way as f64 / 1e3);
    }
    println!();
    println!("paper: IX 5.7us — 4x better than Linux (24us), ~10x better than mTCP.");
    println!("Why: IX polls and runs each packet to completion with adaptive");
    println!("batching; Linux pays interrupts + scheduler wake-ups + syscalls;");
    println!("mTCP trades latency for throughput with coarse-grained batching.");
    assert!(rows[0].1 < rows[1].1, "IX must beat Linux on latency");
    assert!(rows[1].1 < rows[2].1, "Linux must beat mTCP on latency");
}
