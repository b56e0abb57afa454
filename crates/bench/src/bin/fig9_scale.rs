//! Fig 9-scale — bulk flow-group migration at connection scale: move a
//! whole live shard (1k → 250k established connections) between cores
//! under load and report the host-side cost per migrated flow.
//!
//! The elastic control loop (fig9) migrates flow groups when it adds or
//! revokes cores; this sweep stresses the *mechanism* at Fig 4
//! connection counts. Each point establishes N connections in staggered
//! dial waves, consolidates all 128 RSS buckets onto core 0, then
//! ping-pongs the entire shard between cores 0 and 1 several times with
//! the echo load still running. The migration is timed with a host wall
//! clock around the bulk extract/absorb pass (per-bucket intrusive list
//! walks + batch timer splices), and the minimum ns-per-flow across the
//! ping-pongs is the headline.
//!
//! Expected shape: ns/flow stays roughly flat across three decades of
//! connection count — the bulk path does O(moved) work, with no
//! O(table) scans, sorts, or re-hash growth — and the load stream
//! continues across the burst with zero connection resets.
//!
//! Points run SERIALLY: the measurement is host wall-clock, and
//! parallel sweep workers would corrupt it.

use std::time::Instant;

use ix_apps::harness::{run_scale_migration, ScaleMigrationConfig};

fn main() {
    let quick = ix_bench::sweep::quick();
    ix_bench::banner(
        "Figure 9-scale",
        "whole-shard live migration vs connection count: host ns per moved flow",
    );
    let conn_counts: &[usize] =
        if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000, 250_000] };

    let start = Instant::now();
    let mut results = Vec::with_capacity(conn_counts.len());
    for &n in conn_counts {
        let cfg = ScaleMigrationConfig { total_conns: n, ..ScaleMigrationConfig::default() };
        results.push(run_scale_migration(&cfg));
    }
    let wall = start.elapsed();

    println!(
        "{:>8} {:>9} {:>12} {:>14} {:>12} {:>12} {:>12} {:>7}",
        "conns", "moved", "ns/flow", "absorb ns/fl", "best ms", "before", "after", "resets"
    );
    for (&n, r) in conn_counts.iter().zip(results.iter()) {
        let moved = r.migrations.iter().map(|m| m.moved).min().unwrap_or(0);
        let best_ns = r.migrations.iter().map(|m| m.host_ns).min().unwrap_or(0);
        println!(
            "{:>8} {:>9} {:>12.1} {:>14.1} {:>12.3} {:>10.2}M {:>10.2}M {:>7}",
            n,
            moved,
            r.ns_per_flow,
            r.absorb_ns_per_flow,
            best_ns as f64 / 1e6,
            r.msgs_before / 1e6,
            r.msgs_after / 1e6,
            r.resets
        );
    }

    // Headline gates the CI checks grep for: per-flow absorb cost at
    // the largest point within 2x of the smallest (flat scaling —
    // absorb is the destination-side adoption work; the extract half,
    // reported alongside, reads scattered cold flow state and is
    // bounded by DRAM latency, not by the algorithm), every migration
    // moved the whole shard, and no connection was lost.
    let first = results.first().expect("at least one point");
    let last = results.last().expect("at least one point");
    let ratio = last.absorb_ns_per_flow / first.absorb_ns_per_flow.max(1e-9);
    let all_moved = results
        .iter()
        .all(|r| r.migrations.iter().all(|m| m.moved == r.conns) && !r.migrations.is_empty());
    let no_resets = results.iter().all(|r| r.resets == 0);
    let survived = results.iter().all(|r| r.msgs_after > 0.0);
    if ratio <= 2.0 && all_moved && no_resets && survived {
        println!(
            "\nflat migration scaling: absorb {:.1} ns/flow at {}k vs {:.1} ns/flow at {}k \
             ({:.2}x <= 2x), 0 resets, load survived",
            last.absorb_ns_per_flow,
            conn_counts.last().expect("nonempty") / 1_000,
            first.absorb_ns_per_flow,
            conn_counts.first().expect("nonempty") / 1_000,
            ratio
        );
    } else {
        println!(
            "\nSCALING GATE FAILED: absorb_ratio={ratio:.2} all_moved={all_moved} \
             no_resets={no_resets} survived={survived}"
        );
    }

    ix_bench::sweep::record(
        "fig9_scale",
        &ix_bench::sweep::SweepOutcome { results, wall, threads: 1 },
    );
}
