//! The repository's benchmark: how fast the simulator and the real TCP
//! stack inside it get through a fixed stretch of virtual time, on the
//! host clock.
//!
//! ```text
//! ix-benchmark                                  # a full set: every workload, K runs each
//! ix-benchmark --quick                          # smoke run, numbers not for comparison
//! ix-benchmark --workload W --seed N --seconds S --trace 0|1   # one run, JSON on the last line
//! ix-benchmark compare A.tsv B.tsv              # better / worse / unresolved per metric
//! ix-benchmark summarize A.tsv                  # medians and quartiles of a recorded set
//! ix-benchmark manifest                         # prints BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod alloc;
mod drivers;
mod report;
mod run;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use run::metric;
use workloads::{Bare, Spec};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where spans and recorded sets go, relative to the repository root the
/// benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Equal virtual slices the untraced window is timed in.
const SLICES: u64 = 40;

/// Parsed command line of a single run.
struct RunArgs {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set-ups per run; the workload's own count unless overridden.
    setups: usize,
    record: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ix-benchmark [--quick] [--reps K] [--seed N] [--seconds S] [--label L]\n\
         \x20      ix-benchmark --workload W --seed N --seconds S --trace 0|1 [--record FILE]\n\
         \x20      ix-benchmark compare A.tsv B.tsv | summarize A.tsv | manifest\n\
         workloads: {}",
        workloads::SPECS.map(|s| s.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        Some("summarize") if args.len() == 2 => report::summarize(&args[1]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("compare" | "summarize" | "manifest") => usage(),
        _ => {
            let mut opt = std::collections::HashMap::new();
            let mut quick = false;
            let mut it = args.iter();
            while let Some(a) = it.next() {
                match (a.as_str(), a.strip_prefix("--")) {
                    ("--quick", _) => quick = true,
                    (_, Some(key)) => match it.next() {
                        Some(v) => {
                            opt.insert(key.to_string(), v.clone());
                        }
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let num = |key: &str, default: u64| -> Option<u64> {
                opt.get(key).map_or(Some(default), |v| v.parse().ok())
            };
            let (Some(seed), Some(seconds), Some(reps), Some(trace), Some(setups)) = (
                num("seed", 1),
                num("seconds", if quick { 1 } else { 10 }),
                num("reps", 5),
                num("trace", 0),
                num("setups", 0),
            ) else {
                return usage();
            };
            if seconds == 0 || trace > 1 {
                return usage();
            }
            match opt.get("workload") {
                Some(w) => match workloads::spec(w) {
                    Some(spec) => single(
                        RunArgs {
                            spec,
                            seed,
                            seconds,
                            trace: trace == 1,
                            setups: if setups == 0 {
                                spec.setups
                            } else {
                                setups as usize
                            },
                            record: opt.get("record").cloned(),
                        },
                        started,
                    ),
                    None => usage(),
                },
                None => {
                    let default = if quick { "quick" } else { "set" };
                    let label = opt.get("label").cloned().unwrap_or_else(|| default.into());
                    report::run_set(quick, reps.max(1), seed, seconds, &label)
                }
            }
        }
    }
}

/// One run of one workload: prints every metric by name with its unit,
/// then the result object on the last line. Exit code 1 when the run is
/// not correct.
fn single(args: RunArgs, started: Instant) -> ExitCode {
    let RunArgs {
        spec,
        seed,
        seconds,
        trace,
        setups: n_setups,
        ..
    } = args;
    let window_ns = seconds * spec.virt_ns_per_s;
    println!(
        "# {} seed={seed} seconds={seconds} trace={} window={} virtual ms",
        spec.name,
        u8::from(trace),
        window_ns as f64 / 1e6
    );
    std::fs::create_dir_all(OUT_DIR).expect("benchmark/out is writable");

    let (e2e, layers, pass) = if trace {
        let t = traced::run(spec, seed, window_ns, started);
        (Vec::new(), t.metrics, t.untraced)
    } else {
        // Set up several times; the last one is the one that is run.
        let mut setups = Vec::new();
        let mut t = started;
        for _ in 1..n_setups {
            drop(run::set_up(spec, seed, window_ns, &Bare));
            setups.push(t.elapsed().as_secs_f64());
            t = Instant::now();
        }
        // The window is simulated in equal virtual slices, each under its
        // own stopwatch. The load is stationary, so every slice is the
        // same work, and the median slice is the run's speed with the
        // moments the host was busy elsewhere left out.
        let mut slices: Vec<f64> = Vec::new();
        let pass = run::pass(spec, seed, window_ns, &Bare, t, |tb, until| {
            let start = tb.sim.now().as_nanos();
            for i in 1..=SLICES {
                let t0 = Instant::now();
                tb.run_until_ns(start + (until - start) * i / SLICES);
                slices.push(t0.elapsed().as_secs_f64());
            }
        });
        let typical_host_s = report::median(&mut slices) * SLICES as f64;
        setups.push(pass.setup_s);
        let e2e = vec![
            metric("setup_s", report::median(&mut setups), "s"),
            metric("host_msgs_per_s", pass.msgs as f64 / typical_host_s, "1/s"),
            metric(
                "host_peak_rss_mib",
                alloc::peak_rss_mib().unwrap_or(0.0),
                "MiB",
            ),
            metric("host_allocs_per_msg", run::per(pass.allocs, pass.msgs), "1"),
        ];
        println!(
            "# set-ups: {setups:.4?} s; window: {:.4} host s ({typical_host_s:.4} at the median slice), \
             {} messages, {} B allocated per message",
            pass.host_s,
            pass.msgs,
            pass.alloc_bytes / pass.msgs.max(1)
        );
        let counts = pass.counts();
        (e2e, counts, pass)
    };

    let lines = report::lines(&e2e, &layers, &pass);
    for l in &lines {
        println!("{l}");
    }
    for v in &pass.violations {
        println!("VIOLATION\t{v}");
    }
    if let Some(path) = &args.record {
        let run = format!("{}\t{seed}\t{seconds}\t{}", spec.name, u8::from(trace));
        report::record(path, &run, &lines).expect("record file is writable");
    }
    println!(
        "{}",
        report::result_json(&pass, if trace { &layers } else { &e2e })
    );
    let correct = pass.violations.is_empty();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
