//! Everything about results: the metric tables (the one place their
//! names, units and bounds are written down), the result object of a
//! single run, the record file of a set, and the `summarize` and
//! `compare` reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use crate::run::{Metric, Pass};
use crate::workloads::SPECS;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the median by which it may worsen before that is a
    /// regression.
    pub bound: f64,
}

/// The four end-to-end metrics. All host-side: no virtual-clock value
/// gates, because `CostParams` and the deterministic schedule fix those
/// to the last digit.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_msgs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "host_peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "host_allocs_per_msg",
        unit: "1",
        higher_is_better: false,
        bound: 0.03,
    },
];

/// A per-layer metric: `(name, unit, higher_is_better, is_count)`. Counts
/// come from the program's own stat structs and repeat exactly; the rest
/// are host timings from the traced run.
pub const PER_LAYER: [(&str, &str, bool, bool); 51] = [
    ("sim.events_per_msg", "1", false, true),
    ("sim.cancels_per_msg", "1", false, true),
    ("sim.far_insert_share", "1", false, true),
    ("sim.pending_hwm", "count", false, true),
    ("nic.frames_per_msg", "1", false, true),
    ("nic.bytes_per_msg", "B", false, true),
    ("nic.rx_ring_drops", "count", false, true),
    ("mempool.allocs_per_msg", "1", false, true),
    ("mempool.peak_outstanding", "count", false, true),
    ("mempool.exhausted", "count", false, true),
    ("tcp.rx_segs_per_msg", "1", false, true),
    ("tcp.tx_segs_per_msg", "1", false, true),
    ("tcp.conns_per_kmsg", "1", false, true),
    ("tcp.retransmits", "count", false, true),
    ("tcp.parse_drops", "count", false, true),
    ("tcp.tx_payload_writes_per_seg", "1", false, true),
    ("tcp.rx_payload_copies", "count", false, true),
    ("tcp.tcb_bytes_per_conn", "B", false, true),
    ("tcp.slab_slots_hwm", "count", false, true),
    ("core.avg_batch", "1", true, true),
    ("core.full_batch_share", "1", false, true),
    ("core.cycles_per_msg", "1", false, true),
    ("core.events_per_msg", "1", false, true),
    ("core.syscalls_per_msg", "1", false, true),
    ("core.scratch_allocs", "count", false, true),
    ("core.virt_kernel_ns_per_msg", "ns", false, true),
    ("core.virt_user_ns_per_msg", "ns", false, true),
    ("apps.virt_msgs_per_s", "1/s", true, true),
    ("apps.virt_rtt_p50_ns", "ns", false, true),
    ("apps.virt_rtt_p99_ns", "ns", false, true),
    ("apps.kv_lock_wait_virt_ns_per_op", "ns", false, true),
    ("apps.server_ns_per_msg", "ns", false, false),
    ("apps.client_ns_per_msg", "ns", false, false),
    ("sim.run_ns_per_event", "ns", false, false),
    ("sim.engine_ns_per_event", "ns", false, false),
    ("tcp.input_ns_per_frame", "ns", false, false),
    ("tcp.send_ns_per_msg", "ns", false, false),
    ("tcp.end_cycle_ns_per_cycle", "ns", false, false),
    ("tcp.timers_ns_per_cycle", "ns", false, false),
    ("tcp.open_close_ns_per_conn", "ns", false, false),
    ("net.checksum_ns_per_frame", "ns", false, false),
    ("net.parse_ns_per_frame", "ns", false, false),
    ("net.rss_ns_per_flow", "ns", false, false),
    ("mempool.alloc_free_ns", "ns", false, false),
    ("timerwheel.arm_cancel_ns", "ns", false, false),
    ("timerwheel.advance_ns_per_tick", "ns", false, false),
    ("nic.ring_ns_per_frame", "ns", false, false),
    ("nic.fabric_ns_per_frame", "ns", false, false),
    ("other.unattributed_ns_per_msg", "ns", false, false),
    ("other.trace_overhead_pct", "%", false, false),
    ("other.slice_p99_over_p50", "1", false, false),
];

/// The contents of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let better = |hi: bool| if hi { "higher" } else { "lower" };
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, hi, _)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                better(*hi)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 10,\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// The result object a single run prints on its last line.
pub fn result_json(pass: &Pass, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.violations.is_empty(),
        pass.attempted().max(1),
        pass.failed,
        body.join(", ")
    )
}

/// Everything a run reports, one tab-separated `kind name value unit`
/// line each: what a single run prints, and — behind the run's
/// `workload seed seconds trace` — what a record file holds.
pub fn lines(e2e: &[Metric], layers: &[Metric], pass: &Pass) -> Vec<String> {
    let mut out = Vec::new();
    for m in e2e {
        out.push(format!("end_to_end\t{}\t{}\t{}", m.name, m.value, m.unit));
    }
    for m in layers {
        let is_count = PER_LAYER
            .iter()
            .any(|(n, _, _, count)| *n == m.name && *count);
        let kind = if is_count { "count" } else { "host" };
        out.push(format!("{kind}\t{}\t{}\t{}", m.name, m.value, m.unit));
    }
    out.push(format!("info\tops_attempted\t{}\tcount", pass.attempted()));
    out.push(format!("info\tops_failed\t{}\tcount", pass.failed));
    out.push(format!(
        "info\tvirt_fingerprint\t{:016x}\thash",
        pass.fingerprint
    ));
    out
}

/// Appends one run's [`lines`] to a record file.
pub fn record(path: &str, run: &str, lines: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    lines.iter().try_for_each(|l| writeln!(f, "{run}\t{l}"))
}

/// Median, by sorting in place.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so that the spread printed here
/// is the spread the acceptance rule uses. `v` must be sorted and hold
/// at least two values.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One parsed record line.
struct Row {
    workload: String,
    run_key: String,
    trace: bool,
    kind: String,
    name: String,
    value: String,
    unit: String,
}

fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            if f.len() != 8 {
                return Err(format!("{path}: malformed line: {l}"));
            }
            Ok(Row {
                workload: f[0].into(),
                run_key: format!("{} seed={} seconds={} trace={}", f[0], f[1], f[2], f[3]),
                trace: f[3] == "1",
                kind: f[4].into(),
                name: f[5].into(),
                value: f[6].into(),
                unit: f[7].into(),
            })
        })
        .collect()
}

/// Median, quartiles and sample count of one metric on one workload.
struct Stat {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
    unit: String,
}

impl Stat {
    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Timed metrics of a record file, keyed by `(workload, kind, name)`.
fn stats(rows: &[Row]) -> BTreeMap<(String, String, String), Stat> {
    let mut groups: BTreeMap<(String, String, String), (Vec<f64>, String)> = BTreeMap::new();
    for r in rows
        .iter()
        .filter(|r| r.kind == "end_to_end" || r.kind == "host")
    {
        if let Ok(v) = r.value.parse::<f64>() {
            let g = groups
                .entry((r.workload.clone(), r.kind.clone(), r.name.clone()))
                .or_default();
            g.0.push(v);
            g.1 = r.unit.clone();
        }
    }
    groups
        .into_iter()
        .map(|(k, (mut v, unit))| {
            let median = median(&mut v);
            let (q1, q3) = if v.len() >= 2 {
                quartiles(&v)
            } else {
                (median, median)
            };
            (
                k,
                Stat {
                    n: v.len(),
                    median,
                    q1,
                    q3,
                    unit,
                },
            )
        })
        .collect()
}

/// Prints medians, quartiles and sample counts of a recorded set, the
/// count metrics and fingerprints, and applies the determinism gate: runs
/// of one workload with one seed, window and mode must agree exactly on
/// every count and on the fingerprint.
pub fn summarize(path: &str) -> ExitCode {
    let rows = match read_rows(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<12} {:<32} {:>3} {:>16} {:>16} {:>16} {:>8}  unit",
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med"
    );
    for ((workload, kind, name), s) in &stats(&rows) {
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        let note = match bound {
            Some(b) if kind == "end_to_end" && s.spread() > b / 2.0 => {
                "  spread above half the bound"
            }
            _ => "",
        };
        println!(
            "{workload:<12} {name:<32} {:>3} {:>16.6} {:>16.6} {:>16.6} {:>7.2}%  {}{note}",
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            s.unit
        );
    }
    // Exact-repeat metrics: one value per run key, all runs must agree.
    let mut exact: BTreeMap<(String, String), Vec<&Row>> = BTreeMap::new();
    for r in rows
        .iter()
        .filter(|r| r.kind == "count" || r.kind == "info")
    {
        exact
            .entry((r.run_key.clone(), r.name.clone()))
            .or_default()
            .push(r);
    }
    let mut bad = 0;
    for ((run, name), rs) in &exact {
        let first = &rs[0].value;
        if rs.iter().any(|r| r.value != *first) {
            bad += 1;
            let all: Vec<&str> = rs.iter().map(|r| r.value.as_str()).collect();
            println!("NOT DETERMINISTIC  {run}  {name}: {}", all.join(" "));
        } else if !rs[0].trace {
            println!(
                "{run:<44} {name:<34} {first} {}  (x{})",
                rs[0].unit,
                rs.len()
            );
        }
        if name == "ops_failed" && rs.iter().any(|r| r.value != "0") {
            bad += 1;
            println!("FAILED OPERATIONS  {run}");
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two recorded sets: per workload and end-to-end metric, is
/// the second better, worse, the same within the bound, or unresolved
/// because either side's spread is wider than the bound.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (read_rows(a), read_rows(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (sa, sb) = (stats(&ra), stats(&rb));
    let mut worse = 0;
    println!(
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B"
    );
    for spec in &SPECS {
        for m in &END_TO_END {
            let key = (
                spec.name.to_string(),
                "end_to_end".to_string(),
                m.name.to_string(),
            );
            let (Some(x), Some(y)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let change = (y.median - x.median) / x.median;
            let worsening = if m.higher_is_better { -change } else { change };
            let verdict = if x.spread() > m.bound || y.spread() > m.bound {
                "unresolved"
            } else if worsening > m.bound {
                worse += 1;
                "worse"
            } else if worsening < -m.bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<12} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>7.2}% {:>7.2}%  {verdict}",
                spec.name,
                m.name,
                x.median,
                y.median,
                change * 100.0,
                x.spread() * 100.0,
                y.spread() * 100.0
            );
        }
    }
    let fp = |rows: &[Row]| -> BTreeMap<String, String> {
        rows.iter()
            .filter(|r| r.name == "virt_fingerprint")
            .map(|r| (r.run_key.clone(), r.value.clone()))
            .collect()
    };
    let (fa, fb) = (fp(&ra), fp(&rb));
    for (run, x) in &fa {
        if fb.get(run).is_some_and(|y| y != x) {
            println!("model output changed: {run}: {x} -> {}", fb[run]);
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a set: `reps` untraced runs of every workload in rotating order,
/// so that no workload's repeats sit back to back, then one traced run
/// of each; every run is a fresh process, because peak RSS and set-up
/// time belong to a process. Ends with [`summarize`].
pub fn run_set(quick: bool, reps: u64, seed: u64, seconds: u64, label: &str) -> ExitCode {
    let reps = if quick { 1 } else { reps };
    let path = format!("{}/{label}.tsv", crate::OUT_DIR);
    std::fs::create_dir_all(crate::OUT_DIR).expect("benchmark/out is writable");
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().expect("own path");
    let mut plan: Vec<(&str, u8)> = Vec::new();
    for rep in 0..reps as usize {
        plan.extend((0..SPECS.len()).map(|i| (SPECS[(i + rep) % SPECS.len()].name, 0)));
    }
    plan.extend(SPECS.iter().map(|s| (s.name, 1)));
    let mut failed = false;
    for (i, (workload, trace)) in plan.iter().enumerate() {
        eprintln!("[{}/{}] {workload} trace={trace}", i + 1, plan.len());
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--trace",
                &trace.to_string(),
                "--record",
                &path,
            ])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(if quick { &["--setups", "1"][..] } else { &[] })
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        if !out.status.success() {
            failed = true;
            print!("{}", String::from_utf8_lossy(&out.stdout));
        }
    }
    println!("# set `{label}`: {reps} untraced runs and one traced run per workload, seed {seed}, --seconds {seconds}");
    println!(
        "# nproc {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if quick {
        println!("# QUICK RUN: windows are a tenth of the real ones. NOT FOR COMPARISON.");
    }
    let code = summarize(&path);
    println!(
        "# recorded in {path}; spans in {}/trace-<workload>.json",
        crate::OUT_DIR
    );
    if failed {
        ExitCode::FAILURE
    } else {
        code
    }
}
