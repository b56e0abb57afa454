//! The traced run: the per-layer half of the benchmark.
//!
//! Separate from the untraced runs that produce the end-to-end metrics.
//! It runs the workload three ways over one shortened window: untraced
//! (the count metrics, and the reference time), traced (the simulator
//! stepped in fixed slices, the applications inside the span decorator),
//! and layer by layer through the drivers. The report then asks how much
//! of the untraced host time per message the layers account for.

use std::rc::Rc;
use std::time::Instant;

use crate::drivers;
use crate::report::{median, PER_LAYER};
use crate::run::{self, metric, Metric, Pass};
use crate::trace::{Recorder, Tally};
use crate::workloads::{Bare, Spans, Spec};

/// Virtual length of one `sim.run` slice.
const SLICE_NS: u64 = 100_000;
/// The traced window is this fraction of the untraced runs' window: two
/// passes and the drivers must fit in the time of one untraced run.
const WINDOW_DIVISOR: u64 = 10;

/// Result of a traced run.
pub struct TracedRun {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// The untraced pass, carrying both passes' violations.
    pub untraced: Pass,
}

/// Runs the traced run of `spec` and writes its spans to
/// `benchmark/out/trace-<workload>.json`.
pub fn run(spec: &'static Spec, seed: u64, window_ns: u64, started: Instant) -> TracedRun {
    let window_ns = (window_ns / WINDOW_DIVISOR).max(SLICE_NS);
    let seconds = (window_ns / spec.virt_ns_per_s).max(1);

    let mut plain = run::pass(spec, seed, window_ns, &Bare, started, |tb, until| {
        tb.run_until_ns(until)
    });

    let rec = Recorder::new();
    let spans = Spans {
        rec: rec.clone(),
        server: Rc::new(Tally::default()),
        client: Rc::new(Tally::default()),
        check_zero: spec.msg_bytes().is_some(),
    };
    let traced = run::pass(
        spec,
        seed,
        window_ns,
        &spans,
        Instant::now(),
        |tb, until| {
            rec.borrow_mut().enable(true);
            let mut now = tb.sim.now().as_nanos();
            while now < until {
                now = (now + SLICE_NS).min(until);
                let before = tb.sim.events_executed();
                let id = rec.borrow_mut().begin("sim.run");
                tb.run_until_ns(now);
                let events = tb.sim.events_executed() - before;
                rec.borrow_mut().end(id, events as u32);
            }
            rec.borrow_mut().enable(false);
        },
    );

    // The decorator and the slicing must not change what is simulated.
    if traced.fingerprint != plain.fingerprint {
        plain.violations.push(format!(
            "traced pass simulated something else: fingerprint {:016x}, untraced {:016x}",
            traced.fingerprint, plain.fingerprint
        ));
    }
    plain.violations.extend(
        traced
            .violations
            .iter()
            .map(|v| format!("traced pass: {v}")),
    );
    let (srv, cli) = (&spans.server, &spans.client);
    if srv.conn_failures.get() + cli.conn_failures.get() > 0 {
        plain
            .violations
            .push("a connection failed inside the traced pass".into());
    }
    if let Some(msg_bytes) = spec.msg_bytes() {
        let want = traced.end.msgs * msg_bytes;
        for (side, t) in [("server", srv), ("client", cli)] {
            if t.bytes_in.get() != want || t.nonzero_in.get() != 0 {
                plain.violations.push(format!(
                    "{side} applications received {} bytes ({} not zero), {want} zero bytes were echoed",
                    t.bytes_in.get(),
                    t.nonzero_in.get()
                ));
            }
        }
    }

    rec.borrow_mut().enable(true);
    let layers = drivers::run(spec, seed, seconds, &plain, &rec);

    let r = rec.borrow();
    let (slices, server, client) = (
        r.total("sim.run"),
        r.total("apps.server"),
        r.total("apps.client"),
    );
    let mut durations: Vec<f64> = r
        .durations("sim.run")
        .into_iter()
        .map(|d| d as f64)
        .collect();
    let p50 = median(&mut durations);
    let p99 = durations[(durations.len() * 99 / 100).min(durations.len() - 1)];
    let m = traced.msgs.max(1) as f64;
    let get = |name: &str| {
        layers
            .metrics
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };

    // How much of the untraced host time per message the layers explain.
    // Operations per message are the untraced pass's own counts.
    let (b, a) = (&plain.before, &plain.after);
    let msgs = plain.msgs.max(1) as f64;
    let frames = (a.wire_frames - b.wire_frames) as f64 / msgs;
    let conns = (a.tcp.conns_accepted - b.tcp.conns_accepted) as f64 / msgs;
    let cycles = (a.dp.iterations - b.dp.iterations) as f64 / msgs;
    let events = (a.sim.executed - b.sim.executed) as f64 / msgs;
    let app_server = server.self_ns as f64 / m;
    let app_client = client.self_ns as f64 / m;
    let attributed = get("tcp.input_ns_per_frame")
        * (frames - layers.frames_per_conn * conns).max(0.0)
        + get("tcp.send_ns_per_msg") * 2.0
        + (get("tcp.end_cycle_ns_per_cycle") + get("tcp.timers_ns_per_cycle")) * cycles
        + get("tcp.open_close_ns_per_conn") * conns
        + (get("nic.ring_ns_per_frame") + get("nic.fabric_ns_per_frame")) * frames
        + get("sim.engine_ns_per_event")
            * (events - layers.fabric_events_per_frame * frames).max(0.0)
        + app_server
        + app_client;
    println!(
        "# per message: {frames:.2} wire frames, {conns:.4} connections, {cycles:.3} server cycles, {events:.2} events; \
         {:.0} of {:.0} host ns attributed; {} slices of {} virtual us",
        attributed,
        plain.host_ns_per_msg(),
        slices.spans,
        SLICE_NS / 1000
    );

    let mut metrics = plain.counts();
    metrics.push(metric("apps.server_ns_per_msg", app_server, "ns"));
    metrics.push(metric("apps.client_ns_per_msg", app_client, "ns"));
    metrics.push(metric(
        "sim.run_ns_per_event",
        slices.ns as f64 / slices.ops.max(1) as f64,
        "ns",
    ));
    metrics.extend(layers.metrics);
    metrics.push(metric(
        "other.unattributed_ns_per_msg",
        plain.host_ns_per_msg() - attributed,
        "ns",
    ));
    metrics.push(metric(
        "other.trace_overhead_pct",
        (traced.host_s - plain.host_s) / plain.host_s * 100.0,
        "%",
    ));
    metrics.push(metric("other.slice_p99_over_p50", p99 / p50, "1"));
    assert!(
        metrics.len() == PER_LAYER.len()
            && metrics
                .iter()
                .zip(PER_LAYER)
                .all(|(m, t)| m.name == t.0 && m.unit == t.1),
        "the traced run reports exactly the per-layer table, in its order"
    );

    let path = std::path::Path::new(crate::OUT_DIR).join(format!("trace-{}.json", spec.name));
    r.write_json(&path, spec.name)
        .expect("span file is writable");
    println!("# {} spans written to {}", r.spans().len(), path.display());
    TracedRun {
        metrics,
        untraced: plain,
    }
}
