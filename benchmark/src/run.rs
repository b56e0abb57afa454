//! One pass over a workload: set-up, the timed window, the drain, the
//! correctness checks, and the count metrics.
//!
//! The benchmark owns the loop, so the three phases are separate:
//! *set-up* builds the testbed and simulates the connection ramp and the
//! warm-up; the *window* is a fixed stretch of virtual time simulated
//! under a host stopwatch and the allocation counter; the *drain* lets
//! replies in flight arrive so that every message can be accounted for.

use std::time::Instant;

use ix_apps::harness::Testbed;

use crate::alloc;
use crate::workloads::{assemble, App, Bench, Counters, Spec, Wrap, DRAIN_NS};

/// A value with its name and unit, as printed and recorded.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when nothing was counted.
pub fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What one pass measured.
pub struct Pass {
    /// Host seconds this pass spent before its window opened.
    pub setup_s: f64,
    /// Host seconds spent simulating the window.
    pub host_s: f64,
    /// Messages the clients completed inside the window.
    pub msgs: u64,
    /// Heap allocations inside the window.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Virtual length of the window, ns.
    pub window_ns: u64,
    /// Counters when the window opened.
    pub before: Counters,
    /// Counters when the window closed.
    pub after: Counters,
    /// Counters after the drain.
    pub end: Counters,
    /// Window latency: `(samples, p50, p99, max, mean)`, virtual ns.
    pub latency: (u64, u64, u64, u64, u64),
    /// Operations that failed, each kind explained in `violations`.
    pub failed: u64,
    /// Why the pass is not correct; empty when it is.
    pub violations: Vec<String>,
    /// Hash of the virtual-clock outputs (see [`fingerprint`]).
    pub fingerprint: u64,
}

/// Builds the testbed and simulates up to the start of the window.
pub fn set_up<W: Wrap>(spec: &'static Spec, seed: u64, window_ns: u64, wrap: &W) -> Bench {
    let mut bench = assemble(spec, seed, window_ns, wrap);
    bench.tb.run_until_ns(bench.window_start);
    bench
}

/// Runs one pass. `started` is when this pass's set-up began (process
/// start for the first one); `advance` simulates up to the given virtual
/// instant — in one call when untraced, in recorded slices when traced.
pub fn pass<W: Wrap>(
    spec: &'static Spec,
    seed: u64,
    window_ns: u64,
    wrap: &W,
    started: Instant,
    mut advance: impl FnMut(&mut Testbed, u64),
) -> Pass {
    let mut bench = set_up(spec, seed, window_ns, wrap);
    bench.open_window();
    let conns_at_start = bench.server_conns();
    let before = bench.counters();
    let setup_s = started.elapsed().as_secs_f64();

    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    advance(&mut bench.tb, bench.window_end);
    let host_s = t0.elapsed().as_secs_f64();
    let a1 = alloc::snapshot();
    let (allocs, alloc_bytes) = (a1.allocs - a0.allocs, a1.bytes - a0.bytes);
    let after = bench.counters();
    let latency = bench.with_latency(|h| {
        (
            h.count(),
            h.quantile(0.5).as_nanos(),
            h.p99().as_nanos(),
            h.max().as_nanos(),
            h.mean().as_nanos(),
        )
    });

    // Drain in 1 ms steps until every message is accounted for.
    let mut now = bench.window_end;
    while !settled(&bench) && now < bench.window_end + DRAIN_NS {
        now += 1_000_000;
        bench.tb.run_until_ns(now);
    }
    let end = bench.counters();
    let msgs = after.msgs - before.msgs;
    let mut violations = Vec::new();
    let mut failed = 0u64;
    let mut fail = |n: u64, what: String| {
        if n > 0 {
            failed += n;
            violations.push(what);
        }
    };
    let lost = unaccounted(&bench, &end);
    fail(
        lost,
        format!(
            "{lost} messages sent but not completed by the drain deadline, or of the wrong length"
        ),
    );
    let shed = bench.shed();
    fail(shed, format!("{shed} requests shed by the load generator"));
    fail(
        end.tcp.rst_tx,
        format!("{} connections reset by the server", end.tcp.rst_tx),
    );
    if let Some(want) = expected_conns(spec) {
        let missing = want.saturating_sub(conns_at_start);
        fail(
            missing,
            format!("{conns_at_start} of {want} connections established when the window opened"),
        );
    }
    for (n, what) in [
        (end.tcp.retransmits, "tcp.retransmits"),
        (end.ring_drops, "nic.rx_ring_drops"),
        (end.dp.tx_ring_drops, "the dataplane's tx_ring_drops"),
        (end.pool.exhausted, "mempool.exhausted"),
        (end.tcp.parse_drops, "tcp.parse_drops"),
    ] {
        if n > 0 {
            violations.push(format!("{what} = {n} on a lossless fabric"));
        }
    }
    if msgs == 0 {
        violations.push("no message completed inside the window".into());
    }

    let fingerprint = fingerprint(msgs, latency, &before, &after);
    Pass {
        setup_s,
        host_s,
        msgs,
        allocs,
        alloc_bytes,
        window_ns,
        before,
        after,
        end,
        latency,
        failed,
        violations,
        fingerprint,
    }
}

/// Connections the server must hold when the window opens, for the
/// workloads whose connections persist. `echo_churn` closes every
/// connection after one message, so its count is always in flux.
fn expected_conns(spec: &Spec) -> Option<u64> {
    match spec.app {
        App::Echo { n_per_conn: 1, .. } => None,
        App::Echo { .. } | App::Rotating { .. } => Some(spec.conns as u64),
        App::KvEtc { .. } => Some(spec.conns as u64 + 1),
    }
}

/// Messages the server handled that no client completed, or the reverse.
/// Zero once every reply has arrived with the right number of bytes.
fn unaccounted(bench: &Bench, c: &Counters) -> u64 {
    match bench.spec.msg_bytes() {
        // Echo: every completed message is `bytes` in and `bytes` out at
        // the server, and the server holds nothing back.
        Some(bytes) => {
            let want = c.msgs * bytes;
            (c.tcp.bytes_rx.abs_diff(want) + c.tcp.bytes_tx.abs_diff(want)).div_ceil(bytes)
        }
        // KV: one store operation per request completed, by the load
        // clients or by the unloaded agent.
        None => c.kv.0.abs_diff(c.msgs + c.agent),
    }
}

fn settled(bench: &Bench) -> bool {
    unaccounted(bench, &bench.counters()) == 0
}

/// A hash over everything the virtual clock decides: the window's
/// message count, its latency distribution, the server's CPU split and
/// its aggregated TCP counters. The simulation is deterministic, so two
/// runs of one commit with one seed must agree on it bit for bit; between
/// commits it says "the model's output changed", which is worth knowing
/// and is not a regression.
fn fingerprint(
    msgs: u64,
    latency: (u64, u64, u64, u64, u64),
    before: &Counters,
    after: &Counters,
) -> u64 {
    let text = format!(
        "{msgs} {latency:?} {:?} {:?} {:?} {:?}",
        before.cpu, after.cpu, before.tcp, after.tcp
    );
    // FNV-1a.
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Pass {
    /// The per-layer count metrics: deltas over the window of what the
    /// public stat structs count, plus the high-water marks at its end.
    pub fn counts(&self) -> Vec<Metric> {
        let (b, a, m) = (&self.before, &self.after, self.msgs);
        let scheduled = a.sim.scheduled - b.sim.scheduled;
        let iters = a.dp.iterations - b.dp.iterations;
        let tx_segs = a.tcp.tx_segments - b.tcp.tx_segments;
        let kv_ops = a.kv.0 - b.kv.0;
        vec![
            metric(
                "sim.events_per_msg",
                per(a.sim.executed - b.sim.executed, m),
                "1",
            ),
            metric(
                "sim.cancels_per_msg",
                per(a.sim.cancelled - b.sim.cancelled, m),
                "1",
            ),
            metric(
                "sim.far_insert_share",
                per(a.sim.far_inserts - b.sim.far_inserts, scheduled),
                "1",
            ),
            metric("sim.pending_hwm", a.sim.pending_high_water as f64, "count"),
            metric(
                "nic.frames_per_msg",
                per(a.srv_frames - b.srv_frames, m),
                "1",
            ),
            metric("nic.bytes_per_msg", per(a.srv_bytes - b.srv_bytes, m), "B"),
            metric("nic.rx_ring_drops", self.end.ring_drops as f64, "count"),
            metric(
                "mempool.allocs_per_msg",
                per(a.pool.allocs - b.pool.allocs, m),
                "1",
            ),
            metric(
                "mempool.peak_outstanding",
                a.pool.peak_outstanding as f64,
                "count",
            ),
            metric("mempool.exhausted", self.end.pool.exhausted as f64, "count"),
            metric(
                "tcp.rx_segs_per_msg",
                per(a.tcp.rx_segments - b.tcp.rx_segments, m),
                "1",
            ),
            metric("tcp.tx_segs_per_msg", per(tx_segs, m), "1"),
            metric(
                "tcp.conns_per_kmsg",
                per((a.tcp.conns_accepted - b.tcp.conns_accepted) * 1000, m),
                "1",
            ),
            metric("tcp.retransmits", self.end.tcp.retransmits as f64, "count"),
            metric("tcp.parse_drops", self.end.tcp.parse_drops as f64, "count"),
            metric(
                "tcp.tx_payload_writes_per_seg",
                per(a.tcp.tx_payload_writes - b.tcp.tx_payload_writes, tx_segs),
                "1",
            ),
            metric(
                "tcp.rx_payload_copies",
                (a.tcp.rx_payload_copies - b.tcp.rx_payload_copies) as f64,
                "count",
            ),
            metric(
                "tcp.tcb_bytes_per_conn",
                per(a.flows.bytes as u64, a.flows.live as u64),
                "B",
            ),
            metric("tcp.slab_slots_hwm", a.flows.slab_slots as f64, "count"),
            metric(
                "core.avg_batch",
                per(a.dp.batch_sum - b.dp.batch_sum, iters),
                "1",
            ),
            metric(
                "core.full_batch_share",
                per(a.dp.full_batches - b.dp.full_batches, iters),
                "1",
            ),
            metric("core.cycles_per_msg", per(iters, m), "1"),
            metric(
                "core.events_per_msg",
                per(a.dp.events - b.dp.events, m),
                "1",
            ),
            metric(
                "core.syscalls_per_msg",
                per(a.dp.syscalls - b.dp.syscalls, m),
                "1",
            ),
            metric(
                "core.scratch_allocs",
                (a.dp.scratch_allocs - b.dp.scratch_allocs) as f64,
                "count",
            ),
            metric(
                "core.virt_kernel_ns_per_msg",
                per(a.cpu.0 - b.cpu.0, m),
                "ns",
            ),
            metric("core.virt_user_ns_per_msg", per(a.cpu.1 - b.cpu.1, m), "ns"),
            metric(
                "apps.virt_msgs_per_s",
                m as f64 * 1e9 / self.window_ns as f64,
                "1/s",
            ),
            metric("apps.virt_rtt_p50_ns", self.latency.1 as f64, "ns"),
            metric("apps.virt_rtt_p99_ns", self.latency.2 as f64, "ns"),
            metric(
                "apps.kv_lock_wait_virt_ns_per_op",
                per(a.kv.1 - b.kv.1, kv_ops),
                "ns",
            ),
        ]
    }

    /// Operations attempted: completed plus failed.
    pub fn attempted(&self) -> u64 {
        self.msgs + self.failed
    }

    /// Host nanoseconds per message over the window.
    pub fn host_ns_per_msg(&self) -> f64 {
        self.host_s * 1e9 / self.msgs.max(1) as f64
    }
}
