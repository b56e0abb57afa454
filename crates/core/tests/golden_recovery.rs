//! Golden recovery trace: one TCP connection hit by two scripted,
//! RNG-free frame drops ([`ix_faults::LinkFaults::scripted_drops`]) and
//! recovering through both loss-recovery mechanisms in sequence —
//! first a retransmission **timeout** on a lone 16-byte segment (no
//! duplicate ACKs possible), then a **fast retransmit** when the first
//! segment of an 8×MSS burst is dropped and the trailing segments
//! generate duplicate ACKs. The `(simulated-time, event)` sequence is
//! pinned; any change to RTO arithmetic, dup-ACK detection, the fault
//! plane's hook order, or the recovery counters shows up as a diff.
//!
//! If a deliberate change shifts the trace, re-pin it from the test's
//! failure output — but explain the shift in the commit message.

use std::cell::RefCell;
use std::rc::Rc;

use ix_apps::harness::{EngineTuning, System, Testbed};
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_faults::{FaultPlan, LinkFaults};
use ix_sim::Nanos;
use ix_tcp::{DeadReason, StackConfig, StackStats};
use ix_testkit::Bytes;

const MSG: usize = 16;
/// Burst sized so the drop of its first segment leaves seven trailing
/// segments — more than the three duplicate ACKs fast retransmit needs.
const BURST: usize = 8 * 1460;

type Trace = Rc<RefCell<Vec<(u64, String)>>>;

fn record(trace: &Trace, now: u64, event: impl Into<String>) {
    trace.borrow_mut().push((now, event.into()));
}

/// Server: echo everything, record accept/teardown.
struct TraceServer {
    trace: Trace,
}

impl LibixHandler for TraceServer {
    fn on_accept(&mut self, ctx: &mut ConnCtx<'_>) {
        record(&self.trace, ctx.now_ns, "server: accept");
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let reply = Bytes::copy_from_slice(data);
        assert!(ctx.write(reply));
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        record(&self.trace, ctx.now_ns, format!("server: dead({reason:?})"));
    }
}

/// Client: one 16-byte echo (its request frame is scripted to drop, so
/// it completes via RTO), then one 8×MSS echo (its first segment is
/// scripted to drop, so it completes via fast retransmit), then close.
struct TraceClient {
    server: ix_net::Ipv4Addr,
    started: bool,
    got: usize,
    trace: Trace,
}

impl LibixHandler for TraceClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, 9000, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        record(&self.trace, ctx.now_ns, "client: connected");
        assert!(ctx.write(Bytes::from(vec![0x5au8; MSG])));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let before = self.got;
        self.got += data.len();
        assert!(self.got <= MSG + BURST, "over-delivery at {}", self.got);
        if before < MSG && self.got >= MSG {
            record(&self.trace, ctx.now_ns, "client: echo#1 complete");
            assert!(ctx.write(Bytes::from(vec![0xa5u8; BURST])));
        }
        if self.got == MSG + BURST {
            record(&self.trace, ctx.now_ns, "client: echo#2 complete");
            ctx.close();
        }
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        record(&self.trace, ctx.now_ns, format!("client: dead({reason:?})"));
    }

    fn wants_tick(&self, _now: u64) -> bool {
        !self.started
    }
}

/// A stack tuned so both recovery paths are reachable: a short RTO
/// floor keeps the timeout episode inside the run window, and a large
/// scaled receive window keeps the advertised-window field saturated at
/// the 16-bit cap so out-of-order arrivals do not perturb it (the
/// dup-ACK test requires an unchanged window).
fn config() -> StackConfig {
    let mut cfg = StackConfig::low_latency();
    cfg.recv_window = 1_000_000;
    cfg.window_scale = 2;
    cfg
}

/// Runs the scenario with the given scripted drops (per-link frame
/// indices on the client's cable) and returns the recorded trace plus
/// the client-side stack stats.
fn run_scenario(drops: &[u64]) -> (Vec<(u64, String)>, StackStats) {
    let mut tb = Testbed::new(7, 1, 1);
    let trace: Trace = Rc::new(RefCell::new(Vec::new()));

    let client_port = tb.fabric.host_port(tb.clients[0], 0);
    let plan = FaultPlan::new(1).with_link(
        client_port,
        LinkFaults { scripted_drops: drops.to_vec(), ..LinkFaults::default() },
    );
    tb.fabric.install_faults(plan);

    let tuning = EngineTuning { stack: config(), ..EngineTuning::default() };
    tb.launch_server(System::Ix, 1, &tuning, 9000, |_| TraceServer { trace: trace.clone() });
    let server_ip = tb.server_ip();
    let client = tb.launch_client(tb.clients[0], System::Ix, 1, &tuning, |_| TraceClient {
        server: server_ip,
        started: false,
        got: 0,
        trace: trace.clone(),
    });
    tb.run_until_ns(Nanos::from_millis(80).as_nanos());

    let recorded = trace.borrow().clone();
    (recorded, client.tcp_stats())
}

/// Per-link frame indices (both directions of the client's cable) of
/// the two scripted drops, pinned from an unfaulted run's frame order:
/// index 3 is the client's lone 16-byte request (frames 0–2 are the
/// handshake), index 13 is the first segment of the 8×MSS burst.
const DROPS: [u64; 2] = [3, 13];

#[test]
fn rto_then_fast_retransmit_matches_golden_trace() {
    let (got, stats) = run_scenario(&DROPS);
    let rendered: Vec<String> = got.iter().map(|(t, e)| format!("{t} {e}")).collect();
    // Pinned from a run at the current engine parameters. Notable
    // checkpoints: the handshake completes unfaulted (drops start at
    // frame index 3); echo#1 lands at ~1.03 ms — dominated by the ~1 ms
    // RTO floor the dropped request had to wait out; echo#2 lands only
    // ~105 µs later despite its own head-of-burst drop, because dup
    // ACKs triggered fast retransmit within round-trip time.
    let golden = [
        "10830 client: connected",
        "16893 server: accept",
        "1031935 client: echo#1 complete",
        "1136986 client: echo#2 complete",
        "1143012 server: dead(PeerFin)",
    ];
    assert_eq!(
        rendered,
        golden,
        "\ntrace diverged from golden; actual:\n{}",
        rendered.join("\n")
    );
    // Episode 1: the lone 16 B segment can only recover by timeout.
    assert_eq!(stats.rto_fires, 1, "stats: {stats:?}");
    // Episode 2: the burst's trailing segments produce dup ACKs and the
    // head is fast-retransmitted without waiting for the RTO (the
    // dup-ACK counter re-arms once during the episode, so the counter
    // reads 2 for this single loss).
    assert_eq!(stats.fast_retransmits, 2, "stats: {stats:?}");
    // Recovery episodes are measured from the loss *signal* (RTO fire
    // or dup-ACK trip) to the cumulative ACK that covers the recovery
    // point, so both episodes close within round-trip times — orders of
    // magnitude under the ~1 ms RTO floor the first loss waited out.
    assert!(
        stats.max_recovery_ns > 0
            && stats.max_recovery_ns < Nanos::from_micros(200).as_nanos(),
        "stats: {stats:?}"
    );
}

#[test]
fn recovery_trace_is_reproducible() {
    assert_eq!(run_scenario(&DROPS), run_scenario(&DROPS));
}

#[test]
fn no_drops_means_no_recovery_counters() {
    let (_, stats) = run_scenario(&[]);
    assert_eq!(stats.rto_fires, 0);
    assert_eq!(stats.fast_retransmits, 0);
    assert_eq!(stats.max_recovery_ns, 0);
}
