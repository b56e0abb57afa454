//! End-to-end robustness under randomized fault mixes: NetPIPE and
//! key-value transfers must complete with byte-identical payloads under
//! Bernoulli loss up to 5% and single link flaps. TCP's loss recovery
//! (RTO, fast retransmit) is what makes that true; these properties
//! exercise it through the whole stack — application, dataplane, NIC
//! rings, faulted switch — with every fault mix drawn from the seeded
//! property harness, so a failing mix reproduces from the test name.
//!
//! The fault-mix strategy is also the workspace's first user of the
//! `prop_filter` and weighted `prop_oneof!` combinators.

use std::cell::RefCell;
use std::rc::Rc;

use ix::apps::harness::{run, EngineTuning, Scenario};
use ix::apps::kvstore::{KvServer, SharedStore};
use ix::apps::workload::proto;
use ix::baselines::linux::{LinuxHost, LinuxParams};
use ix::core::dataplane::Dataplane;
use ix::core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix::core::params::CostParams;
use ix::faults::{FaultPlan, LinkFaults};
use ix::nic::fabric::Fabric;
use ix::nic::params::MachineParams;
use ix::sim::{Nanos, SimTime, Simulator};
use ix::tcp::StackConfig;
use ix::testkit::prop::Strategy;
use ix::testkit::{props, Bytes};

/// One randomized fault to aim at a cable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultMix {
    /// Independent per-frame loss, in permille (≤ 50 = 5%).
    Loss { permille: u64 },
    /// A single link flap: down for `len_us` starting at `start_us`.
    Flap { start_us: u64, len_us: u64 },
}

impl FaultMix {
    fn link_faults(&self) -> LinkFaults {
        match *self {
            FaultMix::Loss { permille } => LinkFaults {
                loss: permille as f64 / 1000.0,
                ..LinkFaults::default()
            },
            FaultMix::Flap { start_us, len_us } => LinkFaults {
                down_windows: vec![(start_us * 1000, (start_us + len_us) * 1000)],
                ..LinkFaults::default()
            },
        }
    }
}

/// Draws a fault mix: mostly Bernoulli loss (the common case the 5%
/// bound is about), sometimes a flap. The flap arm uses `prop_filter`
/// to keep the outage inside the first 22 ms so every drawn mix leaves
/// the run time to recover.
fn fault_mix() -> impl Strategy<Value = FaultMix> {
    ix::testkit::prop_oneof![
        3 => (1u64..=50).prop_map(|permille| FaultMix::Loss { permille }),
        1 => (0u64..=20_000, 500u64..=4_000)
            .prop_filter("flap ends inside the run", |&(s, l)| s + l <= 22_000)
            .prop_map(|(start_us, len_us)| FaultMix::Flap { start_us, len_us }),
    ]
}

/// A stack tuned so loss recovery happens on millisecond timescales:
/// the default 200 ms RTO floor would dominate the simulated budget.
fn tuning() -> EngineTuning {
    EngineTuning { stack: StackConfig::low_latency(), ..EngineTuning::default() }
}

props! {
    #![config(cases = 10)]
    #[test]
    fn netpipe_completes_under_fault_mix(mix in fault_mix(), seed in 1u64..1_000) {
        let base = Scenario::netpipe(256, 30);
        let faults = FaultPlan::new(seed ^ 0xfa17).with_link(base.client_port(0), mix.link_faults());
        let r = run(&Scenario { tuning: tuning(), seed, measure: Nanos::from_millis(3_000), faults, ..base });
        // The transfer must complete in full: NetPIPE only reports
        // `done` when every rep echoed all 256 bytes both ways.
        assert!(
            r.done,
            "NetPIPE stalled under {mix:?} (seed {seed}): {} reps, faults {:?}",
            r.messages, r.faults
        );
        assert_eq!(r.messages, 30);
        // Anything the wire dropped was repaired by a retransmission.
        let retx = r.tcp.retransmits + r.client_tcp.retransmits;
        let dropped = r.faults.dropped_total();
        assert!(
            dropped == 0 || retx > 0,
            "{dropped} frames dropped but no retransmissions under {mix:?}"
        );
    }
}

/// Issues SET(key)=payload then GET(key) on a second connection and
/// records what came back.
struct SetGetClient {
    server: ix::net::Ipv4Addr,
    payload: Vec<u8>,
    phase: u8,
    rx: Vec<u8>,
    got: Rc<RefCell<Option<Vec<u8>>>>,
    started: bool,
}

impl LibixHandler for SetGetClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, 11211, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok);
        let (op, seq) = if self.phase == 0 { (proto::OP_SET, 1) } else { (proto::OP_GET, 2) };
        let req = proto::encode_request(op, seq, b"the-key", &self.payload);
        ctx.write(Bytes::from(req));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.rx.extend_from_slice(data);
        let Some(h) = proto::decode_response_header(&self.rx) else { return };
        if self.rx.len() < h.total_len() {
            return;
        }
        assert_eq!(h.status, proto::ST_OK);
        let body = self.rx[proto::RSP_HDR..h.total_len()].to_vec();
        self.rx.clear();
        if self.phase == 0 {
            // SET acknowledged; reconnect for the GET so the value
            // crosses connections.
            self.phase = 1;
            ctx.close();
            self.started = false;
        } else {
            *self.got.borrow_mut() = Some(body);
            ctx.close();
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        !self.started
    }
}

/// SET then GET of a multi-segment value through a faulted cable; the
/// GET must return the SET payload verbatim.
fn kv_roundtrip_faulted(mix: &FaultMix, seed: u64) -> (Option<Vec<u8>>, Vec<u8>) {
    let mut sim = Simulator::new(seed);
    let mut fabric = Fabric::new(4, MachineParams::default());
    let server = fabric.add_host(1, 4, 0);
    let client = fabric.add_host(1, 2, 0);
    let client_port = fabric.host_port(client, 0);
    fabric.install_faults(
        FaultPlan::new(seed ^ 0x6b76).with_link(client_port, mix.link_faults()),
    );
    let server_ip = fabric.host(server).ip;
    let store = SharedStore::new();
    let st = store.clone();
    let cfg = StackConfig::low_latency();
    let sdp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        4,
        CostParams::default(),
        cfg.clone(),
        Some(11211),
        move |_| Box::new(Libix::new(KvServer::new(st.clone()))),
    );
    // A payload spanning several TCP segments, so loss can hit the
    // middle of a burst.
    let payload: Vec<u8> = (0..10_000).map(|i| (i * 31 % 251) as u8).collect();
    let got: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    let (g2, p2) = (got.clone(), payload.clone());
    let lh = LinuxHost::launch(
        &mut sim,
        fabric.host(client),
        1,
        LinuxParams::default(),
        cfg,
        None,
        move |_| {
            Box::new(Libix::new(SetGetClient {
                server: server_ip,
                payload: p2.clone(),
                phase: 0,
                rx: Vec::new(),
                got: g2.clone(),
                started: false,
            }))
        },
    );
    sdp.seed_arp(fabric.host(client).ip, fabric.host(client).mac);
    lh.seed_arp(server_ip, fabric.host(server).mac);
    sim.run_until(SimTime(Nanos::from_millis(3_000).as_nanos()));
    let out = got.borrow().clone();
    (out, payload)
}

props! {
    #![config(cases = 10)]
    #[test]
    fn kv_value_roundtrips_byte_identically_under_fault_mix(
        mix in fault_mix(),
        seed in 1u64..1_000,
    ) {
        let (got, payload) = kv_roundtrip_faulted(&mix, seed);
        assert_eq!(
            got.as_deref(),
            Some(&payload[..]),
            "GET bytes diverged from SET under {mix:?} (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// IXCP queue-hang watchdog: detection, re-steer, recovery.
// ---------------------------------------------------------------------

use ix::core::ixcp::WatchdogStats;
use ix::faults::NicFaults;

/// A server NIC whose RX queue 0 stops draining at 10 ms and never
/// recovers on its own — recovery can only come from the control plane
/// re-steering that queue's flow groups.
fn hang_plan(server_port: u16) -> FaultPlan {
    let mut nic = NicFaults::default();
    nic.rx_hangs.insert(0, vec![(10_000_000, u64::MAX)]);
    FaultPlan::new(1).with_nic(server_port, nic)
}

#[test]
fn watchdog_resteers_hung_queue_and_traffic_recovers() {
    let base = Scenario::fault_recovery();
    let r = run(&Scenario {
        // Four server cores: the three healthy threads have the CPU
        // headroom to absorb the hung queue's flow groups (re-steering
        // onto a saturated core could never reach the threshold).
        watchdog: Some(Nanos::from_millis(1)),
        // Frames wedged in the hung ring are discarded at re-steer and
        // recovered by client retransmission — which must fit in the
        // 40 ms run, hence the millisecond RTO floor.
        tuning: tuning(),
        faults: hang_plan(base.server_port()),
        ..base
    });
    let w: WatchdogStats = r.watchdog.expect("watchdog ran");
    assert!(w.scans > 0, "watchdog never scanned: {w:?}");
    assert!(w.hangs_detected >= 1, "hang not detected: {w:?}");
    assert!(w.buckets_resteered > 0, "no RSS buckets re-steered: {w:?}");
    assert!(w.flows_migrated > 0, "no flows migrated off the hung queue: {w:?}");
    // The dip is real (a quarter of the flow groups stall until the
    // watchdog acts) but traffic must be back above 80% of baseline by
    // the end of the run.
    assert!(!r.stalled, "traffic never recovered: {r:?}");
    assert!(
        r.faults.nics.values().any(|n| n.rx_hang_skips > 0),
        "hang plan never suppressed a poll: {:?}",
        r.faults
    );
}

/// Two server RX queues (0 and 1) wedge at the same instant and never
/// recover on their own.
fn double_hang_plan(server_port: u16) -> FaultPlan {
    let mut nic = NicFaults::default();
    nic.rx_hangs.insert(0, vec![(10_000_000, u64::MAX)]);
    nic.rx_hangs.insert(1, vec![(10_000_000, u64::MAX)]);
    FaultPlan::new(1).with_nic(server_port, nic)
}

/// Two queues hang in the same watchdog period. The single-pass
/// re-steer must exclude BOTH from the healthy set: re-steering them
/// one detection at a time used to rotate part of queue 0's buckets
/// onto still-hung queue 1 (and vice versa), leaving those flow groups
/// in a second black hole and the run permanently below the recovery
/// threshold.
#[test]
fn watchdog_resteers_two_simultaneously_hung_queues_in_one_pass() {
    let base = Scenario::fault_recovery();
    let r = run(&Scenario {
        // Six cores: with two wedged, four healthy threads remain to
        // absorb the re-steered flow groups with CPU headroom.
        server_cores: 6,
        watchdog: Some(Nanos::from_millis(1)),
        tuning: tuning(),
        faults: double_hang_plan(base.server_port()),
        ..base
    });
    let w: WatchdogStats = r.watchdog.expect("watchdog ran");
    // Exactly one detection per hung queue: the single pass must fully
    // resolve both. Re-detections on later ticks are the signature of
    // the old bug — buckets parked on a queue the same scan already
    // knew was wedged (the per-detection code reported 6 here, plus
    // extra bucket moves and discarded frames for every bounce).
    assert_eq!(w.hangs_detected, 2, "each hang detected once, resolved in one pass: {w:?}");
    assert!(w.buckets_resteered > 0, "no RSS buckets re-steered: {w:?}");
    assert!(w.flows_migrated > 0, "no flows migrated off the hung queues: {w:?}");
    assert!(
        !r.stalled,
        "traffic never recovered from the double hang; dip {:.2}, windows {:?}",
        r.dip_frac, r.rx_windows
    );
}

#[test]
fn without_watchdog_the_hung_queue_stays_dead() {
    let base = Scenario::fault_recovery();
    let r = run(&Scenario {
        server_cores: 2,
        tuning: tuning(),
        faults: hang_plan(base.server_port()),
        ..base
    });
    assert!(r.watchdog.is_none());
    // A permanently hung queue strands its flow groups: goodput stays
    // below the 80% recovery threshold for the rest of the run.
    assert!(
        r.stalled,
        "expected a permanent stall without the watchdog; dip {:.2}, windows {:?}",
        r.dip_frac, r.rx_windows
    );
}
