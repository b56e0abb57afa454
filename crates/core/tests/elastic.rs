//! Elastic control loop tests: SLA-driven core add under a load spike,
//! idle consolidation back to the floor, bounded per-epoch migration
//! rate, hung-target backoff, the graceful-overload admission gate, and
//! the RCU filter lifecycle across migration.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ix_core::dataplane::Dataplane;
use ix_core::ixcp::{set_active_threads, start_elastic_controller, FilterControl};
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_core::{ElasticConfig, ElasticRef, WatchdogHealth};
use ix_net::filter::{FilterPolicy, RuleAction};
use ix_net::ip::IpProto;
use ix_nic::fabric::Fabric;
use ix_nic::params::MachineParams;
use ix_sim::{Nanos, SimTime, Simulator};
use ix_tcp::StackConfig;
use ix_testkit::Bytes;

const PORT: u16 = 9000;

/// Echoes every byte back, charging `service_ns` per request — the knob
/// that saturates a core.
struct EchoServer {
    service_ns: u64,
}

impl LibixHandler for EchoServer {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        ctx.charge(self.service_ns);
        let reply = Bytes::copy_from_slice(data);
        assert!(ctx.write(reply));
    }
}

#[derive(Debug, Default)]
struct PingStats {
    rtts_ns: Vec<u64>,
    done: bool,
}

/// Closed-loop ping-pong client: `conns` connections, `reps` echoes
/// each. Any reset or lost byte leaves `done` false.
struct PingClient {
    server: ix_net::Ipv4Addr,
    msg: usize,
    reps: usize,
    conns: usize,
    started: usize,
    inflight: std::collections::HashMap<u64, (usize, usize, u64)>,
    results: Rc<RefCell<PingStats>>,
    finished: usize,
}

impl PingClient {
    fn fire(&mut self, ctx: &mut ConnCtx<'_>) {
        let user = ctx.conn.user;
        let st = self.inflight.get_mut(&user).expect("tracked");
        st.2 = ctx.now_ns;
        assert!(ctx.write(Bytes::from(vec![0x5au8; self.msg])));
    }
}

impl LibixHandler for PingClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.started < self.conns {
            let user = self.started as u64;
            self.inflight.insert(user, (0, 0, 0));
            ctx.connect(self.server, PORT, user);
            self.started += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        self.fire(ctx);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user;
        let now = ctx.now_ns;
        let msg = self.msg;
        let st = self.inflight.get_mut(&user).expect("tracked");
        st.0 += data.len();
        assert!(st.0 <= msg, "over-delivery");
        if st.0 == msg {
            st.0 = 0;
            st.1 += 1;
            self.results.borrow_mut().rtts_ns.push(now - st.2);
            if st.1 >= self.reps {
                ctx.abort();
                self.finished += 1;
                if self.finished == self.conns {
                    self.results.borrow_mut().done = true;
                }
            } else {
                self.fire(ctx);
            }
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        self.started < self.conns
    }
}

/// 2-host fabric: a 1-thread IX client driving a `server_threads` IX
/// server whose echo handler charges `service_ns` per request.
fn setup(
    server_threads: usize,
    service_ns: u64,
    reps: usize,
    conns: usize,
) -> (Simulator, Fabric, Dataplane, Rc<RefCell<PingStats>>) {
    let mut sim = Simulator::new(7);
    let mut fabric = Fabric::new(8, MachineParams::default());
    let client = fabric.add_host(1, 2, 0);
    let server = fabric.add_host(1, 8, 0);
    let results = Rc::new(RefCell::new(PingStats::default()));
    let server_ip = fabric.host(server).ip;
    let sdp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        server_threads,
        CostParams::default(),
        StackConfig::default(),
        Some(PORT),
        move |_| Box::new(Libix::new(EchoServer { service_ns })),
    );
    let r2 = results.clone();
    let cdp = Dataplane::launch(
        &mut sim,
        fabric.host(client),
        1,
        CostParams::default(),
        StackConfig::default(),
        None,
        move |_| {
            Box::new(Libix::new(PingClient {
                server: server_ip,
                msg: 64,
                reps,
                conns,
                started: 0,
                inflight: Default::default(),
                results: r2.clone(),
                finished: 0,
            }))
        },
    );
    sdp.seed_arp(fabric.host(client).ip, fabric.host(client).mac);
    cdp.seed_arp(fabric.host(server).ip, fabric.host(server).mac);
    (sim, fabric, sdp, results)
}

/// Controller tuning that trips on the closed-loop backlog the tests
/// generate: over-SLA at >5 backlogged frames, fast consolidation.
fn test_cfg() -> ElasticConfig {
    ElasticConfig {
        epoch_ns: 50_000,
        sla_ns: 25_000,
        per_frame_ns: 5_000,
        revoke_epochs: 4,
        min_active: 1,
        max_buckets_per_epoch: 32,
        shed_port: None,
        shed_sla_ns: 50_000,
        shed_calm_epochs: 4,
    }
}

fn unparked(dp: &Dataplane) -> usize {
    dp.threads.iter().filter(|t| !t.borrow().parked).count()
}

#[test]
fn spike_adds_cores_then_idle_consolidates_without_loss() {
    let (mut sim, _fabric, sdp, results) = setup(4, 5_000, 60, 32);
    // Start consolidated on one core; the controller must grow.
    set_active_threads(&mut sim, &sdp, 1, None);
    let stats: ElasticRef =
        start_elastic_controller(&mut sim, &sdp, test_cfg(), None, None, Nanos::from_millis(40).as_nanos());
    sim.run_until(SimTime(Nanos::from_millis(40).as_nanos()));

    let r = results.borrow();
    assert!(r.done, "traffic lost under elastic scaling: {} rtts", r.rtts_ns.len());
    assert_eq!(r.rtts_ns.len(), 60 * 32);
    let s = *stats.borrow();
    assert!(s.adds >= 1, "spike never added a core: {s:?}");
    assert!(s.revokes >= 1, "idle never consolidated: {s:?}");
    assert!(s.parks >= 1, "revoked cores never parked: {s:?}");
    assert!(s.flows_migrated >= 1, "scaling moved no flows: {s:?}");
    assert!(s.buckets_moved >= 1);
    assert!(s.sla_violation_epochs >= 1);
    // Fully consolidated at the end: back to the 1-core floor, and the
    // parked cores hold no flows.
    assert_eq!(unparked(&sdp), 1, "did not consolidate: {s:?}");
    for th in sdp.threads.iter().skip(1) {
        assert_eq!(th.borrow().base.shard.flow_count(), 0, "parked thread kept flows");
    }
    // Energy proxy: strictly cheaper than a static 4-core allocation.
    assert!(s.busy_core_epochs < 4 * s.epochs, "no energy win: {s:?}");
}

#[test]
fn migration_rate_is_bounded_per_epoch() {
    let (mut sim, _fabric, sdp, results) = setup(4, 5_000, 60, 32);
    set_active_threads(&mut sim, &sdp, 1, None);
    let mut cfg = test_cfg();
    cfg.max_buckets_per_epoch = 8;
    let budget = cfg.max_buckets_per_epoch;
    let epoch = cfg.epoch_ns;
    let stats =
        start_elastic_controller(&mut sim, &sdp, cfg, None, None, Nanos::from_millis(40).as_nanos());
    // Snapshot the redirection table just after every controller epoch.
    let snaps: Rc<RefCell<Vec<Vec<usize>>>> = Rc::new(RefCell::new(Vec::new()));
    let nic = sdp.threads[0].borrow().base.queues[0].0.clone();
    for k in 0..400u64 {
        let snaps = snaps.clone();
        let nic = nic.clone();
        sim.schedule_in(Nanos(k * epoch + 1), move |_| {
            snaps.borrow_mut().push(nic.borrow().redirection().to_vec());
        });
    }
    sim.run_until(SimTime(Nanos::from_millis(40).as_nanos()));

    assert!(results.borrow().done);
    assert!(stats.borrow().buckets_moved > 0, "no resharding happened");
    let snaps = snaps.borrow();
    let mut max_step = 0usize;
    for w in snaps.windows(2) {
        let diff = w[0].iter().zip(w[1].iter()).filter(|(a, b)| a != b).count();
        max_step = max_step.max(diff);
    }
    assert!(max_step > 0);
    assert!(
        max_step <= budget,
        "migration burst of {max_step} buckets exceeds per-epoch budget {budget}"
    );
}

#[test]
fn hung_add_target_defers_with_backoff_then_retries() {
    let (mut sim, _fabric, sdp, results) = setup(4, 5_000, 120, 32);
    set_active_threads(&mut sim, &sdp, 1, None);
    // The watchdog (simulated here) reports core 1 hung: adds must
    // defer rather than steer flow groups into a black hole.
    let health: WatchdogHealth = Rc::new(RefCell::new(vec![1]));
    let stats = start_elastic_controller(
        &mut sim,
        &sdp,
        test_cfg(),
        None,
        Some(health.clone()),
        Nanos::from_millis(60).as_nanos(),
    );
    // Just before the verdict clears, the fleet must still be 1 core.
    let probe: Rc<Cell<usize>> = Rc::new(Cell::new(0));
    {
        let probe = probe.clone();
        let threads = sdp.threads.clone();
        sim.schedule_in(Nanos(1_990_000), move |_| {
            probe.set(threads.iter().filter(|t| !t.borrow().parked).count());
        });
    }
    sim.schedule_in(Nanos(2_000_000), move |_| health.borrow_mut().clear());
    sim.run_until(SimTime(Nanos::from_millis(60).as_nanos()));

    assert!(results.borrow().done);
    let s = *stats.borrow();
    assert!(s.add_retries >= 1, "hung target never deferred an add: {s:?}");
    assert_eq!(probe.get(), 1, "added a core while its target was hung");
    assert!(s.adds >= 1, "add never retried after the verdict cleared: {s:?}");
}

/// Dials `want` connections starting at `at_ns`; redials on failure
/// (a shed SYN that exhausts its retries) until each one lands.
struct LateDialer {
    server: ix_net::Ipv4Addr,
    at_ns: u64,
    want: usize,
    launched: usize,
    next_user: u64,
    ok: Rc<Cell<usize>>,
    failed: Rc<Cell<usize>>,
}

impl LibixHandler for LateDialer {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if ctx.now_ns >= self.at_ns && self.launched < self.want {
            ctx.connect(self.server, PORT, self.next_user);
            self.next_user += 1;
            self.launched += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if ok {
            self.ok.set(self.ok.get() + 1);
            ctx.abort();
        } else {
            self.failed.set(self.failed.get() + 1);
            self.launched -= 1;
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        self.ok.get() < self.want
    }
}

#[test]
fn admission_gate_sheds_new_connections_under_saturation() {
    let mut sim = Simulator::new(7);
    let mut fabric = Fabric::new(8, MachineParams::default());
    let client = fabric.add_host(1, 2, 0);
    let late = fabric.add_host(1, 2, 0);
    let server = fabric.add_host(1, 8, 0);
    let server_ip = fabric.host(server).ip;
    let results = Rc::new(RefCell::new(PingStats::default()));
    // One server core, 10 µs of work per echo, 16 closed-loop conns:
    // permanently saturated with no spare core to add.
    let sdp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        1,
        CostParams::default(),
        StackConfig::default(),
        Some(PORT),
        |_| Box::new(Libix::new(EchoServer { service_ns: 10_000 })),
    );
    let r2 = results.clone();
    let cdp = Dataplane::launch(
        &mut sim,
        fabric.host(client),
        1,
        CostParams::default(),
        StackConfig::default(),
        None,
        move |_| {
            Box::new(Libix::new(PingClient {
                server: server_ip,
                msg: 64,
                reps: 60,
                conns: 16,
                started: 0,
                inflight: Default::default(),
                results: r2.clone(),
                finished: 0,
            }))
        },
    );
    let ok = Rc::new(Cell::new(0usize));
    let failed = Rc::new(Cell::new(0usize));
    let (ok2, failed2) = (ok.clone(), failed.clone());
    // The late dialer retries SYNs quickly so it reconnects promptly
    // once the gate lifts.
    let ldp = Dataplane::launch(
        &mut sim,
        fabric.host(late),
        1,
        CostParams::default(),
        StackConfig {
            syn_rto_ns: 200_000,
            ..StackConfig::default()
        },
        None,
        move |_| {
            Box::new(Libix::new(LateDialer {
                server: server_ip,
                at_ns: 1_000_000,
                want: 2,
                launched: 0,
                next_user: 0,
                ok: ok2.clone(),
                failed: failed2.clone(),
            }))
        },
    );
    for dp in [&cdp, &ldp] {
        sdp.seed_arp(
            fabric.host(if std::ptr::eq(dp, &cdp) { client } else { late }).ip,
            fabric.host(if std::ptr::eq(dp, &cdp) { client } else { late }).mac,
        );
        dp.seed_arp(fabric.host(server).ip, fabric.host(server).mac);
    }

    let fc = Rc::new(FilterControl::install(&sdp, FilterPolicy::new()));
    // The epoch exceeds the closed-loop burst period (~170 us) so every
    // epoch's ring high-water mark sees a burst; a shorter epoch would
    // alias and keep resetting the shed hysteresis streak.
    let cfg = ElasticConfig {
        epoch_ns: 200_000,
        sla_ns: 50_000,
        per_frame_ns: 10_000,
        revoke_epochs: 4,
        min_active: 1,
        max_buckets_per_epoch: 32,
        shed_port: Some(PORT),
        shed_sla_ns: 80_000,
        shed_calm_epochs: 4,
    };
    let stats = start_elastic_controller(
        &mut sim,
        &sdp,
        cfg,
        Some(fc.clone()),
        None,
        Nanos::from_millis(40).as_nanos(),
    );
    sim.run_until(SimTime(Nanos::from_millis(40).as_nanos()));

    // Established traffic rode out the overload untouched.
    let r = results.borrow();
    assert!(r.done, "established flows starved: {} rtts", r.rtts_ns.len());
    let s = *stats.borrow();
    assert!(s.shed_enables >= 1, "gate never engaged: {s:?}");
    assert!(s.shed_epochs >= 1);
    assert!(s.shed_disables >= 1, "gate never lifted after calm: {s:?}");
    // SYNs really were dropped at the NIC edge, pre-allocation.
    let nic = sdp.threads[0].borrow().base.queues[0].0.clone();
    let fs = nic.borrow().filter_stats_total();
    assert!(fs.drops >= 1, "no SYN was shed: {fs:?}");
    assert_eq!(fs.drop_allocs, 0);
    // And the shed dialer eventually got in once the gate lifted.
    assert_eq!(ok.get(), 2, "late dials never completed (failed {})", failed.get());
}

#[test]
fn filter_republish_reaches_migration_destination() {
    let (mut sim, _fabric, sdp, results) = setup(2, 150, 800, 8);
    let fc = FilterControl::install(&sdp, FilterPolicy::new());
    // Establish flows on both threads, then consolidate onto core 0.
    sim.run_until(SimTime(Nanos::from_millis(1).as_nanos()));
    set_active_threads(&mut sim, &sdp, 1, Some(&fc));
    // A rule update lands while core 1 is parked; separately, core 1's
    // snapshot is forced stale (what a mid-migration capture looks like).
    fc.update(|p| p.clone().rule_port(IpProto::Tcp, 1234, RuleAction::Drop));
    let stale = Rc::new(FilterPolicy::new());
    sdp.threads[1]
        .borrow_mut()
        .base
        .shard
        .set_filter_policy(Some(stale.clone()));
    // Re-expanding migrates flows back to core 1; the absorb must
    // republish the *current* snapshot to the destination shard.
    set_active_threads(&mut sim, &sdp, 2, Some(&fc));
    {
        let th = sdp.threads[1].borrow();
        assert!(th.base.shard.flow_count() > 0, "no flows migrated to the destination");
        let got = th.base.shard.filter_policy().expect("destination lost its policy");
        assert!(
            Rc::ptr_eq(got, &fc.snapshot()),
            "destination classifies with a stale filter snapshot"
        );
        assert!(!Rc::ptr_eq(got, &stale));
    }
    sim.run_until(SimTime(Nanos::from_millis(30).as_nanos()));
    assert!(results.borrow().done);
}

#[test]
fn rcu_reclaims_under_update_and_uninstall_without_resurrection() {
    let (mut sim, _fabric, sdp, results) = setup(2, 150, 10, 4);
    sim.run_until(SimTime(Nanos::from_millis(20).as_nanos()));
    assert!(results.borrow().done);

    let fc = FilterControl::install(&sdp, FilterPolicy::new());
    // A held snapshot stays readable across updates (grace period),
    // while every retired version is reclaimed once readers quiesce.
    let held = fc.snapshot();
    for port in 1..=3u16 {
        fc.update(|p| p.clone().rule_port(IpProto::Tcp, port, RuleAction::Drop));
        assert_eq!(fc.retired_len(), 0, "retired version leaked");
    }
    assert_eq!(held.rule_count(), 0, "held snapshot mutated under updates");
    assert_eq!(fc.snapshot().rule_count(), 3);
    // Shards and NICs track the newest version.
    let nic = sdp.threads[0].borrow().base.queues[0].0.clone();
    assert!(Rc::ptr_eq(nic.borrow().filter().expect("nic filter"), &fc.snapshot()));

    // Concurrent update/uninstall race, serialized both ways. Uninstall
    // first: a later update must NOT resurrect the filter on the hot
    // path, and republish must stay a no-op.
    fc.uninstall();
    fc.update(|p| p.clone().rule_port(IpProto::Tcp, 4, RuleAction::Drop));
    fc.republish_shard(&sdp.threads[0]);
    assert!(nic.borrow().filter().is_none(), "update resurrected the NIC filter");
    for th in sdp.threads.iter() {
        assert!(th.borrow().base.shard.filter_policy().is_none(), "shard filter resurrected");
    }
    assert_eq!(fc.retired_len(), 0);
    // The rule table itself kept versioning (snapshot still advances).
    assert_eq!(fc.snapshot().rule_count(), 4);
    drop(held);
}

#[test]
fn inert_controller_is_byte_identical_to_no_controller() {
    // Controller enabled but thresholds unreachable: the run must be
    // bit-for-bit the run with no controller at all (determinism pin
    // for every pre-existing figure).
    let run = |elastic: bool| -> Vec<u64> {
        let (mut sim, _fabric, sdp, results) = setup(4, 5_000, 40, 16);
        if elastic {
            let cfg = ElasticConfig {
                sla_ns: u64::MAX,
                min_active: 4,
                ..test_cfg()
            };
            let _ = start_elastic_controller(
                &mut sim,
                &sdp,
                cfg,
                None,
                None,
                Nanos::from_millis(30).as_nanos(),
            );
        }
        sim.run_until(SimTime(Nanos::from_millis(30).as_nanos()));
        assert!(results.borrow().done);
        let r = results.borrow().rtts_ns.clone();
        r
    };
    assert_eq!(run(false), run(true), "inert controller perturbed the run");
}
