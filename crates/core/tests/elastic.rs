//! Elastic control loop tests: SLA-driven core add under a load spike,
//! idle consolidation back to the floor, bounded per-epoch migration
//! rate, hung-target backoff, the graceful-overload admission gate, and
//! the RCU filter lifecycle across migration.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub mod common;

use common::{setup, PORT};
use ix_apps::harness::{EngineTuning, System};
use ix_core::dataplane::Dataplane;
use ix_core::ixcp::{set_active_threads, start_elastic_controller, FilterControl};
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_core::{ElasticConfig, ElasticRef, WatchdogHealth};
use ix_net::filter::{FilterPolicy, RuleAction};
use ix_net::ip::IpProto;
use ix_sim::Nanos;
use ix_tcp::StackConfig;

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
    let (mut tb, sdp, _client, results) = setup(4, 5_000, 60, 32);
    // Start consolidated on one core; the controller must grow.
    set_active_threads(&mut tb.sim, &sdp, 1, None);
    let stats: ElasticRef =
        start_elastic_controller(&mut tb.sim, &sdp, test_cfg(), None, None, Nanos::from_millis(40).as_nanos());
    tb.run_until_ns(Nanos::from_millis(40).as_nanos());

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
    let (mut tb, sdp, _client, results) = setup(4, 5_000, 60, 32);
    set_active_threads(&mut tb.sim, &sdp, 1, None);
    let mut cfg = test_cfg();
    cfg.max_buckets_per_epoch = 8;
    let budget = cfg.max_buckets_per_epoch;
    let epoch = cfg.epoch_ns;
    let stats =
        start_elastic_controller(&mut tb.sim, &sdp, cfg, None, None, Nanos::from_millis(40).as_nanos());
    // Snapshot the redirection table just after every controller epoch.
    let snaps: Rc<RefCell<Vec<Vec<usize>>>> = Rc::new(RefCell::new(Vec::new()));
    let nic = sdp.threads[0].borrow().base.queues[0].0.clone();
    for k in 0..400u64 {
        let snaps = snaps.clone();
        let nic = nic.clone();
        tb.sim.schedule_in(Nanos(k * epoch + 1), move |_| {
            snaps.borrow_mut().push(nic.borrow().redirection().to_vec());
        });
    }
    tb.run_until_ns(Nanos::from_millis(40).as_nanos());

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
    let (mut tb, sdp, _client, results) = setup(4, 5_000, 120, 32);
    set_active_threads(&mut tb.sim, &sdp, 1, None);
    // The watchdog (simulated here) reports core 1 hung: adds must
    // defer rather than steer flow groups into a black hole.
    let health: WatchdogHealth = Rc::new(RefCell::new(vec![1]));
    let stats = start_elastic_controller(
        &mut tb.sim,
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
        tb.sim.schedule_in(Nanos(1_990_000), move |_| {
            probe.set(threads.iter().filter(|t| !t.borrow().parked).count());
        });
    }
    tb.sim.schedule_in(Nanos(2_000_000), move |_| health.borrow_mut().clear());
    tb.run_until_ns(Nanos::from_millis(60).as_nanos());

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
    // One server core, 10 µs of work per echo, 16 closed-loop conns:
    // permanently saturated with no spare core to add.
    let (mut tb, sdp, _client, results) = setup(1, 10_000, 60, 16);
    let server = tb.server_ip();
    let ok = Rc::new(Cell::new(0usize));
    let failed = Rc::new(Cell::new(0usize));
    // The late dialer retries SYNs quickly so it reconnects promptly
    // once the gate lifts.
    let late = tb.fabric.add_host(1, 2, 0);
    let stack = StackConfig { syn_rto_ns: 200_000, ..StackConfig::default() };
    let fast_syn = EngineTuning { stack, ..EngineTuning::default() };
    let _late = tb.launch_client(late, System::Ix, 1, &fast_syn, |_| LateDialer {
        server,
        at_ns: 1_000_000,
        want: 2,
        launched: 0,
        next_user: 0,
        ok: ok.clone(),
        failed: failed.clone(),
    });

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
        &mut tb.sim,
        &sdp,
        cfg,
        Some(fc.clone()),
        None,
        Nanos::from_millis(40).as_nanos(),
    );
    tb.run_until_ns(Nanos::from_millis(40).as_nanos());

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
    let (mut tb, sdp, _client, results) = setup(2, 150, 800, 8);
    let fc = FilterControl::install(&sdp, FilterPolicy::new());
    // Establish flows on both threads, then consolidate onto core 0.
    tb.run_until_ns(Nanos::from_millis(1).as_nanos());
    set_active_threads(&mut tb.sim, &sdp, 1, Some(&fc));
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
    set_active_threads(&mut tb.sim, &sdp, 2, Some(&fc));
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
    tb.run_until_ns(Nanos::from_millis(30).as_nanos());
    assert!(results.borrow().done);
}

#[test]
fn rcu_reclaims_under_update_and_uninstall_without_resurrection() {
    let (mut tb, sdp, _client, results) = setup(2, 150, 10, 4);
    tb.run_until_ns(Nanos::from_millis(20).as_nanos());
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
        let (mut tb, sdp, _client, results) = setup(4, 5_000, 40, 16);
        if elastic {
            let cfg = ElasticConfig {
                sla_ns: u64::MAX,
                min_active: 4,
                ..test_cfg()
            };
            let _ = start_elastic_controller(
                &mut tb.sim,
                &sdp,
                cfg,
                None,
                None,
                Nanos::from_millis(30).as_nanos(),
            );
        }
        tb.run_until_ns(Nanos::from_millis(30).as_nanos());
        assert!(results.borrow().done);
        let r = results.borrow().rtts_ns.clone();
        r
    };
    assert_eq!(run(false), run(true), "inert controller perturbed the run");
}
