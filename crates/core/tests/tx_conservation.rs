//! Every frame an engine hands to its NIC is accounted for once, on the
//! IX dataplane and on the Linux and mTCP models alike. All three push
//! through `ix_core::dataplane::tx_push`, and a full TX ring counts the
//! frame it drops in its own `full_rejections`, the one TX drop count.
//! So, once no IX commit is pending, the engine's `tx_packets` equals
//! the sum over the server's TX rings of frames transmitted, still
//! queued and rejected, and `RunReport::tx_ring_drops` reads the
//! rejections.
//!
//! Each case is a `Scenario::echo()` point assembled through the public
//! `Testbed` API exactly as `harness::run` assembles it, so that the
//! engine can still be read after the run. The Linux and mTCP points
//! overflow their rings, and `harness::run`'s report of the same run
//! must read the same drops. The IX point leaves that run: it re-steers
//! every flow mid-run with `ixcp::reprogram_and_migrate`, whose quiesce
//! step pushes frames synchronously through `drain_user_work`.

use ix_apps::harness::{run, App, Scenario, ServerEngine, System, Testbed};
use ix_apps::{EchoBenchStats, EchoClient, EchoServer};
use ix_core::ixcp;
use ix_net::rss::RSS_BUCKETS;

/// The port `harness::run` serves echo on.
const PORT: u16 = 7000;

/// The server engine's `tx_packets`, summed over its cores.
fn tx_packets(tb: &Testbed) -> u64 {
    let mut sent = 0;
    tb.engine.as_ref().expect("server launched").for_each_core(|c| sent += c.tx_packets);
    sent
}

/// `(transmitted + pending + full_rejections, full_rejections)` summed
/// over every TX ring of the server.
fn rings(tb: &Testbed) -> (u64, u64) {
    let (mut total, mut rejected) = (0, 0);
    for nic in &tb.fabric.host(tb.server).nics {
        let mut n = nic.borrow_mut();
        for q in 0..n.queues() {
            let r = n.tx_ring(q);
            total += r.transmitted + r.pending() as u64 + r.full_rejections;
            rejected += r.full_rejections;
        }
    }
    (total, rejected)
}

#[test]
fn every_pushed_frame_is_transmitted_queued_or_counted_dropped() {
    // (system, cores, message size, re-steer every flow at this instant)
    let cases = [
        (System::Linux, 4, 64, None),
        (System::Mtcp, 8, 8192, None),
        (System::Ix, 8, 64, Some(10_000_000)),
    ];
    for (system, cores, msg, migrate_at) in cases {
        let sc = Scenario { system, server_cores: cores, app: App::Echo { msg, n_per_conn: 1 }, ..Scenario::echo() };
        // `harness::run`'s echo assembly and timeline.
        let warmup_end = sc.warmup.as_nanos();
        let window_end = warmup_end + sc.measure.as_nanos();
        let drained = window_end + 2_000_000;
        let mut tb = Testbed::new(sc.seed, sc.server_ports, sc.n_clients);
        let stats = EchoBenchStats::new(warmup_end, window_end);
        tb.launch_server(system, cores, &sc.tuning, PORT, |_| EchoServer::new(msg, 120));
        let ip = tb.server_ip();
        tb.launch_linux_clients(sc.client_threads, &sc.tuning, |_, _| {
            let mut c = EchoClient::new(ip, PORT, msg, 1, sc.conns_per_thread, true, stats.clone());
            c.stop_at_ns = window_end;
            c
        });

        let mut drain_pushed = 0;
        if let Some(at) = migrate_at {
            tb.run_until_ns(at);
            let (sent, (total, _)) = (tx_packets(&tb), rings(&tb));
            let Some(ServerEngine::Ix(d)) = &tb.engine else { unreachable!("only IX migrates") };
            let map = (0..RSS_BUCKETS).map(|b| (b + 1) % cores).collect();
            let moved = ixcp::reprogram_and_migrate(&mut tb.sim, d, map, None).moved;
            assert!(moved > 0, "the re-steer moved no flow");
            // Nothing but the quiesce ran: what it counted, it pushed.
            drain_pushed = tx_packets(&tb) - sent;
            assert_eq!(rings(&tb).0 - total, drain_pushed, "{system:?}: drain_user_work's pushes");
            assert!(drain_pushed > 0, "the quiesce pushed no frame");
        }
        tb.run_until_ns(drained);

        let what = format!("{system:?}, {cores} cores, {msg} B");
        if migrate_at.is_none() {
            // The same run as `harness::run`'s, which reports the drops.
            let report = run(&sc);
            let rejected = rings(&tb).1;
            assert_eq!(stats.borrow().messages_total, report.messages_total, "{what}: not harness::run's run");
            assert_eq!(report.tx_ring_drops, rejected, "{what}: RunReport::tx_ring_drops");
            assert!(rejected > 0, "{what}: the point no longer overflows a TX ring");
        }
        // Past the drain: every thread is idle, so no commit is pending.
        tb.run_until_ns(drained + 20_000_000);
        assert_eq!(tx_packets(&tb), rings(&tb).0, "{what}: TX conservation (drain_user_work pushed {drain_pushed})");
    }
}
