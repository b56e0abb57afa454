//! End-to-end dataplane tests: IX client and IX server over the
//! simulated fabric (NIC rings, RSS, switch, virtual time), exercising
//! the full Fig 1b cycle on both ends.

use std::cell::RefCell;
use std::rc::Rc;

use ix_testkit::Bytes;
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_core::ixcp::set_active_threads;
use ix_nic::fabric::Fabric;
use ix_nic::params::MachineParams;
use ix_sim::{Nanos, Simulator};
use ix_tcp::StackConfig;

/// Echoes every received byte back, charging a small service cost.
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

/// Shared measurement results for the ping client.
#[derive(Debug, Default)]
struct PingStats {
    rtts_ns: Vec<u64>,
    done: bool,
}

/// Opens `conns` connections; on each, ping-pongs a `msg`-byte message
/// `reps` times, then aborts (RST), as the §5.3 echo benchmark does.
struct PingClient {
    server: ix_net::Ipv4Addr,
    port: u16,
    msg: usize,
    reps: usize,
    conns: usize,
    started: usize,
    /// Per-connection state: bytes of the current reply received, reps
    /// completed, send timestamp.
    inflight: std::collections::HashMap<u64, (usize, usize, u64)>,
    results: Rc<RefCell<PingStats>>,
    finished_conns: usize,
}

impl PingClient {
    fn fire(&mut self, ctx: &mut ConnCtx<'_>) {
        let user = ctx.conn.user;
        let st = self.inflight.get_mut(&user).expect("tracked");
        st.2 = ctx.now_ns;
        let payload = Bytes::from(vec![0x5au8; self.msg]);
        assert!(ctx.write(payload));
    }
}

impl LibixHandler for PingClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.started < self.conns {
            let user = self.started as u64;
            self.inflight.insert(user, (0, 0, 0));
            ctx.connect(self.server, self.port, user);
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
                self.finished_conns += 1;
                if self.finished_conns == self.conns {
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

/// Builds a 2-host fabric (client, server), both running IX.
fn setup(
    server_threads: usize,
    msg: usize,
    reps: usize,
    conns: usize,
) -> (Simulator, Fabric, Dataplane, Dataplane, Rc<RefCell<PingStats>>) {
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
        Some(9000),
        |_| Box::new(Libix::new(EchoServer { service_ns: 150 })),
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
                port: 9000,
                msg,
                reps,
                conns,
                started: 0,
                inflight: Default::default(),
                results: r2.clone(),
                finished_conns: 0,
            }))
        },
    );
    // Seed ARP both ways (bring-up; ARP itself is tested in ix-tcp).
    sdp.seed_arp(fabric.host(client).ip, fabric.host(client).mac);
    cdp.seed_arp(fabric.host(server).ip, fabric.host(server).mac);
    (sim, fabric, sdp, cdp, results)
}

#[test]
fn single_echo_rtt_near_paper_figure() {
    let (mut sim, _fabric, _s, _c, results) = setup(1, 64, 1, 1);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(50).as_nanos()));
    let r = results.borrow();
    assert!(r.done, "echo did not complete");
    assert_eq!(r.rtts_ns.len(), 1);
    let rtt = r.rtts_ns[0];
    // Fig 2: IX one-way ≈ 5.7 µs for 64 B ⇒ RTT ≈ 11.4 µs. Allow a band:
    // the measured RTT includes connection warmup effects.
    assert!(rtt > 6_000 && rtt < 25_000, "RTT {rtt} ns out of band");
}

#[test]
fn pipelined_echoes_complete_exactly() {
    let (mut sim, _fabric, sdp, _c, results) = setup(2, 64, 200, 4);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(200).as_nanos()));
    let r = results.borrow();
    assert!(r.done, "run incomplete: {} rtts", r.rtts_ns.len());
    assert_eq!(r.rtts_ns.len(), 200 * 4);
    // No packet loss end to end: server saw traffic, no ring drops.
    assert!(sdp.threads.iter().any(|t| t.borrow().base.rx_packets > 0));
    assert_eq!(sdp.stats().tx_ring_drops, 0);
}

#[test]
fn rss_spreads_connections_across_elastic_threads() {
    let (mut sim, _fabric, sdp, _c, results) = setup(4, 64, 2, 32);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(100).as_nanos()));
    assert!(results.borrow().done);
    let busy: Vec<u64> = sdp
        .threads
        .iter()
        .map(|t| t.borrow().base.rx_packets)
        .collect();
    let active = busy.iter().filter(|&&p| p > 0).count();
    assert!(active >= 3, "RSS spread used only {active}/4 threads: {busy:?}");
}

#[test]
fn kernel_dominates_dataplane_but_split_is_tracked() {
    let (mut sim, _fabric, sdp, _c, results) = setup(1, 64, 500, 2);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(200).as_nanos()));
    assert!(results.borrow().done);
    let (kernel, user) = sdp.threads.iter().fold((0, 0), |(k, u), t| {
        let t = t.borrow();
        let core = t.base.core.borrow();
        (k + core.kernel_ns, u + core.user_ns)
    });
    assert!(kernel > 0 && user > 0);
    // The echo app charges 150 ns/request vs ~1 µs dataplane work: the
    // dataplane share is large for a trivial app, but bounded.
    let share = kernel as f64 / (kernel + user) as f64;
    assert!(share > 0.5 && share < 0.99, "kernel share {share}");
}

#[test]
fn adaptive_batching_stays_small_when_unloaded() {
    let (mut sim, _fabric, sdp, _c, results) = setup(1, 64, 50, 1);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(100).as_nanos()));
    assert!(results.borrow().done);
    let st = sdp.stats();
    // One connection ping-ponging: each iteration sees ~1 packet. "We
    // never wait to batch requests" (§3).
    let avg_batch = st.batch_sum as f64 / st.iterations.max(1) as f64;
    assert!(avg_batch < 3.0, "unloaded batch size {avg_batch}");
    assert_eq!(st.full_batches, 0);
}

#[test]
fn steady_state_runs_without_scratch_reallocation() {
    let (mut sim, _fabric, sdp, _c, results) = setup(2, 64, 500, 4);
    // Warmup: the per-cycle scratch buffers grow to their high-water
    // capacity during the first bursts of traffic.
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(2).as_nanos()));
    let warm = sdp.stats();
    assert!(warm.iterations > 100, "warmup saw only {} cycles", warm.iterations);
    // Steady state: thousands more run-to-completion cycles, zero
    // further scratch reallocation (ISSUE 10 satellite pin).
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(500).as_nanos()));
    let r = results.borrow();
    assert!(r.done, "run incomplete: {} rtts", r.rtts_ns.len());
    let st = sdp.stats();
    assert!(st.iterations > warm.iterations, "no cycles ran after warmup");
    assert_eq!(
        st.scratch_allocs, warm.scratch_allocs,
        "scratch buffers reallocated in steady state ({} cycles)",
        st.iterations - warm.iterations
    );
}

#[test]
fn ixcp_revocation_migrates_flows_and_traffic_continues() {
    let (mut sim, _fabric, sdp, _c, results) = setup(4, 64, 400, 16);
    let active = |dp: &Dataplane| dp.threads.iter().filter(|t| !t.borrow().parked).count();
    // Let traffic start on 4 threads.
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(5).as_nanos()));
    assert_eq!(active(&sdp), 4);
    // Revoke two threads mid-run; flows must migrate and finish.
    set_active_threads(&mut sim, &sdp, 2, None);
    assert_eq!(active(&sdp), 2);
    sim.run_until(ix_sim::SimTime(Nanos::from_millis(400).as_nanos()));
    assert!(
        results.borrow().done,
        "traffic stalled after revocation: {} rtts",
        results.borrow().rtts_ns.len()
    );
    // Parked threads hold no flows.
    for th in sdp.threads.iter().skip(2) {
        assert_eq!(th.borrow().base.shard.flow_count(), 0, "parked thread kept flows");
    }
    // And the control plane can give them back.
    set_active_threads(&mut sim, &sdp, 4, None);
    assert_eq!(active(&sdp), 4);
}
