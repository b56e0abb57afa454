//! Host allocation discipline, end to end (DESIGN.md §5k): an IX echo
//! server under closed-loop load from Linux-model clients, all
//! applications on `Libix`. Once the warm-up has taken every buffer to
//! its high-water size, a long window must
//!
//! * schedule no boxed event — every NIC, switch, dataplane and client
//!   event takes the plain-data form;
//! * leave every recycled per-cycle vector, on the server and on the
//!   clients, with the address and capacity it had when the window
//!   opened (buffers that ping-pong only trade places);
//! * and have materialized no more mbuf storage in any pool than its
//!   demand high-water mark plus one provisioning block.

use std::cell::Cell;
use std::rc::Rc;

use ix_baselines::linux::{LinuxHost, LinuxParams};
use ix_core::api::IxApp;
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_mempool::PROVISION_BLOCK;
use ix_nic::fabric::Fabric;
use ix_nic::params::MachineParams;
use ix_sim::{SimTime, Simulator};
use ix_tcp::StackConfig;
use ix_testkit::Bytes;

const PORT: u16 = 9000;
const MSG: usize = 64;
const SERVER_THREADS: usize = 2;
const CLIENT_HOSTS: usize = 3;
const CLIENT_THREADS: usize = 2;
const CONNS_PER_THREAD: usize = 8;

/// Echoes each payload's length back from a block of its own. (Echoing
/// the received view itself would keep receive buffers aliased until the
/// reply is acknowledged: storage in use that `outstanding` no longer
/// counts, which is not what the pool bound below is about.)
struct EchoServer {
    template: Bytes,
}

impl LibixHandler for EchoServer {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        ctx.charge(120);
        assert!(ctx.write(self.template.slice(..data.len())));
    }
}

/// Keeps one `MSG`-byte message in flight on each of its connections.
struct EchoClient {
    server: ix_net::Ipv4Addr,
    dialed: usize,
    /// Reply bytes received so far, per connection (`Conn::user`).
    got: Vec<usize>,
    template: Bytes,
    completed: Rc<Cell<u64>>,
}

impl LibixHandler for EchoClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.dialed < CONNS_PER_THREAD {
            ctx.connect(self.server, PORT, self.dialed as u64);
            self.dialed += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        assert!(ctx.write(self.template.clone()));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let got = &mut self.got[ctx.conn.user as usize];
        *got += data.len();
        assert!(*got <= MSG, "over-delivery");
        if *got == MSG {
            *got = 0;
            self.completed.set(self.completed.get() + 1);
            assert!(ctx.write(self.template.clone()));
        }
    }

    fn wants_tick(&self, _now_ns: u64) -> bool {
        self.dialed < CONNS_PER_THREAD
    }
}

/// The sorted scratch identities of an application behind `Libix`.
fn libix_scratch<H: LibixHandler + 'static>(app: &mut dyn IxApp) -> Vec<(usize, usize)> {
    app.as_any()
        .downcast_mut::<Libix<H>>()
        .expect("every application runs under Libix")
        .scratch_buffers()
}

/// Every recycled vector on the server and on the clients, sorted.
fn scratch(server: &Dataplane, clients: &[LinuxHost]) -> Vec<(usize, usize)> {
    let mut ids = Vec::new();
    for th in &server.threads {
        let mut t = th.borrow_mut();
        ids.extend(t.scratch_buffers());
        ids.extend(libix_scratch::<EchoServer>(t.app_mut()));
    }
    for core in clients.iter().flat_map(|h| &h.cores) {
        let mut c = core.borrow_mut();
        ids.extend(c.scratch_buffers());
        ids.extend(libix_scratch::<EchoClient>(c.app_mut()));
    }
    ids.sort_unstable();
    ids
}

#[test]
fn steady_state_allocates_nothing_and_pools_follow_demand() {
    let mut sim = Simulator::new(11);
    let mut fabric = Fabric::new(8, MachineParams::default());
    let server = fabric.add_host(1, SERVER_THREADS, 0);
    let client_ids: Vec<_> =
        (0..CLIENT_HOSTS).map(|_| fabric.add_host(1, CLIENT_THREADS, 0)).collect();
    let (server_ip, server_mac) = (fabric.host(server).ip, fabric.host(server).mac);

    let dp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        SERVER_THREADS,
        CostParams::default(),
        StackConfig::default(),
        Some(PORT),
        |_| Box::new(Libix::new(EchoServer { template: Bytes::from(vec![0x5au8; MSG]) })),
    );
    let completed = Rc::new(Cell::new(0u64));
    let clients: Vec<LinuxHost> = client_ids
        .iter()
        .map(|&id| {
            let host = fabric.host(id);
            let lh = LinuxHost::launch(
                &mut sim,
                host,
                CLIENT_THREADS,
                LinuxParams::default(),
                StackConfig::default(),
                None,
                |_| {
                    Box::new(Libix::new(EchoClient {
                        server: server_ip,
                        dialed: 0,
                        got: vec![0; CONNS_PER_THREAD],
                        template: Bytes::from(vec![0x5au8; MSG]),
                        completed: completed.clone(),
                    }))
                },
            );
            lh.seed_arp(server_ip, server_mac);
            dp.seed_arp(host.ip, host.mac);
            lh
        })
        .collect();

    // Warm-up: connections open, then the server stalls for a
    // millisecond so that every connection's request is queued at once.
    // A closed loop cannot produce a deeper batch, so the cycles that
    // absorb it — and the burst of replies they send the clients — take
    // every buffer to its high-water size before the window opens.
    sim.run_until(SimTime(10_000_000));
    let conns = (CLIENT_HOSTS * CLIENT_THREADS * CONNS_PER_THREAD) as u64;
    assert_eq!(dp.host_conns.get(), conns, "every connection established");
    for th in &dp.threads {
        th.borrow_mut().parked = true;
    }
    sim.run_until(SimTime(11_000_000));
    for th in &dp.threads {
        th.borrow_mut().parked = false;
    }
    dp.kick(&mut sim);
    sim.run_until(SimTime(20_000_000));
    let (msgs0, sim0, scratch0) = (completed.get(), sim.counters(), scratch(&dp, &clients));
    assert!(
        scratch0.iter().filter(|&&(_, cap)| cap > 0).count() > scratch0.len() / 2,
        "the warm-up exercised the recycled buffers"
    );

    // The window: four times the warm-up.
    sim.run_until(SimTime(100_000_000));
    let (msgs, sim1) = (completed.get() - msgs0, sim.counters());
    assert!(msgs > 10_000, "only {msgs} messages in the window");
    assert!(sim1.scheduled - sim0.scheduled > 5 * msgs);
    assert_eq!(sim1.boxed, sim0.boxed, "a steady-state event took the boxing path");
    let mut fresh = scratch(&dp, &clients);
    fresh.retain(|id| scratch0.binary_search(id).is_err());
    assert!(fresh.is_empty(), "recycled buffers regrown or replaced: {fresh:?}");

    // Pools: storage follows demand on every shard and every RX ring.
    let within = |what: &str, provisioned: usize, peak: u64| {
        assert!(
            provisioned < peak as usize + PROVISION_BLOCK,
            "{what}: {provisioned} buffers provisioned for a peak of {peak} outstanding"
        );
    };
    for th in &dp.threads {
        let t = th.borrow();
        within("server shard", t.shard.pool_provisioned(), t.shard.pool_stats().peak_outstanding);
    }
    for core in clients.iter().flat_map(|h| &h.cores) {
        let c = core.borrow();
        within("client shard", c.shard.pool_provisioned(), c.shard.pool_stats().peak_outstanding);
    }
    for host in &fabric.hosts {
        for nic in &host.nics {
            let mut n = nic.borrow_mut();
            for q in 0..n.queues() {
                let ring = n.rx_ring(q);
                within("RX ring", ring.pool_provisioned(), ring.pool_stats().peak_outstanding);
            }
        }
    }
    let tcp = dp.threads.iter().map(|t| t.borrow().shard.stats.retransmits).sum::<u64>();
    assert_eq!(tcp, 0, "lossless fabric");
}
