//! Host allocation discipline, end to end (DESIGN.md §13): an IX echo
//! server under closed-loop load from Linux-model clients, all
//! applications on `Libix`. Once the warm-up has taken every buffer to
//! its high-water size, a long window must
//!
//! * schedule no boxed event — every NIC, switch, dataplane and client
//!   event takes the plain-data form;
//! * leave every recycled per-cycle vector and every shard's timer
//!   arena, on the server and on the clients, with the address and
//!   capacity it had when the window opened (buffers that ping-pong
//!   only trade places; each RTO re-armed in the window walks into some
//!   twenty wheel slots no timer has used before);
//! * and have materialized no more mbuf storage in any pool than its
//!   demand high-water mark plus one provisioning block.
//!
//! The second case holds the same recycled vectors on a Linux and on an
//! mTCP server, after 20 ms of plain load (the stall above needs the IX
//! thread's `parked` switch).
//!
//! The third case is the other end of the scale: many connections, few
//! of them busy. There an idle connection must own no buffer at all —
//! its queues borrow one from their spare stack while they hold
//! something — and the buffers in existence must follow the connections
//! busy at once, not the connections open.
//!
//! The fourth is the application's end of the same rule: memcached under
//! the ETC mix builds every request and response in a recycled block
//! and stores every item in the store's log, so its window makes no
//! block, boxes no event and grows the log only by what was SET.

use std::cell::Cell;
use std::rc::Rc;

use ix_apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix_apps::kvstore::{KvServer, SharedStore, SEGMENT};
use ix_apps::mutilate::{LoadStats, MutilateClient};
use ix_apps::workload::{Workload, WorkloadKind};
use ix_baselines::linux::LinuxHost;
use ix_core::api::IxApp;
use ix_core::dataplane::{Dataplane, EngineCore};
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_mempool::{LentQueues, Spares, PROVISION_BLOCK};
use ix_sim::{SimRng, SimTime, Simulator};
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

/// The echo cases' server application.
fn echo_server() -> EchoServer {
    EchoServer { template: Bytes::from(vec![0x5au8; MSG]) }
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

/// The `Libix` an application runs under.
fn libix<H: LibixHandler + 'static>(app: &mut dyn IxApp) -> &mut Libix<H> {
    app.as_any().downcast_mut().expect("every application runs under Libix")
}

/// A core's shard timer arena and its `Libix`'s recycled vectors.
fn app_scratch<H: LibixHandler + 'static>(core: &mut EngineCore) -> Vec<(usize, usize)> {
    let mut ids = libix::<H>(core.app_mut()).scratch_buffers();
    ids.push(core.shard.timer_arena());
    ids
}

/// Every recycled vector and timer arena of the client cores.
fn client_scratch(clients: &[LinuxHost]) -> Vec<(usize, usize)> {
    let mut ids = Vec::new();
    for core in clients.iter().flat_map(|h| &h.cores) {
        let mut c = core.borrow_mut();
        ids.extend(c.scratch_buffers());
        ids.extend(app_scratch::<EchoClient>(&mut c.base));
    }
    ids
}

/// Every recycled vector and timer arena on the IX server and on the
/// clients, sorted.
fn scratch(server: &Dataplane, clients: &[LinuxHost]) -> Vec<(usize, usize)> {
    let mut ids = client_scratch(clients);
    for th in &server.threads {
        let mut t = th.borrow_mut();
        ids.extend(t.scratch_buffers());
        ids.extend(app_scratch::<EchoServer>(&mut t.base));
    }
    ids.sort_unstable();
    ids
}

/// An IX server and `client_hosts` Linux-model client machines on one
/// switch, every application under `Libix`.
struct Bed {
    tb: Testbed,
    dp: Dataplane,
    clients: Vec<LinuxHost>,
}

fn launch<S: LibixHandler + 'static, H: LibixHandler + 'static>(
    server_app: impl FnMut() -> S,
    client_hosts: usize,
    client: impl FnMut(ix_net::Ipv4Addr) -> H,
) -> Bed {
    let (tb, clients) = launch_on(System::Ix, server_app, client_hosts, client);
    let Some(ServerEngine::Ix(dp)) = tb.engine.clone() else { unreachable!("launched IX") };
    Bed { tb, dp, clients }
}

/// A `system` server and `client_hosts` Linux-model client machines on
/// one switch, every application under `Libix`.
fn launch_on<S: LibixHandler + 'static, H: LibixHandler + 'static>(
    system: System,
    mut server_app: impl FnMut() -> S,
    client_hosts: usize,
    mut client: impl FnMut(ix_net::Ipv4Addr) -> H,
) -> (Testbed, Vec<LinuxHost>) {
    let mut tb = Testbed::new(11, 1, client_hosts);
    let tuning = EngineTuning::default();
    tb.launch_server(system, SERVER_THREADS, &tuning, PORT, |_| server_app());
    let server = tb.server_ip();
    let clients = tb
        .clients
        .clone()
        .into_iter()
        .map(|id| match tb.launch_client(id, System::Linux, CLIENT_THREADS, &tuning, |_| client(server)) {
            ServerEngine::Linux(lh) => lh,
            _ => unreachable!("launched Linux"),
        })
        .collect();
    (tb, clients)
}

/// One echo client per client thread, counting round trips in
/// `completed`.
fn echo_client(completed: &Rc<Cell<u64>>) -> impl FnMut(ix_net::Ipv4Addr) -> EchoClient + '_ {
    move |server| EchoClient {
        server,
        dialed: 0,
        got: vec![0; CONNS_PER_THREAD],
        template: Bytes::from(vec![0x5au8; MSG]),
        completed: completed.clone(),
    }
}

#[test]
fn steady_state_allocates_nothing_and_pools_follow_demand() {
    let completed = Rc::new(Cell::new(0u64));
    let bed = launch(echo_server, CLIENT_HOSTS, echo_client(&completed));
    let Bed { mut tb, dp, clients } = bed;
    let sim = &mut tb.sim;

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
    dp.kick(sim);
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
        within("server shard", t.base.shard.pool_provisioned(), t.base.shard.pool_stats().peak_outstanding);
    }
    for core in clients.iter().flat_map(|h| &h.cores) {
        let c = core.borrow();
        within("client shard", c.base.shard.pool_provisioned(), c.base.shard.pool_stats().peak_outstanding);
    }
    for host in &tb.fabric.hosts {
        for nic in &host.nics {
            let mut n = nic.borrow_mut();
            for q in 0..n.queues() {
                let ring = n.rx_ring(q);
                within("RX ring", ring.pool_provisioned(), ring.pool_stats().peak_outstanding);
            }
        }
    }
    let tcp = dp.threads.iter().map(|t| t.borrow().base.shard.stats.retransmits).sum::<u64>();
    assert_eq!(tcp, 0, "lossless fabric");
}

#[test]
fn linux_and_mtcp_servers_recycle_their_vectors() {
    for system in [System::Linux, System::Mtcp] {
        let completed = Rc::new(Cell::new(0u64));
        let (mut tb, clients) = launch_on(system, echo_server, CLIENT_HOSTS, echo_client(&completed));
        let server = tb.engine.clone().expect("server launched");
        let sim = &mut tb.sim;
        let scratch = || {
            let mut ids: Vec<_> = match &server {
                ServerEngine::Linux(l) => l.cores.iter().flat_map(|c| c.borrow().scratch_buffers()).collect(),
                ServerEngine::Mtcp(m) => m.cores.iter().flat_map(|c| c.borrow().scratch_buffers()).collect(),
                _ => unreachable!("the IX server is pinned above, after its stall"),
            };
            server.for_each_core(|c| ids.extend(app_scratch::<EchoServer>(c)));
            ids.extend(client_scratch(&clients));
            ids.sort_unstable();
            ids
        };
        sim.run_until(SimTime(20_000_000));
        let (msgs0, scratch0) = (completed.get(), scratch());
        assert!(
            scratch0.iter().filter(|&&(_, cap)| cap > 0).count() > scratch0.len() / 2,
            "{system:?}: the warm-up exercised the recycled buffers"
        );
        sim.run_until(SimTime(100_000_000));
        let msgs = completed.get() - msgs0;
        assert!(msgs > 10_000, "{system:?}: only {msgs} messages in the window");
        let mut fresh = scratch();
        fresh.retain(|id| scratch0.binary_search(id).is_err());
        assert!(fresh.is_empty(), "{system:?}: recycled buffers regrown or replaced: {fresh:?}");
    }
}

/// Connections each client thread of the idle case holds open.
const IDLE_CONNS_PER_THREAD: usize = 256;

/// Holds `IDLE_CONNS_PER_THREAD` connections open and keeps one `MSG`-byte
/// message in flight, on each connection in turn.
struct RotatingClient {
    server: ix_net::Ipv4Addr,
    dialed: usize,
    /// Cookies of the established connections, by `Conn::user`.
    cookies: Vec<u64>,
    connected: usize,
    got: usize,
    template: Bytes,
    completed: Rc<Cell<u64>>,
}

impl LibixHandler for RotatingClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        // Dial a few at a time: a burst of 256 SYNs per thread would
        // overflow the server's half-open backlog.
        while self.dialed < IDLE_CONNS_PER_THREAD && self.dialed < self.connected + 16 {
            ctx.connect(self.server, PORT, self.dialed as u64);
            self.dialed += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        self.cookies[ctx.conn.user as usize] = ctx.conn.cookie;
        self.connected += 1;
        if self.connected == IDLE_CONNS_PER_THREAD {
            assert!(ctx.write(self.template.clone()));
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.got += data.len();
        assert!(self.got <= MSG, "over-delivery");
        if self.got == MSG {
            self.got = 0;
            self.completed.set(self.completed.get() + 1);
            let next = (ctx.conn.user as usize + 1) % IDLE_CONNS_PER_THREAD;
            ctx.write_to(self.cookies[next], self.template.clone());
        }
    }

    fn wants_tick(&self, _now_ns: u64) -> bool {
        self.dialed < IDLE_CONNS_PER_THREAD
    }
}

/// The census of every spare stack on the server and on the clients, in
/// a fixed order: per server thread `rtq`, `rx_held`, libix `pending`;
/// per client core the same three and then the kernel's `chunks`.
fn lent(server: &Dataplane, clients: &[LinuxHost]) -> Vec<LentQueues> {
    let mut all = Vec::new();
    for th in &server.threads {
        let mut t = th.borrow_mut();
        all.extend(t.base.shard.lent_queues());
        all.push(libix::<EchoServer>(t.base.app_mut()).lent_queues());
    }
    for core in clients.iter().flat_map(|h| &h.cores) {
        let mut c = core.borrow_mut();
        all.extend(c.base.shard.lent_queues());
        all.push(libix::<RotatingClient>(c.base.app_mut()).lent_queues());
        all.push(c.lent_queues());
    }
    all
}

#[test]
fn idle_connections_hold_no_buffers() {
    // One client machine. A reply stays in the server's retransmit queue
    // until the Linux client's delayed ACK (100 us: rotation leaves no
    // next request on that connection to piggyback on), so each client
    // thread keeps a handful of server `rtq`s busy — two threads, about
    // a dozen, inside the first batch of buffers a spare stack makes.
    let completed = Rc::new(Cell::new(0u64));
    let bed = launch(echo_server, 1, |server| RotatingClient {
        server,
        dialed: 0,
        cookies: vec![0; IDLE_CONNS_PER_THREAD],
        connected: 0,
        got: 0,
        template: Bytes::from(vec![0x5au8; MSG]),
        completed: completed.clone(),
    });
    let Bed { mut tb, dp, clients } = bed;
    let sim = &mut tb.sim;
    let threads = CLIENT_THREADS;
    let conns = threads * IDLE_CONNS_PER_THREAD;

    // Warm-up: the ramp, then every connection visited a few times.
    // Sampled every 2 us: the most queues of each stack ever seen busy
    // at once, and that no queue seen empty still owned a buffer.
    sim.run_until(SimTime(20_000_000));
    assert_eq!(dp.host_conns.get(), conns as u64, "every connection established");
    let mut busy_hw = vec![0usize; lent(&dp, &clients).len()];
    let mut sample = |sim: &mut Simulator, until_ns: u64, step_ns: u64| {
        while sim.now().as_nanos() < until_ns {
            sim.run_until(SimTime(sim.now().as_nanos() + step_ns));
            for (hw, l) in busy_hw.iter_mut().zip(lent(&dp, &clients)) {
                assert_eq!(l.idle_capacity, 0, "an empty queue kept its buffer: {l:?}");
                *hw = (*hw).max(l.busy);
            }
        }
    };
    sample(sim, 24_000_000, 2_000);
    sim.run_until(SimTime(60_000_000));
    let (msgs0, lent0) = (completed.get(), lent(&dp, &clients));
    assert!(msgs0 > 3 * conns as u64, "only {msgs0} messages in the warm-up");

    // The window, sampled more coarsely.
    sample(sim, 200_000_000, 250_000);
    let msgs = completed.get() - msgs0;
    assert!(msgs > 10 * conns as u64, "only {msgs} messages in the window");
    for ((l0, l1), &hw) in lent0.iter().zip(lent(&dp, &clients)).zip(&busy_hw) {
        // No buffer made or dropped, and the stack's own vector neither
        // regrown nor replaced: borrowing and returning is all that
        // happened, ten times per connection.
        assert_eq!(l1.busy + l1.spare, l0.busy + l0.spare, "{l0:?} -> {l1:?}");
        assert_eq!(l1.list, l0.list, "spare stack regrown or replaced");
        // Buffers follow the connections busy at once — at most that
        // high-water plus one restocking batch — not the hundreds open.
        let batch = (hw / 4).max(Spares::<()>::MIN_BATCH);
        assert!(l1.busy + l1.spare < hw.max(threads) + batch, "{l1:?} for {hw} busy at once");
    }
    // Every stack was exercised, so "no buffer" above is not vacuous.
    assert!(lent0.iter().all(|l| l.busy + l.spare > 0), "{lent0:?}");
}

#[test]
fn memcached_builds_in_recycled_blocks_and_stores_in_its_log() {
    // ETC at 300 000 requests per second, open loop, from six client
    // threads with eight connections each.
    const RPS: f64 = 300_000.0;
    let store = SharedStore::new();
    let stats = LoadStats::new(0, u64::MAX);
    let (st, ls, mut seeder) = (store.clone(), stats.clone(), SimRng::new(5));
    let Bed { mut tb, dp, clients } = launch(
        move || KvServer::new(st.clone()),
        CLIENT_HOSTS,
        |server| {
            MutilateClient::new(
                server,
                PORT,
                CONNS_PER_THREAD,
                RPS / (CLIENT_HOSTS * CLIENT_THREADS) as f64,
                Workload::new(WorkloadKind::Etc),
                seeder.fork(),
                ls.clone(),
            )
        },
    );
    let sim = &mut tb.sim;
    // Blocks made so far by every handler, servers first.
    let made = || -> Vec<usize> {
        let servers = dp.threads.iter().map(|th| {
            libix::<KvServer>(th.borrow_mut().base.app_mut()).handler().blocks().made()
        });
        let loaders = clients.iter().flat_map(|h| &h.cores).map(|core| {
            libix::<MutilateClient>(core.borrow_mut().base.app_mut()).handler().blocks().made()
        });
        servers.chain(loaders).collect()
    };

    // Warm-up, as in the echo case: a millisecond's stall queues 300
    // requests behind full pipelines, and the burst that follows takes
    // every pool past anything the open loop reaches on its own.
    sim.run_until(SimTime(10_000_000));
    for th in &dp.threads {
        th.borrow_mut().parked = true;
    }
    sim.run_until(SimTime(11_000_000));
    for th in &dp.threads {
        th.borrow_mut().parked = false;
    }
    dp.kick(sim);
    sim.run_until(SimTime(20_000_000));
    let (made0, sim0, done0) = (made(), sim.counters(), stats.borrow().completed_total);
    let (segments0, log0, keys0) = {
        let s = store.borrow();
        (s.segments(), s.log_bytes(), s.len())
    };
    assert!(made0.iter().all(|&m| m > 0), "the warm-up exercised every pool: {made0:?}");

    sim.run_until(SimTime(100_000_000));
    let done = stats.borrow().completed_total - done0;
    assert!(done > 20_000 && stats.borrow().shed == 0, "{done} requests in the window");
    assert_eq!(made(), made0, "a message block was made in steady state");
    assert_eq!(sim.counters().boxed, sim0.boxed, "a steady-state event took the boxing path");
    let s = store.borrow();
    let set = s.log_bytes() - log0;
    assert!(s.len() > keys0 + 1_000 && set > 0, "the window stored items");
    assert!(
        s.segments() - segments0 <= set.div_ceil(SEGMENT as u64) as usize + 1,
        "{} segments for {set} bytes set",
        s.segments() - segments0
    );
}
