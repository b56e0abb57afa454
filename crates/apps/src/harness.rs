//! The §5.1 testbed and the one experiment runner.
//!
//! "Our experimental setup consists of a cluster of 24 clients and one
//! server connected by a Quanta/Cumulus 48x10GbE switch ... For 10GbE
//! experiments, we use a single NIC port, and for 4x10GbE experiments, we
//! use four NIC ports bonded by the switch with a L3+L4 hash. ... Except
//! for §5.2, client machines always run Linux."
//!
//! [`Testbed`] builds that cluster for any server system. An experiment
//! is one [`Scenario`], plain data: the topology, the engine knobs, the
//! [`App`] that loads the server, and the optional layers the figures
//! beyond the paper add — a fault plan, an attacker and the pre-stack
//! filter, the queue-hang watchdog, an MMPP spike under the elastic
//! controller, the fig9-scale shard ping-pong. [`run`] assembles the
//! testbed, runs it and returns one [`RunReport`]. Every figure binary
//! goes through `run`; a test or example that drives handlers of its
//! own builds its cluster with [`Testbed`] (`new`, `launch_server`,
//! `launch_client`), so a cluster is assembled in exactly one place.
//!
//! The assembly order is part of every pinned output. Same-instant
//! events run in insertion order and RNG streams fork in call order, so
//! moving one launch moves figure rows. `run` therefore creates hosts
//! server → clients → agent → attacker → dialer; installs the fault plan
//! once the clients exist and before the server launches (it reaches
//! only hosts that exist by then); installs the filter right after the
//! server launches; forks one KV client RNG per client thread in launch
//! order; schedules the goodput sampler after the clients and before the
//! watchdog; and starts the elastic controller before its per-window
//! probes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ix_baselines::linux::{LinuxHost, LinuxParams};
use ix_baselines::mtcp::{MtcpHost, MtcpParams};
use ix_core::api::IxApp;
use ix_core::dataplane::{Dataplane, EngineCore};
use ix_core::ixcp::{self, FilterControl, MigrateReport, WatchdogStats};
use ix_core::libix::{Libix, LibixHandler};
use ix_core::params::CostParams;
use ix_faults::{FaultPlan, FaultSnapshot};
use ix_nic::fabric::Fabric;
use ix_nic::host::{Host, HostId};
use ix_nic::params::MachineParams;
use ix_sim::{Nanos, SimCounters, SimRng, SimTime, Simulator};
use ix_tcp::{FlowMapMem, StackConfig, StackStats, TcpShard};

use crate::attack::{self, AttackConfig, AttackKind};
use crate::echo::{EchoBenchStats, EchoClient, EchoServer, RotatingEchoClient};
use crate::kvstore::{KvServer, SharedStore, StoreRef};
use crate::mutilate::{LoadStats, MutilateAgent, MutilateClient};
use crate::netpipe::{NetpipeClient, NetpipeServer};
use crate::workload::{Workload, WorkloadKind};

/// Which system runs the server (and, for NetPIPE, both ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The IX dataplane.
    Ix,
    /// The Linux kernel model.
    Linux,
    /// The mTCP user-level stack model.
    Mtcp,
}

impl System {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            System::Ix => "IX",
            System::Linux => "Linux",
            System::Mtcp => "mTCP",
        }
    }
}

/// A launched engine (any system) — the server's, or a client's.
#[derive(Clone)]
pub enum ServerEngine {
    /// IX dataplane.
    Ix(Dataplane),
    /// Linux model.
    Linux(LinuxHost),
    /// mTCP model.
    Mtcp(MtcpHost),
}

impl ServerEngine {
    /// Launches `system` on `host` with `cores` threads, thread `i`
    /// running `apps(i)`; `listen_port` is opened on every thread.
    pub fn launch(
        system: System,
        sim: &mut Simulator,
        host: &Host,
        cores: usize,
        tuning: &EngineTuning,
        listen_port: Option<u16>,
        apps: impl FnMut(usize) -> Box<dyn IxApp>,
    ) -> ServerEngine {
        let (stack, listen) = (tuning.stack.clone(), listen_port);
        match system {
            System::Ix => {
                ServerEngine::Ix(Dataplane::launch(sim, host, cores, tuning.ix.clone(), stack, listen, apps))
            }
            System::Linux => {
                ServerEngine::Linux(LinuxHost::launch(sim, host, cores, tuning.linux.clone(), stack, listen, apps))
            }
            System::Mtcp => {
                ServerEngine::Mtcp(MtcpHost::launch(sim, host, cores, tuning.mtcp.clone(), stack, listen, apps))
            }
        }
    }

    /// Calls `f` on every core's [`EngineCore`], in core order. Every
    /// per-core aggregate below is a fold over this one visitor.
    pub fn for_each_core(&self, mut f: impl FnMut(&mut EngineCore)) {
        match self {
            ServerEngine::Ix(d) => d.threads.iter().for_each(|t| f(&mut t.borrow_mut().base)),
            ServerEngine::Linux(l) => l.cores.iter().for_each(|c| f(&mut c.borrow_mut().base)),
            ServerEngine::Mtcp(m) => m.cores.iter().for_each(|c| f(&mut c.borrow_mut().base)),
        }
    }

    /// Seeds every core's ARP table with one peer.
    pub fn seed_arp(&self, ip: ix_net::Ipv4Addr, mac: ix_net::MacAddr) {
        self.for_each_core(|c| c.shard.arp_seed(ip, mac));
    }

    /// Calls `f` on every core's TCP shard, in core order.
    pub fn for_each_shard(&self, mut f: impl FnMut(&TcpShard)) {
        self.for_each_core(|c| f(&c.shard));
    }

    /// Mbuf-pool statistics summed across cores: alloc/free churn,
    /// current outstanding, and summed per-core peaks.
    pub fn mbuf_stats(&self) -> ix_mempool::PoolStats {
        let mut agg = ix_mempool::PoolStats::default();
        self.for_each_shard(|s| {
            let p = s.pool_stats();
            agg.allocs += p.allocs;
            agg.frees += p.frees;
            agg.exhausted += p.exhausted;
            agg.outstanding += p.outstanding;
            agg.peak_outstanding += p.peak_outstanding;
        });
        agg
    }

    /// Every per-shard TCP counter, summed across cores.
    pub fn tcp_stats(&self) -> StackStats {
        let mut agg = StackStats::default();
        self.for_each_shard(|s| agg.absorb(&s.stats));
        agg
    }

    /// Flow-table / TCB-slab occupancy summed across shards: live flows,
    /// high-water slab slots, resident bytes.
    pub fn flow_mem(&self) -> FlowMapMem {
        let mut agg = FlowMapMem::default();
        self.for_each_shard(|s| {
            let m = s.flow_mem_stats();
            agg.live += m.live;
            agg.slab_slots += m.slab_slots;
            agg.bytes += m.bytes;
        });
        agg
    }

    /// Live connections: the dataplane's host-wide count on IX, the sum
    /// of the shards' flow tables elsewhere.
    pub fn conns(&self) -> u64 {
        if let ServerEngine::Ix(d) = self {
            return d.host_conns.get();
        }
        let mut n = 0;
        self.for_each_shard(|s| n += s.flow_count() as u64);
        n
    }

    /// `(kernel_ns, user_ns)` CPU split across cores.
    pub fn cpu_split(&self) -> (u64, u64) {
        let mut split = (0, 0);
        self.for_each_core(|c| {
            let core = c.core.borrow();
            split = (split.0 + core.kernel_ns, split.1 + core.user_ns);
        });
        split
    }
}

/// The assembled cluster.
pub struct Testbed {
    /// The event engine.
    pub sim: Simulator,
    /// Hosts and switch.
    pub fabric: Fabric,
    /// The server's host id.
    pub server: HostId,
    /// Client host ids.
    pub clients: Vec<HostId>,
    /// The launched server engine.
    pub engine: Option<ServerEngine>,
}

/// Overridable engine knobs for an experiment.
#[derive(Debug, Clone, Default)]
pub struct EngineTuning {
    /// IX dataplane cost model.
    pub ix: CostParams,
    /// Linux model parameters (server side and clients).
    pub linux: LinuxParams,
    /// mTCP model parameters.
    pub mtcp: MtcpParams,
    /// TCP stack configuration (all systems).
    pub stack: StackConfig,
}

impl Testbed {
    /// Builds the cluster: one server with `server_ports` bonded ports
    /// and `n_clients` single-port clients, all on one switch. A host
    /// added later gets new switch ports.
    pub fn new(seed: u64, server_ports: usize, n_clients: usize) -> Testbed {
        let mut fabric = Fabric::new(server_ports + n_clients, MachineParams::default());
        // Server: 8 cores + 8 hyperthreads, as the Xeon E5-2665 socket.
        let server = fabric.add_host(server_ports, 8, 8);
        let clients: Vec<HostId> = (0..n_clients).map(|_| fabric.add_host(1, 8, 0)).collect();
        Testbed {
            sim: Simulator::new(seed),
            fabric,
            server,
            clients,
            engine: None,
        }
    }

    /// Launches the server engine with one app handler per core.
    pub fn launch_server<H, F>(
        &mut self,
        system: System,
        cores: usize,
        tuning: &EngineTuning,
        listen_port: u16,
        mut handler: F,
    ) where
        H: LibixHandler + 'static,
        F: FnMut(usize) -> H,
    {
        let host = self.fabric.host(self.server);
        let engine = ServerEngine::launch(system, &mut self.sim, host, cores, tuning, Some(listen_port), |i| {
            Box::new(Libix::new(handler(i))) as Box<dyn IxApp>
        });
        self.engine = Some(engine);
    }

    /// Launches a client application on every client host (Linux model,
    /// per §5.1), `threads` handler instances per host.
    pub fn launch_linux_clients<H, F>(&mut self, threads: usize, tuning: &EngineTuning, mut handler: F)
    where
        H: LibixHandler + 'static,
        F: FnMut(usize, usize) -> H,
    {
        for (ci, id) in self.clients.clone().into_iter().enumerate() {
            self.launch_client(id, System::Linux, threads, tuning, |t| handler(ci, t));
        }
    }

    /// Launches `system` on host `id`, thread `t` running `app(t)`, and
    /// seeds ARP both ways between it and the launched server. The
    /// returned engine may be dropped unless it is IX: the NIC holds
    /// only weak references to elastic threads, so a quiescent one stays
    /// resurrectable only through its `Dataplane`.
    pub fn launch_client<H>(
        &mut self,
        id: HostId,
        system: System,
        threads: usize,
        tuning: &EngineTuning,
        mut app: impl FnMut(usize) -> H,
    ) -> ServerEngine
    where
        H: LibixHandler + 'static,
    {
        let host = self.fabric.host(id);
        let engine = ServerEngine::launch(system, &mut self.sim, host, threads, tuning, None, |t| {
            Box::new(Libix::new(app(t))) as Box<dyn IxApp>
        });
        let server = self.fabric.host(self.server);
        engine.seed_arp(server.ip, server.mac);
        self.engine().seed_arp(host.ip, host.mac);
        engine
    }

    /// The server's IP.
    pub fn server_ip(&self) -> ix_net::Ipv4Addr {
        self.fabric.host(self.server).ip
    }

    /// Runs the simulation until `t`.
    pub fn run_until_ns(&mut self, t: u64) {
        self.sim.run_until(SimTime(t));
    }

    fn engine(&self) -> &ServerEngine {
        self.engine.as_ref().expect("server launched")
    }

    /// Runs `f` on the simulator and the server's dataplane; `None` when
    /// the server is not IX.
    fn with_ix<R>(&mut self, f: impl FnOnce(&mut Simulator, &Dataplane) -> R) -> Option<R> {
        match &self.engine {
            Some(ServerEngine::Ix(d)) => Some(f(&mut self.sim, d)),
            _ => None,
        }
    }

    /// One-line engine diagnostics: batching, NIC drops, retransmits,
    /// core busy times.
    fn debug_line(&self) -> String {
        let host = self.fabric.host(self.server);
        let mut nic_rx = 0u64;
        let mut nic_drops = 0u64;
        let mut rings = String::new();
        for nic in &host.nics {
            let mut n = nic.borrow_mut();
            nic_rx += n.stats.rx_frames;
            nic_drops += n.stats.rx_ring_drops;
            for q in 0..8 {
                let r = n.rx_ring(q);
                rings += &format!("q{q}:p{}/w{}/d{} ", r.posted(), r.pending(), r.drops);
            }
        }
        let busy: Vec<String> = host
            .cores
            .iter()
            .take(8)
            .map(|c| format!("{:.0}%", c.borrow().busy_ns as f64 / self.sim.now().as_nanos().max(1) as f64 * 100.0))
            .collect();
        let extra = match self.engine() {
            e @ ServerEngine::Ix(d) => {
                let st = d.stats();
                format!(
                    "avg_batch={:.1} full={} iters={} retx={}",
                    st.batch_sum as f64 / st.iterations.max(1) as f64,
                    st.full_batches,
                    st.iterations,
                    e.tcp_stats().retransmits
                )
            }
            ServerEngine::Linux(l) => {
                let st = l.stats();
                format!("irqs={} softirqs={} wakeups={}", st.interrupts, st.softirqs, st.wakeups)
            }
            ServerEngine::Mtcp(m) => {
                let st = m.stats();
                format!("polls={} batches={}", st.polls, st.app_batches)
            }
        };
        format!("nic_rx={nic_rx} drops={nic_drops} busy={busy:?} {extra}
  rings: {rings}")
    }
}

// ---------------------------------------------------------------------
// The experiment description.
// ---------------------------------------------------------------------

/// What loads the server.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// NetPIPE ping-pong (Fig 2): `reps` round trips of `msg` bytes
    /// between the server and one client running the *same* system
    /// (§5.2). The run lasts [`Scenario::measure`], its time budget;
    /// without faults, [`run`] panics if the transfer does not finish.
    Netpipe {
        /// Message size.
        msg: usize,
        /// Round trips.
        reps: usize,
    },
    /// Closed-loop echo (Figs 3a–3c, 7): every connection performs
    /// `n_per_conn` synchronous round trips of `msg` bytes, then closes
    /// with RST and reopens.
    Echo {
        /// Message size `s`.
        msg: usize,
        /// Round trips per connection `n`.
        n_per_conn: usize,
    },
    /// The §5.4 rotating 64 B RPC (Fig 4): `total_conns` established
    /// connections spread over the client threads, each thread keeping
    /// `outstanding` RPCs in flight. The clients dial over a ramp of
    /// 20 ms + 1.5 µs per connection; the warmup starts when it ends.
    Rotating {
        /// Established connections across all clients.
        total_conns: usize,
        /// Concurrent outstanding RPCs per client thread.
        outstanding: usize,
    },
    /// Open-loop memcached load from mutilate (Figs 5, 6, 8, 9; Table 2).
    Kv {
        /// Workload profile.
        workload: WorkloadKind,
        /// Aggregate target load, requests/second (the MMPP base rate
        /// under a spike).
        rps: f64,
    },
}

impl App {
    /// The server's listening port.
    fn port(self) -> u16 {
        match self {
            App::Netpipe { .. } => 7100,
            App::Echo { .. } | App::Rotating { .. } => 7000,
            App::Kv { .. } => 11211,
        }
    }
}

/// The fig9 layer on a KV scenario: the fleet's aggregate arrival rate
/// follows a two-state MMPP (base [`App::Kv`] rate, spike `burst_rps`),
/// optionally served under the elastic controller, with an optional
/// wave of new connections dialed mid-spike. The spike runs from t = 0:
/// the scenario's warmup should be zero.
#[derive(Debug, Clone, Copy)]
pub struct Spike {
    /// Aggregate spike-state arrival rate.
    pub burst_rps: f64,
    /// First spike onset.
    pub spike_start: Nanos,
    /// Mean spike dwell (exponential).
    pub mean_on: Nanos,
    /// Mean calm dwell between spikes (exponential).
    pub mean_off: Nanos,
    /// Run the elastic controller (false = static core allocation).
    pub controller: bool,
    /// Cores active at launch under the controller.
    pub initial_active: usize,
    /// Admission gate: shed new connections at the NIC edge when every
    /// core is saturated past the shed threshold.
    pub admission_gate: bool,
    /// New connections dialed mid-spike from a host of their own (0 =
    /// none); shed dials retry on a fast SYN timer.
    pub late_dials: usize,
    /// When the dial wave starts.
    pub dial_at: Nanos,
}

impl Default for Spike {
    /// Fig 9: a 1.5 M rps spike over the 300 K base at 10 ms, under the
    /// controller from two active cores.
    fn default() -> Spike {
        Spike {
            burst_rps: 1_500_000.0,
            spike_start: Nanos::from_millis(10),
            mean_on: Nanos::from_millis(12),
            mean_off: Nanos::from_millis(10),
            controller: true,
            initial_active: 2,
            admission_gate: false,
            late_dials: 0,
            dial_at: Nanos::from_millis(12),
        }
    }
}

/// One experiment: topology, engine, load and optional layers.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Server system.
    pub system: System,
    /// Server cores.
    pub server_cores: usize,
    /// Server NIC ports (1 = 10GbE, 4 = 4x10GbE).
    pub server_ports: usize,
    /// Client machines.
    pub n_clients: usize,
    /// Handler threads per client machine.
    pub client_threads: usize,
    /// Connections per client thread (echo and KV).
    pub conns_per_thread: usize,
    /// What loads the server.
    pub app: App,
    /// Time before the measurement window opens.
    pub warmup: Nanos,
    /// Measurement window; the clients stop issuing when it closes.
    pub measure: Nanos,
    /// Engine knobs.
    pub tuning: EngineTuning,
    /// RNG seed.
    pub seed: u64,
    /// KV only: the separate unloaded latency-sampling client on a host
    /// of its own (§5.5).
    pub agent: bool,
    /// Faults injected on the fabric; links and NICs are keyed by
    /// [`Scenario::server_port`] and [`Scenario::client_port`].
    pub faults: FaultPlan,
    /// Samples server goodput in 1 ms windows and reports the dip and
    /// recovery relative to this fault onset (fig7); `None` = off.
    pub fault_from: Option<Nanos>,
    /// IXCP queue-hang watchdog period (IX servers only; `None` = off).
    pub watchdog: Option<Nanos>,
    /// Attack stream from a host of its own, through the measurement
    /// window: shape and aggregate packets/second.
    pub attack: Option<(AttackKind, f64)>,
    /// Install the pre-stack filter (IX only): a drop rule for the
    /// spoofed attack /16 plus a SYN-challenge rule on the service port.
    pub filtered: bool,
    /// MMPP spike, elastic controller and late dials (KV only, IX only).
    pub spike: Option<Spike>,
    /// Fig9-scale (IX only, [`App::Rotating`]): consolidate every RSS
    /// bucket onto core 0 after a pre-window of `measure`, time eight
    /// whole-shard migrations between cores 0 and 1 under load, then
    /// measure again. The load never stops.
    pub shard_pingpong: bool,
}

impl Scenario {
    /// Fig 3's echo point: 18 clients × 8 threads × 16 connections of
    /// 64 B, n = 1024, against 8 IX cores on 10GbE.
    pub fn echo() -> Scenario {
        Scenario {
            system: System::Ix,
            server_cores: 8,
            server_ports: 1,
            n_clients: 18,
            client_threads: 8,
            conns_per_thread: 16,
            app: App::Echo { msg: 64, n_per_conn: 1024 },
            warmup: Nanos::from_millis(6),
            measure: Nanos::from_millis(12),
            tuning: EngineTuning::default(),
            seed: 1,
            agent: false,
            faults: FaultPlan::none(),
            fault_from: None,
            watchdog: None,
            attack: None,
            filtered: false,
            spike: None,
            shard_pingpong: false,
        }
    }

    /// Fig 4's point: 10 000 rotating connections, 3 outstanding per
    /// client thread, against 8 IX cores on 4x10GbE.
    pub fn conn_scale() -> Scenario {
        Scenario {
            server_ports: 4,
            app: App::Rotating { total_conns: 10_000, outstanding: 3 },
            warmup: Nanos::from_millis(10),
            seed: 5,
            ..Scenario::echo()
        }
    }

    /// NetPIPE between two single-port hosts, with a time budget that
    /// grows with the bytes moved.
    pub fn netpipe(msg: usize, reps: usize) -> Scenario {
        Scenario {
            server_cores: 1,
            n_clients: 1,
            app: App::Netpipe { msg, reps },
            measure: Nanos::from_millis(200 + (msg as u64 * reps as u64) / 100_000),
            seed: 11,
            ..Scenario::echo()
        }
    }

    /// Fig 7's point: 40 ms of long-lived 64 B echo connections against
    /// 4 IX cores, goodput sampled around a fault onset at 10 ms.
    pub fn fault_recovery() -> Scenario {
        Scenario {
            server_cores: 4,
            n_clients: 4,
            client_threads: 2,
            conns_per_thread: 4,
            // Connections never close: they recover by retransmission,
            // not by re-dialling through SYN timeouts.
            app: App::Echo { msg: 64, n_per_conn: 1_000_000 },
            warmup: Nanos(0),
            measure: Nanos::from_millis(40),
            seed: 7,
            fault_from: Some(Nanos::from_millis(10)),
            ..Scenario::echo()
        }
    }

    /// Fig 5's point: USR at 500 K rps from 23 clients × 4 threads × 16
    /// connections (1 472 ≈ the paper's 1 476) against 6 IX cores.
    pub fn kv() -> Scenario {
        Scenario {
            server_cores: 6,
            n_clients: 23,
            client_threads: 4,
            conns_per_thread: 16,
            app: App::Kv { workload: WorkloadKind::Usr, rps: 500_000.0 },
            warmup: Nanos::from_millis(8),
            measure: Nanos::from_millis(22),
            seed: 3,
            agent: true,
            ..Scenario::echo()
        }
    }

    /// Fig 9's point: 40 ms of USR from 36 clients at a 300 K rps base
    /// rate under [`Spike::default`].
    pub fn elastic() -> Scenario {
        Scenario {
            n_clients: 36,
            app: App::Kv { workload: WorkloadKind::Usr, rps: 300_000.0 },
            warmup: Nanos(0),
            measure: Nanos::from_millis(40),
            seed: 9,
            agent: false,
            spike: Some(Spike::default()),
            ..Scenario::kv()
        }
    }

    /// The switch port of the server's first NIC: the server is the
    /// first host added.
    pub fn server_port(&self) -> u16 {
        0
    }

    /// The switch port of client `k`: clients follow the server's ports.
    pub fn client_port(&self, k: usize) -> u16 {
        (self.server_ports + k) as u16
    }
}

/// Everything one [`run`] measured. A number that does not apply to the
/// scenario reads zero, `None` or empty.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Round trips (echo) or requests (KV) completed inside the window;
    /// NetPIPE: round trips completed.
    pub messages: u64,
    /// Completions since t = 0, the drain included.
    pub messages_total: u64,
    /// `messages` per second of the window.
    pub msgs_per_sec: f64,
    /// Payload goodput, Gbps: echo counts each message once, NetPIPE
    /// the transfer.
    pub goodput_gbps: f64,
    /// Mean latency, ns: echo round trip, KV request (client queueing
    /// included).
    pub avg_ns: u64,
    /// 99th-percentile latency, ns, of the same.
    pub p99_ns: u64,
    /// NetPIPE mean one-way latency, ns.
    pub one_way_ns: u64,
    /// NetPIPE finished every round trip within the budget.
    pub done: bool,
    /// Echo connections completed (n round trips + RST).
    pub conns_closed: u64,
    /// KV network + server service time (issue → response), mean ns.
    pub net_avg_ns: u64,
    /// KV network + server service time, p99 ns.
    pub net_p99_ns: u64,
    /// Unloaded-agent mean latency, ns.
    pub agent_avg_ns: u64,
    /// Unloaded-agent p99 latency, ns.
    pub agent_p99_ns: u64,
    /// Requests shed by the generator (hopeless overload indicator).
    pub shed: u64,
    /// Store operations served.
    pub store_ops: u64,
    /// Total ns threads spent waiting on the store lock.
    pub store_lock_wait_ns: u64,
    /// Modeled L3 misses per message at the rotating connection count.
    pub misses_per_msg: f64,
    /// Scheduler counters (the whole testbed: one simulator).
    pub sim: SimCounters,
    /// Server mbuf pools, summed across cores.
    pub mbuf: ix_mempool::PoolStats,
    /// Server TCP counters, summed across cores.
    pub tcp: StackStats,
    /// Server flow-table / TCB-slab occupancy, summed across shards.
    pub flows: FlowMapMem,
    /// Server live connections at the end.
    pub conns: u64,
    /// Server CPU split `(kernel_ns, user_ns)`.
    pub cpu_split: (u64, u64),
    /// Pre-stack filter verdicts summed over the server's queues.
    pub filter: ix_nic::nic::FilterStats,
    /// Server NIC descriptor-exhaustion drops.
    pub nic_ring_drops: u64,
    /// Server frames dropped at a full TX ring (the rings' own count).
    pub tx_ring_drops: u64,
    /// Engine diagnostics (batching, drops, retransmissions).
    pub debug: String,
    /// NetPIPE client TCP counters.
    pub client_tcp: StackStats,
    /// Fault-plane counters (what was actually injected).
    pub faults: FaultSnapshot,
    /// Server payload bytes received per 1 ms window (fig7).
    pub rx_windows: Vec<u64>,
    /// Smallest window at/after the fault onset over the mean pre-fault
    /// window, the first (connection ramp) excluded; 0 without a clean
    /// baseline.
    pub dip_frac: f64,
    /// Fault onset to the end of the last window below 80 % of baseline
    /// (`None` when goodput never dipped).
    pub recover_ns: Option<u64>,
    /// The final window was still below 80 % of baseline.
    pub stalled: bool,
    /// Watchdog counters when a watchdog ran.
    pub watchdog: Option<WatchdogStats>,
    /// Attack frames actually injected.
    pub attack_sent: u64,
    /// Per 1 ms window of a spike run: `(p99_ns, completed)`, p99 0 when
    /// the window is empty.
    pub series: Vec<(u64, u64)>,
    /// From the first spike onset until the last over-SLA window inside
    /// the first spike ends (0 = never violated; `None` = still
    /// violating when the spike ended).
    pub absorb_ns: Option<u64>,
    /// Over-SLA windows after the final spike ends.
    pub post_spike_violations: u64,
    /// Σ active cores × window over Σ server cores × window — the energy
    /// proxy against a static allocation.
    pub core_share: f64,
    /// Elastic controller counters.
    pub ctl: ix_core::ElasticStats,
    /// Late dials that connected.
    pub dials_ok: u64,
    /// The shard ping-pong's timed migrations, in order.
    pub migrations: Vec<MigrateReport>,
    /// Best host ns per moved flow over the timed migrations, whole pass
    /// (the minimum filters host scheduling noise).
    pub ns_per_flow: f64,
    /// Best host ns per moved flow of the absorb half alone.
    pub absorb_ns_per_flow: f64,
    /// Messages/sec in the window before the migration burst.
    pub msgs_before: f64,
    /// Messages/sec in the window after it.
    pub msgs_after: f64,
    /// Server live connections when the burst began.
    pub burst_conns: u64,
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Goodput sampling window of the fault-recovery layer.
const SAMPLE_NS: u64 = 1_000_000;
/// Latency-series window of the spike layer.
const SERIES_NS: u64 = 1_000_000;
/// Timed whole-shard migrations of the ping-pong, and the load time
/// between them.
const MIGRATIONS: usize = 8;
const SETTLE_NS: u64 = 2_000_000;

/// Runs one experiment.
pub fn run(sc: &Scenario) -> RunReport {
    let mut tb = Testbed::new(sc.seed, sc.server_ports, sc.n_clients);
    let faults = (!sc.faults.is_none()).then(|| tb.fabric.install_faults(sc.faults.clone()));
    let mut r = match sc.app {
        App::Netpipe { msg, reps } => netpipe(&mut tb, sc, msg, reps),
        _ => load(&mut tb, sc),
    };
    let engine = tb.engine();
    r.sim = tb.sim.counters();
    r.mbuf = engine.mbuf_stats();
    r.tcp = engine.tcp_stats();
    r.flows = engine.flow_mem();
    r.conns = engine.conns();
    r.cpu_split = engine.cpu_split();
    for nic in &tb.fabric.host(tb.server).nics {
        let mut n = nic.borrow_mut();
        r.tx_ring_drops += (0..n.queues()).map(|q| n.tx_ring(q).full_rejections).sum::<u64>();
        let f = n.filter_stats_total();
        r.filter.drops += f.drops;
        r.filter.passes += f.passes;
        r.filter.challenges += f.challenges;
        r.filter.drop_allocs += f.drop_allocs;
        r.nic_ring_drops += n.stats.rx_ring_drops;
    }
    r.debug = tb.debug_line();
    r.faults = faults.map(|f| f.borrow().snapshot()).unwrap_or_default();
    r
}

/// NetPIPE: the seed's one degree of freedom is the client's start
/// phase against the server's poll cadence (0–2 µs).
fn netpipe(tb: &mut Testbed, sc: &Scenario, msg: usize, reps: usize) -> RunReport {
    let port = sc.app.port();
    let start_ns = tb.sim.rng().below(2_000);
    let server_rng = tb.sim.rng().fork();
    tb.launch_server(sc.system, sc.server_cores, &sc.tuning, port, move |_| {
        NetpipeServer::new(msg).with_jitter(server_rng.clone(), 400)
    });
    let ip = tb.server_ip();
    let result = RefCell::new(None);
    // Held to the end of the run (see `launch_client`).
    let client = tb.launch_client(tb.clients[0], sc.system, 1, &sc.tuning, |_| {
        let (client, res) = NetpipeClient::new(ip, port, msg, reps, 4);
        *result.borrow_mut() = Some(res);
        client.start_after(start_ns)
    });
    let result = result.into_inner().expect("client app created");
    tb.run_until_ns(sc.measure.as_nanos());
    let res = result.borrow();
    // Without faults a stall is a bug, not a measurement.
    assert!(res.done || !sc.faults.is_none(), "NetPIPE did not finish (size {msg}, {} reps done)", res.reps);
    RunReport {
        messages: res.reps as u64,
        goodput_gbps: res.goodput_gbps(),
        one_way_ns: res.one_way_ns(),
        done: res.done,
        client_tcp: client.tcp_stats(),
        ..RunReport::default()
    }
}

/// Where the clients record what they measure.
enum Sink {
    Echo(Rc<RefCell<EchoBenchStats>>),
    Kv(Rc<RefCell<LoadStats>>, StoreRef),
}

/// Every app but NetPIPE: a Linux client fleet against the server, plus
/// the scenario's layers.
fn load(tb: &mut Testbed, sc: &Scenario) -> RunReport {
    let port = sc.app.port();
    let ramp_ns = match sc.app {
        App::Rotating { total_conns, .. } => 20_000_000 + total_conns as u64 * 1_500,
        _ => 0,
    };
    let warmup_end = ramp_ns + sc.warmup.as_nanos();
    let window_end = warmup_end + sc.measure.as_nanos();
    let stop = if sc.shard_pingpong { u64::MAX } else { window_end };
    let sink = match sc.app {
        App::Kv { .. } => {
            let stats = LoadStats::new(warmup_end, window_end);
            if sc.spike.is_some() {
                stats.borrow_mut().enable_series(0, window_end, SERIES_NS);
            }
            let store = SharedStore::new();
            tb.launch_server(sc.system, sc.server_cores, &sc.tuning, port, |_| {
                KvServer::new(store.clone())
            });
            Sink::Kv(stats, store)
        }
        _ => {
            let msg = if let App::Echo { msg, .. } = sc.app { msg } else { 64 };
            tb.launch_server(sc.system, sc.server_cores, &sc.tuning, port, |_| {
                EchoServer::new(msg, 120)
            });
            Sink::Echo(EchoBenchStats::new(warmup_end, stop))
        }
    };
    // Drop the spoofed attack range outright and run SYN cookies on the
    // service port: legitimate handshakes complete through the cookie
    // path during warmup.
    let _filter = sc.filtered.then(|| {
        use ix_net::filter::{FilterPolicy, RuleAction};
        tb.with_ix(|_, d| {
            let policy = FilterPolicy::new()
                .rule_net16(attack::attack_net_probe(), RuleAction::Drop)
                .rule_port(ix_net::ip::IpProto::Tcp, port, RuleAction::SynChallenge);
            FilterControl::install(d, policy)
        })
    });

    let ip = tb.server_ip();
    let threads_total = sc.n_clients * sc.client_threads;
    let flag = Rc::new(Cell::new(false));
    match (&sink, sc.app) {
        (Sink::Echo(st), App::Echo { msg, n_per_conn }) => {
            tb.launch_linux_clients(sc.client_threads, &sc.tuning, |_, _| {
                let mut c = EchoClient::new(ip, port, msg, n_per_conn, sc.conns_per_thread, true, st.clone());
                c.stop_at_ns = stop;
                c
            })
        }
        (Sink::Echo(st), App::Rotating { total_conns, outstanding }) => {
            let per_thread = total_conns.div_ceil(threads_total);
            // The ping-pong's connect storm is amortized: each client
            // thread dials in its own wave inside the first quarter of
            // the ramp, in bounded batches.
            let wave_ns = (ramp_ns / 4) / threads_total as u64;
            tb.launch_linux_clients(sc.client_threads, &sc.tuning, |ci, t| {
                let mut c = RotatingEchoClient::new(ip, port, 64, per_thread, outstanding, st.clone());
                if sc.shard_pingpong {
                    c.ramp_batch = 128;
                    c.dial_at_ns = ((ci * sc.client_threads + t) as u64) * wave_ns;
                    c.start_at_ns = ramp_ns;
                } else {
                    c.start_at_ns = ramp_ns.saturating_sub(5_000_000);
                }
                c.stop_at_ns = stop;
                c
            })
        }
        (Sink::Kv(ls, _), App::Kv { workload, rps }) => {
            let rate = rps / threads_total as f64;
            let burst = sc.spike.map(|s| s.burst_rps / threads_total as f64);
            let wl = Workload::new(workload);
            let mut seeder = SimRng::new(sc.seed.wrapping_mul(0x9e37));
            tb.launch_linux_clients(sc.client_threads, &sc.tuning, |_, _| {
                let mut c =
                    MutilateClient::new(ip, port, sc.conns_per_thread, rate, wl.clone(), seeder.fork(), ls.clone());
                c.stop_at_ns = stop;
                c.burst = burst.map(|b| (flag.clone(), b));
                c
            });
            if sc.agent {
                let id = tb.fabric.add_host(1, 2, 0);
                let mut agent = MutilateAgent::new(ip, port, wl, SimRng::new(sc.seed.wrapping_add(99)), ls.clone());
                agent.stop_at_ns = stop;
                let mut agent = Some(agent);
                tb.launch_client(id, System::Linux, 1, &sc.tuning, |_| agent.take().expect("one agent thread"));
            }
        }
        _ => unreachable!("the sink follows the app"),
    }
    // The attacker puts raw frames straight onto its own switch port, so
    // the flood shares links exactly like a real tenant.
    let attack = sc.attack.map(|(kind, pps)| {
        let id = tb.fabric.add_host(1, 8, 0);
        let server = tb.fabric.host(tb.server);
        let cfg = AttackConfig {
            kind,
            pps,
            target_ip: server.ip,
            target_mac: server.mac,
            target_port: port,
            start_ns: warmup_end,
            stop_ns: window_end,
            seed: sc.seed ^ 0x5eed,
        };
        attack::launch(&mut tb.sim, tb.fabric.host(id).nics[0].clone(), cfg)
    });
    let dials_ok = Rc::new(Cell::new(0usize));
    if let Some(s) = sc.spike.filter(|s| s.late_dials > 0) {
        let id = tb.fabric.add_host(1, 8, 0);
        let tuning = EngineTuning {
            stack: StackConfig { syn_rto_ns: 200_000, ..sc.tuning.stack.clone() },
            ..sc.tuning.clone()
        };
        tb.launch_client(id, System::Linux, 1, &tuning, |_| WaveDialer {
            server: ip,
            port,
            at_ns: s.dial_at.as_nanos(),
            want: s.late_dials,
            launched: 0,
            next_user: 0,
            ok: dials_ok.clone(),
        });
    }
    let transitions = sc.spike.map(|s| {
        let rng = SimRng::new(sc.seed ^ 0x4d4d5050);
        let (on, off) = (s.mean_on.as_nanos(), s.mean_off.as_nanos());
        crate::mutilate::start_mmpp(&mut tb.sim, flag.clone(), rng, s.spike_start.as_nanos(), on, off, window_end)
    });
    let samples = Rc::new(RefCell::new(Vec::new()));
    if sc.fault_from.is_some() {
        let (engine, out) = (tb.engine().clone(), samples.clone());
        tb.sim.schedule_in(Nanos(SAMPLE_NS), move |sim| sample_tick(sim, engine, out, window_end, 0));
    }
    let watchdog = sc.watchdog.and_then(|p| {
        tb.with_ix(|sim, d| ixcp::start_queue_watchdog(sim, d, p.as_nanos(), window_end, None).0)
    });
    // The control loop outlives the load by the drain, so the admission
    // gate lifts once the backlog clears and shed dials land.
    let drain_ns = Nanos::from_millis(if sc.spike.is_some() { 4 } else if let Sink::Kv(..) = sink { 3 } else { 2 });
    let ctl = sc.spike.filter(|s| s.controller).map(|s| {
        tb.with_ix(|sim, dp| {
            let fc = s
                .admission_gate
                .then(|| Rc::new(FilterControl::install(dp, ix_net::filter::FilterPolicy::new())));
            ixcp::set_active_threads(sim, dp, s.initial_active, fc.as_deref());
            let deadline = window_end + drain_ns.as_nanos();
            let (_, health) = ixcp::start_queue_watchdog(sim, dp, 1_000_000, deadline, fc.clone());
            let cfg = ix_core::ElasticConfig {
                shed_port: s.admission_gate.then_some(port),
                ..ix_core::ElasticConfig::default()
            };
            ixcp::start_elastic_controller(sim, dp, cfg, fc, Some(health), deadline)
        })
        .expect("the elastic controller drives an IX server")
    });
    // Active cores at the end of each series window.
    let active = Rc::new(RefCell::new(Vec::new()));
    if sc.spike.is_some() {
        let Some(ServerEngine::Ix(d)) = &tb.engine else { panic!("the spike layer drives an IX server") };
        for k in 0..window_end.div_ceil(SERIES_NS) {
            let (active, threads) = (active.clone(), d.threads.clone());
            tb.sim.schedule_in(Nanos((k + 1) * SERIES_NS - 1), move |_| {
                active.borrow_mut().push(threads.iter().filter(|t| !t.borrow().parked).count());
            });
        }
    }

    let mut r = RunReport::default();
    if sc.shard_pingpong {
        let Sink::Echo(st) = &sink else { unreachable!("the ping-pong rotates echo connections") };
        shard_pingpong(tb, sc, st, warmup_end, &mut r);
    } else {
        tb.run_until_ns(window_end + drain_ns.as_nanos());
    }
    match &sink {
        Sink::Echo(s) => {
            let s = s.borrow();
            r.messages = s.messages;
            r.messages_total = s.messages_total;
            r.avg_ns = s.rtt.mean().as_nanos();
            r.p99_ns = s.rtt.p99().as_nanos();
            r.conns_closed = s.conns_closed;
        }
        Sink::Kv(s, store) => {
            let s = s.borrow();
            r.messages = s.completed;
            r.messages_total = s.completed_total;
            r.avg_ns = s.latency.mean().as_nanos();
            r.p99_ns = s.latency.p99().as_nanos();
            r.net_avg_ns = s.net_latency.mean().as_nanos();
            r.net_p99_ns = s.net_latency.p99().as_nanos();
            r.agent_avg_ns = s.agent_latency.mean().as_nanos();
            r.agent_p99_ns = s.agent_latency.p99().as_nanos();
            r.shed = s.shed;
            (r.store_ops, r.store_lock_wait_ns) = (store.borrow().ops, store.borrow().lock_wait_ns);
            if let Some(series) = &s.series {
                r.series = series
                    .windows
                    .iter()
                    .zip(&series.counts)
                    .map(|(h, &n)| (if h.count() > 0 { h.p99().as_nanos() } else { 0 }, n))
                    .collect();
            }
        }
    }
    r.msgs_per_sec = r.messages as f64 / sc.measure.as_secs_f64();
    match sc.app {
        App::Echo { msg, .. } => r.goodput_gbps = r.msgs_per_sec * (msg as f64 * 8.0) / 1e9,
        App::Rotating { total_conns, .. } => {
            r.misses_per_msg =
                ix_nic::cache::DdioModel::new(tb.fabric.params()).misses_per_message(total_conns as u64)
        }
        _ => {}
    }
    if let Some(from) = sc.fault_from {
        recovery(&mut r, samples.take(), from.as_nanos());
    }
    if let Some(log) = transitions {
        let transitions = log.borrow();
        spike_metrics(&mut r, &transitions, &active.borrow(), window_end, sc.server_cores);
    }
    r.attack_sent = attack.map_or(0, |a| a.borrow().sent);
    r.watchdog = watchdog.map(|w| *w.borrow());
    r.ctl = ctl.map(|c| *c.borrow()).unwrap_or_default();
    r.dials_ok = dials_ok.get() as u64;
    r
}

/// The fig9-scale timeline: a pre-window of load, the untimed
/// consolidation onto core 0, [`MIGRATIONS`] timed whole-shard moves
/// with [`SETTLE_NS`] of load after each, and a post-window.
fn shard_pingpong(
    tb: &mut Testbed,
    sc: &Scenario,
    stats: &Rc<RefCell<EchoBenchStats>>,
    warmup_end: u64,
    r: &mut RunReport,
) {
    let measure = sc.measure.as_nanos();
    let total = || stats.borrow().messages_total;
    tb.run_until_ns(warmup_end);
    let m0 = total();
    tb.run_until_ns(warmup_end + measure);
    let m1 = total();
    r.burst_conns = tb.engine().conns();
    let migrate = |tb: &mut Testbed, core: usize| {
        tb.with_ix(|sim, d| ixcp::reprogram_and_migrate(sim, d, vec![core; 128], None))
            .expect("the shard ping-pong drives an IX server")
    };
    migrate(tb, 0);
    for i in 0..MIGRATIONS {
        r.migrations.push(migrate(tb, 1 - i % 2));
        let now = tb.sim.now().as_nanos();
        tb.run_until_ns(now + SETTLE_NS);
    }
    let t2 = tb.sim.now().as_nanos();
    let m2 = total();
    tb.run_until_ns(t2 + measure);
    let m3 = total();
    let secs = sc.measure.as_secs_f64();
    r.msgs_before = (m1 - m0) as f64 / secs;
    r.msgs_after = (m3 - m2) as f64 / secs;
    let per_flow = |ns: fn(&MigrateReport) -> u64| {
        r.migrations
            .iter()
            .map(|m| ns(m) as f64 / m.moved.max(1) as f64)
            .fold(f64::INFINITY, f64::min)
    };
    (r.ns_per_flow, r.absorb_ns_per_flow) = (per_flow(|m| m.host_ns), per_flow(|m| m.absorb_ns));
}

/// Pushes the server's cumulative payload-byte delta every
/// [`SAMPLE_NS`] until `end`.
fn sample_tick(sim: &mut Simulator, engine: ServerEngine, out: Rc<RefCell<Vec<u64>>>, end: u64, last: u64) {
    let mut cur = 0;
    engine.for_each_shard(|s| cur += s.stats.bytes_rx);
    out.borrow_mut().push(cur - last);
    if sim.now().as_nanos() + SAMPLE_NS <= end {
        sim.schedule_in(Nanos(SAMPLE_NS), move |sim| sample_tick(sim, engine, out, end, cur));
    }
}

/// Fig 7's dip and recovery from the goodput windows.
fn recovery(r: &mut RunReport, per: Vec<u64>, fault_from: u64) {
    let fault_idx = (fault_from / SAMPLE_NS) as usize;
    // A fault from (or before) the first window leaves no clean
    // baseline: the dip metrics read zero.
    let pre_from = 1.min(per.len());
    let pre = &per[pre_from..fault_idx.clamp(pre_from, per.len())];
    let baseline = if pre.is_empty() { 0.0 } else { pre.iter().sum::<u64>() as f64 / pre.len() as f64 };
    let after = &per[fault_idx.min(per.len())..];
    let min_bytes = after.iter().copied().min().unwrap_or(0);
    r.dip_frac = if baseline > 0.0 { min_bytes as f64 / baseline } else { 0.0 };
    let last_below = after.iter().rposition(|&v| (v as f64) < 0.8 * baseline);
    r.stalled = matches!(last_below, Some(i) if i + 1 == after.len());
    r.recover_ns = last_below.map(|i| (i as u64 + 1) * SAMPLE_NS);
    r.rx_windows = per;
}

/// Fig 9's absorb time, post-spike violations and core-time share.
fn spike_metrics(r: &mut RunReport, transitions: &[(u64, bool)], active: &[usize], end: u64, cores: usize) {
    let sla_ns = ix_core::ElasticConfig::default().sla_ns;
    let over = |k: usize| r.series[k].0 > sla_ns;
    let start = |k: usize| k as u64 * SERIES_NS;
    // Within the first spike, when does the last over-SLA window end?
    let first_on = transitions.iter().find(|t| t.1).map(|t| t.0);
    let first_off = transitions.iter().find(|t| !t.1 && Some(t.0) > first_on).map_or(end, |t| t.0);
    let last_over = first_on.map(|on| {
        let inside = |k: usize| start(k) + SERIES_NS > on && start(k) < first_off;
        (on, (0..r.series.len()).rev().find(|&k| inside(k) && over(k)))
    });
    r.absorb_ns = match last_over {
        None | Some((_, None)) => Some(0),
        // Violating in the spike's final window = never absorbed.
        Some((on, Some(k))) => (start(k) + 2 * SERIES_NS < first_off).then(|| start(k) + SERIES_NS - on),
    };
    // Windows after the final spike ended, one window of grace for
    // in-flight requests, must stay under SLA.
    let final_off = transitions.iter().rev().find(|t| !t.1).map_or(end, |t| t.0);
    r.post_spike_violations =
        (0..r.series.len()).filter(|&k| start(k) >= final_off + SERIES_NS && over(k)).count() as u64;
    let core_ns: u64 = (0..r.series.len()).map(|k| active.get(k).copied().unwrap_or(0) as u64 * SERIES_NS).sum();
    r.core_share = core_ns as f64 / (cores as u64 * end) as f64;
}

/// Dials `want` connections starting at `at_ns` and redials any whose
/// SYN is shed until all land — the connection churn the admission gate
/// turns away during overload.
struct WaveDialer {
    server: ix_net::Ipv4Addr,
    port: u16,
    at_ns: u64,
    want: usize,
    launched: usize,
    next_user: u64,
    ok: Rc<Cell<usize>>,
}

impl LibixHandler for WaveDialer {
    fn on_tick(&mut self, ctx: &mut ix_core::libix::LibixCtx<'_>) {
        if ctx.now_ns >= self.at_ns && self.launched < self.want {
            ctx.connect(self.server, self.port, self.next_user);
            self.next_user += 1;
            self.launched += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ix_core::libix::ConnCtx<'_>, ok: bool) {
        if ok {
            self.ok.set(self.ok.get() + 1);
            ctx.abort();
        } else {
            self.launched -= 1;
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        self.ok.get() < self.want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault plans are keyed by switch port, and callers take those ports
    /// from the scenario: if host creation is ever reordered, the helpers
    /// must stop matching the fabric `run` assembles.
    #[test]
    fn port_helpers_match_the_assembled_fabric() {
        for server_ports in [1, 4] {
            let sc = Scenario { server_ports, n_clients: 3, ..Scenario::kv() };
            let tb = Testbed::new(sc.seed, sc.server_ports, sc.n_clients);
            assert_eq!(sc.server_port(), tb.fabric.host_port(tb.server, 0));
            for (k, &id) in tb.clients.iter().enumerate() {
                assert_eq!(sc.client_port(k), tb.fabric.host_port(id, 0), "client {k}, {server_ports} server ports");
            }
        }
    }
}
