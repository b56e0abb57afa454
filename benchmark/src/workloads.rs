//! The five workloads: what each is, how its testbed is assembled from
//! the repository's public constructors, and how its counters are read.
//!
//! Every testbed is an IX server with Linux-model clients on one
//! simulated switch, all inside this thread. Engine settings are
//! `EngineTuning::default()` throughout: the benchmark sets no knob, so
//! it follows whatever the default path is.

use std::cell::RefCell;
use std::rc::Rc;

use ix_apps::echo::{EchoBenchStats, EchoClient, EchoServer, RotatingEchoClient};
use ix_apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix_apps::kvstore::{KvServer, SharedStore, StoreRef};
use ix_apps::mutilate::{LoadStats, MutilateAgent, MutilateClient};
use ix_apps::workload::{Workload, WorkloadKind};
use ix_baselines::linux::LinuxHost;
use ix_core::api::IxApp;
use ix_core::dataplane::DataplaneStats;
use ix_core::libix::{Libix, LibixHandler};
use ix_mempool::PoolStats;
use ix_sim::{Histogram, SimCounters, SimRng};
use ix_tcp::{FlowMapMem, StackStats};

use crate::trace::{Rec, Tally, Traced};

/// The application pair a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// Closed-loop echo: every connection does `n_per_conn` round trips
    /// of `msg` bytes, closes with RST and reopens.
    Echo {
        /// Message size, bytes.
        msg: usize,
        /// Round trips per connection.
        n_per_conn: usize,
    },
    /// Closed-loop 64 B echo rotating `outstanding` RPCs per client
    /// thread over a large set of established connections.
    Rotating {
        /// RPCs in flight per client thread.
        outstanding: usize,
    },
    /// Open-loop memcached ETC mix at `rps` requests per virtual second.
    KvEtc {
        /// Offered load, requests per virtual second.
        rps: f64,
    },
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The applications and their traffic shape.
    pub app: App,
    /// Server elastic threads.
    pub cores: usize,
    /// Server 10GbE ports.
    pub ports: usize,
    /// Client machines.
    pub clients: usize,
    /// Handler threads per client machine.
    pub threads: usize,
    /// Connections across all client threads.
    pub conns: usize,
    /// Virtual time from t = 0 to the start of the window: connection
    /// ramp plus warm-up. Runs inside `setup_s`.
    pub warmup_ns: u64,
    /// Virtual nanoseconds simulated per `--seconds` second. A constant,
    /// so the window is the same virtual duration on every commit; sized
    /// on the 2-core reference box so that it takes a little over one
    /// host second there.
    pub virt_ns_per_s: u64,
    /// How many times a run sets up; `setup_s` is the median.
    pub setups: usize,
}

const ECHO_PORT: u16 = 7000;
const KV_PORT: u16 = 11211;
/// Echo server CPU per request, as every echo figure uses.
const ECHO_SERVICE_NS: u64 = 120;
/// Virtual time a run may take after the window for replies in flight.
pub const DRAIN_NS: u64 = 20_000_000;

/// The workloads, in the order a set runs them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "echo_small",
        why: "64 B closed-loop echo on 2304 persistent connections: per-packet cost in tcp, nic, sim and core does all the work",
        app: App::Echo {
            msg: 64,
            n_per_conn: 1024,
        },
        cores: 8,
        ports: 1,
        clients: 18,
        threads: 8,
        conns: 2304,
        warmup_ns: 6_000_000,
        virt_ns_per_s: 13_000_000,
        setups: 5,
    },
    Spec {
        name: "echo_churn",
        why: "one 64 B message per connection: SYN, data, RST; flow-table insert/remove, TCB slab, timer arm/cancel, connect/accept",
        app: App::Echo {
            msg: 64,
            n_per_conn: 1,
        },
        cores: 8,
        ports: 1,
        clients: 18,
        threads: 8,
        conns: 2304,
        warmup_ns: 6_000_000,
        virt_ns_per_s: 12_000_000,
        setups: 5,
    },
    Spec {
        name: "echo_bulk",
        why: "8 KiB messages, six MSS frames each way, link-bound: checksum, payload write, segmentation and ACK clocking; per-message fixed costs diluted",
        app: App::Echo {
            msg: 8192,
            n_per_conn: 1024,
        },
        cores: 8,
        ports: 1,
        clients: 18,
        threads: 8,
        // One port and two connections per client thread. Six frames per
        // message each way: at 576 connections a core's burst of replies
        // overflows its 512-entry TX ring and the dataplane drops frames;
        // and over four bonded ports the server's round-robin TX reorders
        // a message's segments, which the clients answer with duplicate
        // ACKs and the server with fast retransmits, on a fabric that
        // lost nothing. Neither belongs in a workload meant to be clean.
        conns: 288,
        warmup_ns: 12_000_000,
        virt_ns_per_s: 110_000_000,
        setups: 5,
    },
    Spec {
        name: "kv_etc",
        why: "memcached ETC mix, open loop at 1.0 M requests/s: batches near 1, so per-cycle work, scheduler events, pacing timers and KV parse/store dominate",
        app: App::KvEtc { rps: 1_000_000.0 },
        cores: 6,
        ports: 1,
        clients: 23,
        threads: 4,
        conns: 1472,
        warmup_ns: 8_000_000,
        virt_ns_per_s: 65_000_000,
        setups: 5,
    },
    Spec {
        name: "conn_scale",
        why: "100 000 established connections, 64 B rotating echo: flow table and TCBs far beyond cache; peak RSS is the headline",
        app: App::Rotating { outstanding: 3 },
        cores: 8,
        ports: 4,
        clients: 18,
        threads: 8,
        conns: 100_000,
        warmup_ns: 40_000_000,
        virt_ns_per_s: 24_000_000,
        setups: 3,
    },
];

impl Spec {
    /// Application bytes per message and direction, where fixed.
    pub fn msg_bytes(&self) -> Option<u64> {
        match self.app {
            App::Echo { msg, .. } => Some(msg as u64),
            App::Rotating { .. } => Some(64),
            App::KvEtc { .. } => None,
        }
    }
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Which side of the wire a handler sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The IX server application.
    Server,
    /// A load-generating client application.
    Client,
}

/// How application handlers are installed: bare, or inside the span
/// decorator. A type-level switch so the untraced testbed contains no
/// decorator at all, not a disabled one.
pub trait Wrap {
    /// The handler type actually launched.
    type Out<H: LibixHandler + 'static>: LibixHandler + 'static;
    /// Installs `h`.
    fn wrap<H: LibixHandler + 'static>(&self, h: H, side: Side) -> Self::Out<H>;
}

/// Untraced: the application itself.
pub struct Bare;

impl Wrap for Bare {
    type Out<H: LibixHandler + 'static> = H;
    fn wrap<H: LibixHandler + 'static>(&self, h: H, _side: Side) -> H {
        h
    }
}

/// Traced: every callback becomes a span and its payload is tallied.
pub struct Spans {
    /// Where spans go.
    pub rec: Rec,
    /// What the server applications received.
    pub server: Rc<Tally>,
    /// What the client applications received.
    pub client: Rc<Tally>,
    /// Echo payloads are zero-filled; KV payloads are not.
    pub check_zero: bool,
}

impl Wrap for Spans {
    type Out<H: LibixHandler + 'static> = Traced<H>;
    fn wrap<H: LibixHandler + 'static>(&self, h: H, side: Side) -> Traced<H> {
        let (name, tally) = match side {
            Side::Server => ("apps.server", self.server.clone()),
            Side::Client => ("apps.client", self.client.clone()),
        };
        Traced::new(h, self.rec.clone(), name, tally, self.check_zero)
    }
}

/// The clients' shared measurement sink.
pub enum Sink {
    /// Echo workloads.
    Echo(Rc<RefCell<EchoBenchStats>>),
    /// `kv_etc`: load statistics and the server's store.
    Kv(Rc<RefCell<LoadStats>>, StoreRef),
}

/// An assembled testbed, not yet run.
pub struct Bench {
    /// The workload.
    pub spec: &'static Spec,
    /// Server, clients, switch and simulator.
    pub tb: Testbed,
    /// Client-side statistics.
    pub sink: Sink,
    /// Virtual instant the window opens.
    pub window_start: u64,
    /// Virtual instant the window closes; clients stop issuing here.
    pub window_end: u64,
}

/// Splits `spec.conns` connections over the client threads. The split is
/// the seed's input to the closed-loop workloads, which draw no random
/// numbers of their own: the total is fixed, but which thread — hence
/// which source address and RSS bucket — carries how many is not.
fn shares(spec: &Spec, seed: u64) -> Vec<usize> {
    let n = spec.clients * spec.threads;
    let mut rng = SimRng::new(seed ^ 0x5eed_5a17);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let base = spec.conns / n;
    let mut out = vec![base; n];
    for &i in &order[..spec.conns % n] {
        out[i] += 1;
    }
    // Pairs of threads trade up to an eighth of their connections.
    let most = (base / 8).max(1) as u64;
    for pair in order.chunks_exact(2) {
        let d = rng.below(most + 1) as usize;
        out[pair[0]] += d;
        out[pair[1]] -= d;
    }
    debug_assert_eq!(out.iter().sum::<usize>(), spec.conns);
    out
}

/// Builds the testbed for `spec` with a window of `window_ns` virtual
/// nanoseconds. Nothing has run yet when this returns.
pub fn assemble<W: Wrap>(spec: &'static Spec, seed: u64, window_ns: u64, wrap: &W) -> Bench {
    let tuning = EngineTuning::default();
    let mut tb = Testbed::new(seed, spec.ports, spec.clients);
    let window_start = spec.warmup_ns;
    let window_end = window_start + window_ns;
    let share = shares(spec, seed);
    let threads = spec.threads;
    let sink = match spec.app {
        App::Echo { msg, n_per_conn } => {
            let stats = EchoBenchStats::new(window_start, window_end);
            tb.launch_server(System::Ix, spec.cores, &tuning, ECHO_PORT, |_| {
                wrap.wrap(EchoServer::new(msg, ECHO_SERVICE_NS), Side::Server)
            });
            let ip = tb.server_ip();
            let st = stats.clone();
            tb.launch_linux_clients(threads, &tuning, |ci, t| {
                let conns = share[ci * threads + t];
                let mut c =
                    EchoClient::new(ip, ECHO_PORT, msg, n_per_conn, conns, true, st.clone());
                c.stop_at_ns = window_end;
                wrap.wrap(c, Side::Client)
            });
            Sink::Echo(stats)
        }
        App::Rotating { outstanding } => {
            let stats = EchoBenchStats::new(window_start, window_end);
            tb.launch_server(System::Ix, spec.cores, &tuning, ECHO_PORT, |_| {
                wrap.wrap(EchoServer::new(64, ECHO_SERVICE_NS), Side::Server)
            });
            let ip = tb.server_ip();
            let st = stats.clone();
            // Each thread dials in its own wave, a few connections at a
            // time, so the server's accept path never sees a SYN burst
            // deep enough to drop one: a dropped SYN waits 500 ms for its
            // retransmission and the connection would miss the window.
            let ramp_ns = spec.warmup_ns - 10_000_000;
            let wave_ns = (ramp_ns / 2) / (spec.clients * threads) as u64;
            tb.launch_linux_clients(threads, &tuning, |ci, t| {
                let k = ci * threads + t;
                let mut c =
                    RotatingEchoClient::new(ip, ECHO_PORT, 64, share[k], outstanding, st.clone());
                c.ramp_batch = 16;
                c.dial_at_ns = k as u64 * wave_ns;
                c.start_at_ns = ramp_ns;
                c.stop_at_ns = window_end;
                wrap.wrap(c, Side::Client)
            });
            Sink::Echo(stats)
        }
        App::KvEtc { rps } => {
            let stats = LoadStats::new(0, u64::MAX);
            let store = SharedStore::new();
            let st = store.clone();
            tb.launch_server(System::Ix, spec.cores, &tuning, KV_PORT, |_| {
                wrap.wrap(KvServer::new(st.clone()), Side::Server)
            });
            let ip = tb.server_ip();
            let workload = Workload::new(WorkloadKind::Etc);
            let rate = rps / (spec.clients * threads) as f64;
            let mut seeder = SimRng::new(seed.wrapping_mul(0x9e37));
            let (ls, wl) = (stats.clone(), workload.clone());
            tb.launch_linux_clients(threads, &tuning, |ci, t| {
                let conns = share[ci * threads + t];
                let mut c = MutilateClient::new(
                    ip,
                    KV_PORT,
                    conns,
                    rate,
                    wl.clone(),
                    seeder.fork(),
                    ls.clone(),
                );
                c.stop_at_ns = window_end;
                wrap.wrap(c, Side::Client)
            });
            // The unloaded latency sampler on a host of its own (§5.5).
            let mut agent = MutilateAgent::new(
                ip,
                KV_PORT,
                workload,
                SimRng::new(seed.wrapping_add(99)),
                stats.clone(),
            );
            agent.stop_at_ns = window_end;
            let mut agent = Some(wrap.wrap(agent, Side::Client));
            let agent_id = tb.fabric.add_host(1, 2, 0);
            let (sip, smac) = (tb.fabric.host(tb.server).ip, tb.fabric.host(tb.server).mac);
            let host = tb.fabric.host(agent_id);
            let lh = LinuxHost::launch(
                &mut tb.sim,
                host,
                1,
                tuning.linux.clone(),
                tuning.stack.clone(),
                None,
                |_| Box::new(Libix::new(agent.take().expect("one agent thread"))) as Box<dyn IxApp>,
            );
            lh.seed_arp(sip, smac);
            ix(&tb).seed_arp(host.ip, host.mac);
            Sink::Kv(stats, store)
        }
    };
    Bench {
        spec,
        tb,
        sink,
        window_start,
        window_end,
    }
}

/// The server's dataplane.
fn ix(tb: &Testbed) -> &ix_core::dataplane::Dataplane {
    match tb.engine.as_ref().expect("server launched") {
        ServerEngine::Ix(d) => d,
        _ => unreachable!("every workload runs the IX server"),
    }
}

/// Everything the public stat structs expose, read at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Scheduler counters (whole testbed: one simulator).
    pub sim: SimCounters,
    /// Frames the server's ports received plus sent.
    pub srv_frames: u64,
    /// Bytes the server's ports received plus sent.
    pub srv_bytes: u64,
    /// Frames put on the wire by every port of every host.
    pub wire_frames: u64,
    /// RX-ring drops on every port of every host.
    pub ring_drops: u64,
    /// Server mbuf pools, summed over shards.
    pub pool: PoolStats,
    /// Server TCP counters, summed over shards.
    pub tcp: StackStats,
    /// Server flow-table occupancy, summed over shards.
    pub flows: FlowMapMem,
    /// Server dataplane counters, summed over elastic threads.
    pub dp: DataplaneStats,
    /// Server `(kernel_ns, user_ns)` of virtual CPU.
    pub cpu: (u64, u64),
    /// Messages the clients have completed since t = 0.
    pub msgs: u64,
    /// KV store operations served and virtual ns spent waiting for its
    /// lock (zero for echo workloads).
    pub kv: (u64, u64),
    /// Requests the unloaded KV agent has completed since t = 0.
    pub agent: u64,
}

impl Bench {
    /// Reads every counter.
    pub fn counters(&self) -> Counters {
        let engine = self.tb.engine.as_ref().expect("server launched");
        let (mut srv_frames, mut srv_bytes, mut wire_frames, mut ring_drops) = (0, 0, 0, 0);
        for host in &self.tb.fabric.hosts {
            for nic in &host.nics {
                let s = nic.borrow().stats;
                wire_frames += s.tx_frames;
                ring_drops += s.rx_ring_drops;
                if host.id == self.tb.server {
                    srv_frames += s.rx_frames + s.tx_frames;
                    srv_bytes += s.rx_bytes + s.tx_bytes;
                }
            }
        }
        let (msgs, kv, agent) = match &self.sink {
            Sink::Echo(s) => (s.borrow().messages_total, (0, 0), 0),
            Sink::Kv(s, store) => {
                let (s, st) = (s.borrow(), store.borrow());
                (
                    s.completed_total,
                    (st.ops, st.lock_wait_ns),
                    s.agent_latency.count(),
                )
            }
        };
        Counters {
            sim: self.tb.sim.counters(),
            srv_frames,
            srv_bytes,
            wire_frames,
            ring_drops,
            pool: engine.mbuf_stats(),
            tcp: engine.tcp_stats(),
            flows: engine.flow_mem(),
            dp: ix(&self.tb).stats(),
            cpu: engine.cpu_split(),
            msgs,
            kv,
            agent,
        }
    }

    /// Called when the window opens. The KV sink's window is the whole
    /// run, so that the unloaded agent's completions can all be counted
    /// (the store serves them too); its load-latency histograms restart
    /// here so that they describe the window alone.
    pub fn open_window(&self) {
        if let Sink::Kv(s, _) = &self.sink {
            let mut s = s.borrow_mut();
            s.latency.clear();
            s.net_latency.clear();
        }
    }

    /// Connections the server currently holds.
    pub fn server_conns(&self) -> u64 {
        ix(&self.tb).host_conns.get()
    }

    /// The latency histogram the clients filled inside the window:
    /// round-trip time for echo, open-loop request latency for KV.
    pub fn with_latency<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        match &self.sink {
            Sink::Echo(s) => f(&s.borrow().rtt),
            Sink::Kv(s, _) => f(&s.borrow().latency),
        }
    }

    /// Requests the open-loop generator shed (zero for closed loops).
    pub fn shed(&self) -> u64 {
        match &self.sink {
            Sink::Echo(_) => 0,
            Sink::Kv(s, _) => s.borrow().shed,
        }
    }
}
