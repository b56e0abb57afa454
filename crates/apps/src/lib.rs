//! Applications and workloads for the IX evaluation (§5).
//!
//! Everything here is written against [`ix_core::libix`]'s event API and
//! is therefore engine-agnostic: the same application binary runs on the
//! IX dataplane, the Linux model, and the mTCP model — exactly how §5
//! compares the three systems.
//!
//! * [`echo`] — the §5.3 microbenchmark: clients connect, perform `n`
//!   synchronous round trips of `s` bytes, and close with RST; plus the
//!   echo server.
//! * [`netpipe`] — the §5.2 NetPIPE ping-pong for latency/bandwidth of a
//!   single flow.
//! * [`kvstore`] — a memcached-style in-memory key-value store over a
//!   binary protocol, with an application-level store lock that models
//!   the contention the paper says limits ETC scaling (§5.5).
//! * [`workload`] — the Facebook ETC and USR workload definitions from
//!   Atikoglu et al. as the paper configures them, plus the wire
//!   protocol used between the KV store and its clients.
//! * [`mutilate`] — the mutilate-style load generator: open-loop Poisson
//!   arrivals across many connections with bounded pipelining, and the
//!   separate one-at-a-time latency-sampling agent (§5.5).
//! * [`harness`] — the §5.1 cluster (clients + switch + server) for any
//!   of the three systems, and the one experiment runner: a plain-data
//!   [`Scenario`] in, a [`RunReport`] out; used by integration tests and
//!   every figure bench.

pub mod attack;
pub mod echo;
pub mod harness;
pub mod kvstore;
pub mod mutilate;
pub mod netpipe;
pub mod workload;

pub use attack::{AttackConfig, AttackKind, AttackStats};
pub use echo::{EchoBenchStats, EchoClient, EchoServer};
pub use harness::{run, App, RunReport, Scenario, Spike, System, Testbed};
pub use kvstore::{KvServer, SharedStore};
pub use mutilate::{LoadStats, MutilateAgent, MutilateClient};
pub use netpipe::{NetpipeClient, NetpipeResult, NetpipeServer};
pub use workload::{Workload, WorkloadKind};
