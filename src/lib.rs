//! # ix — a Rust reproduction of the IX dataplane operating system
//!
//! IX (Belay et al., OSDI 2014) is a protected dataplane OS that splits
//! the kernel into a Linux control plane and per-application dataplanes
//! running a TCP/IP stack and the application over dedicated cores and
//! NIC queues, with a native zero-copy batched-syscall API.
//!
//! This crate re-exports the whole reproduction:
//!
//! * [`core`](ix_core) — the IX dataplane itself: elastic threads, the
//!   run-to-completion cycle with adaptive batching, the Table 1 API,
//!   `libix`, the IXCP control plane, and RCU.
//! * [`tcp`](ix_tcp) — the from-scratch TCP/IP stack (lwIP stand-in).
//! * [`nic`](ix_nic) — the simulated hardware: multi-queue NICs with
//!   Toeplitz RSS, descriptor rings, links, the cut-through switch, and
//!   the DDIO cache model.
//! * [`faults`](ix_faults) — the scripted fault plane: per-link loss,
//!   burst loss, flaps, corruption, reordering, and NIC queue hangs,
//!   all deterministic from `(plan, seed)`.
//! * [`baselines`](ix_baselines) — the Linux and mTCP execution models
//!   the paper compares against.
//! * [`apps`](ix_apps) — echo/NetPIPE/memcached applications, Facebook
//!   ETC/USR workloads, the mutilate-style load generator, and the
//!   experiment harness.
//! * [`sim`](ix_sim), [`net`](ix_net), [`mempool`](ix_mempool),
//!   [`timerwheel`](ix_timerwheel) — supporting substrates.
//!
//! ## Quickstart
//!
//! ```
//! use ix::apps::harness::{run, Scenario};
//!
//! // One-way latency of a 64-byte ping-pong between two IX hosts.
//! let one_way_ns = run(&Scenario::netpipe(64, 10)).one_way_ns;
//! assert!(one_way_ns > 3_000 && one_way_ns < 10_000);
//! ```
//!
//! See `examples/` for runnable programs and `crates/bench/src/bin/` for
//! the per-figure reproduction harness.

pub use ix_apps as apps;
pub use ix_baselines as baselines;
pub use ix_core as core;
pub use ix_faults as faults;
pub use ix_mempool as mempool;
pub use ix_net as net;
pub use ix_nic as nic;
pub use ix_sim as sim;
pub use ix_tcp as tcp;
pub use ix_testkit as testkit;
pub use ix_timerwheel as timerwheel;
