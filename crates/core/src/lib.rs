//! The IX dataplane operating system — the paper's primary contribution.
//!
//! IX separates the **control plane** (a full Linux kernel plus the IXCP
//! policy daemon; here [`ixcp`]) from per-application **dataplanes**:
//! protected, single-address-space library OSes that run the TCP/IP stack
//! and the application on dedicated hardware threads with dedicated NIC
//! queues. This crate implements the dataplane architecture of §3–§4:
//!
//! * [`api`] — the native, zero-copy syscall / event-condition interface
//!   of Table 1 (`connect`, `accept`, `sendv`, `recv_done`, `close`; and
//!   `knock`, `connected`, `recv`, `sent`, `dead`), plus the protection
//!   model's syscall validation.
//! * [`dataplane`] — elastic threads running the Fig 1b run-to-completion
//!   cycle with adaptive, bounded batching; per-thread memory pools,
//!   queues, and timers; VMX-transition cost accounting; CPU-time split
//!   between dataplane ("kernel") and application ("user") domains; and
//!   the per-core state and application step all three engines share
//!   ([`dataplane::EngineCore`]).
//! * [`libix`] — the user-level `libix` library: a libevent-like
//!   event-loop API with transmit coalescing and flow-control-aware
//!   buffering (§4.3), so legacy-style applications port easily.
//! * [`ixcp`] — the control plane: free functions over a [`Dataplane`]
//!   that grant and revoke elastic threads, re-steer hung queues and run
//!   the elastic control loop, all by one RSS flow-group migration step
//!   (§4.4); plus the RCU-published NIC-edge filter.
//! * [`rcu`] — read-copy-update for the one shared dataplane structure,
//!   the ARP table: coherence-free reads, quiescent-period reclamation
//!   tied to run-to-completion cycle boundaries (§4.4).
//! * [`params`] — the calibrated CPU cost model (what replaces the Xeon
//!   E5-2665 of the testbed).
//!
//! The execution substrate (cores, NICs, switch, virtual time) comes from
//! [`ix_nic`] and [`ix_sim`]; the protocol logic from [`ix_tcp`]. The
//! Linux and mTCP baselines in `ix-baselines` drive the *same*
//! application trait ([`api::IxApp`]) so every experiment runs identical
//! application code on all three systems, as §5 does.

pub mod api;
pub mod dataplane;
pub mod ixcp;
pub mod libix;
pub mod params;
pub mod rcu;

pub use api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};
pub use dataplane::{Dataplane, DataplaneStats, ElasticThread};
pub use ixcp::{
    start_elastic_controller, start_queue_watchdog, ElasticConfig, ElasticRef, ElasticStats,
    FilterControl, WatchdogHealth, WatchdogRef, WatchdogStats,
};
pub use libix::{ConnCtx, Libix, LibixHandler};
pub use params::CostParams;
pub use rcu::Rcu;
