//! A full TCP/IP stack over the simulated NIC — the lwIP stand-in.
//!
//! The original IX derived its protocol code from lwIP, heavily modified
//! for multi-core scalability and fine-grained timers (§4.2). This crate
//! is a from-scratch implementation shaped by the same requirements:
//!
//! * **Sharded**: a [`TcpShard`] owns a disjoint subset of flows (those
//!   RSS steers to its queue) and is used by exactly one elastic thread —
//!   no locks, no atomics, no sharing (§4.4).
//! * **Event-based upcalls**: segment processing produces [`TcpEvent`]s
//!   that map one-to-one onto the paper's event conditions (Table 1):
//!   `knock`, `connected`, `recv`, `sent`, `dead`.
//! * **Explicit flow control**: `send_bytes` accepts only what the sliding
//!   window permits (the paper's `sendv` semantics); the receive window
//!   advances only when the application consumes data via `recv_done` —
//!   "the networking stack sends acknowledgments to peers only as fast as
//!   the application can process them" (§3).
//! * **Timing-wheel timers**: retransmission, zero-window probing,
//!   TIME_WAIT, and connection-establishment timeouts run on the 16 µs
//!   hierarchical wheel from [`ix_timerwheel`].
//! * **RSS-aware port selection**: outbound connections probe the
//!   ephemeral port range until the *reply* traffic hashes back to the
//!   originating queue (§4.4), since the Toeplitz hash cannot be
//!   inverted.
//!
//! The stack also implements ARP (with a resolution queue), ICMP echo,
//! and UDP receive (validated and counted; no socket API) — IX's own
//! additions to lwIP's TCP core.
//!
//! The stack is *passive*: execution engines (the IX dataplane in
//! `ix-core`, the Linux/mTCP models in `ix-baselines`) feed it frames,
//! drain its transmit queue, advance its timers, and charge the modeled
//! CPU costs. This is what lets the same protocol logic run under three
//! different execution models, exactly as the paper compares them.

pub mod arp_table;
pub mod config;
pub mod event;
pub mod flow_table;
pub mod stack;
pub mod syncookie;
pub mod tcb;

pub use arp_table::ArpTable;
pub use config::{AckPolicy, StackConfig};
pub use event::{DeadReason, FlowId, TcpEvent};
pub use flow_table::{FlowMap, FlowMapMem, FlowTable, NO_BUCKET};
pub use stack::{StackError, StackStats, TcpShard};
pub use tcb::{Tcb, TcpState};
