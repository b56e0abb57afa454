//! Deterministic discrete-event simulation (DES) engine for the IX
//! reproduction.
//!
//! The real IX system ran on a 24-machine cluster with Intel 82599 NICs and
//! VT-x virtualization. This crate provides the substrate that replaces that
//! testbed: a single-threaded, deterministic event simulator with
//! nanosecond-resolution virtual time. All hardware models (NICs, links,
//! switches, cores) and all software models (the IX dataplane, the Linux and
//! mTCP baselines) execute on top of this engine.
//!
//! # Design
//!
//! * Virtual time is a [`SimTime`], a nanosecond count since simulation
//!   start. Durations are [`Nanos`].
//! * Events are ordered by `(time, sequence)`; the sequence number makes
//!   execution order total and therefore deterministic for equal
//!   timestamps. An event is either a boxed `FnOnce(&mut Simulator)`
//!   closure (the general form) or a plain `(component, u64)` pair
//!   delivered to an [`EventTarget`] (the allocation-free form the packet
//!   and cycle paths use).
//! * Randomness comes exclusively from [`rng::SimRng`], seeded at
//!   construction, so a run is a pure function of its configuration and
//!   seed.
//!
//! # Examples
//!
//! ```
//! use ix_sim::{Simulator, Nanos};
//!
//! let mut sim = Simulator::new(42);
//! sim.schedule_in(Nanos(100), |sim: &mut Simulator| {
//!     assert_eq!(sim.now().as_nanos(), 100);
//! });
//! sim.run();
//! ```

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EventId, EventTarget, SimCounters, Simulator};
pub use rng::SimRng;
pub use stats::{Histogram, RunningStats};
pub use time::{Nanos, SimTime};
