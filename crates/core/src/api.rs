//! The dataplane API: batched system calls and event conditions
//! (Table 1 of the paper), and the application trait all three execution
//! models drive.
//!
//! The paper's API is asynchronous and batched: the application writes an
//! array of system calls, yields to the dataplane with `run_io`, and on
//! return finds the array overwritten with return codes plus a second
//! array of event conditions. [`UserCtx`] is that pair of arrays;
//! [`IxApp::on_cycle`] is one `run_io` round trip as seen from user code.

use ix_testkit::{buffer_id, Bytes};
use ix_net::ip::Ipv4Addr;
use ix_tcp::{FlowId, StackError, TcpEvent};

/// Event conditions are exactly the stack's upcall events — the dataplane
/// copies them into the user-visible array unchanged (zero-copy for
/// `recv`: the mbuf is mapped read-only into the application).
pub type EventCond = TcpEvent;

/// A batched system call (Table 1).
///
/// `Sendv` carries a scatter-gather array of reference-counted buffers:
/// the zero-copy transmit contract is that the application must keep the
/// contents immutable until the peer acknowledges them (§3), which
/// `Bytes`' shared immutability models directly.
#[derive(Debug, Clone)]
pub enum Syscall {
    /// Open a connection to `dst`; `cookie` identifies it in events.
    Connect {
        /// Opaque user value returned in `connected`/`recv`/... events.
        cookie: u64,
        /// Destination address.
        dst_ip: Ipv4Addr,
        /// Destination port.
        dst_port: u16,
    },
    /// Accept a knocked connection, attaching a cookie.
    Accept {
        /// The flow handle from the `knock` event.
        handle: FlowId,
        /// Opaque user value for subsequent events.
        cookie: u64,
    },
    /// Transmit a scatter-gather array of data.
    Sendv {
        /// The flow handle.
        handle: FlowId,
        /// Scatter-gather list; entries are immutable shared buffers.
        sg: Vec<Bytes>,
    },
    /// Advance the receive window and free message buffers.
    RecvDone {
        /// The flow handle.
        handle: FlowId,
        /// Bytes consumed.
        bytes: u32,
    },
    /// Close or reject a connection (FIN path).
    Close {
        /// The flow handle.
        handle: FlowId,
    },
    /// Abortive close (RST), as the §5.3 benchmarks use. The original
    /// exposes this through `close` flags; a separate variant is clearer.
    Abort {
        /// The flow handle.
        handle: FlowId,
    },
}

/// The return code the dataplane writes back over a batched system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallResult {
    /// `connect` accepted; the eventual outcome arrives as a `connected`
    /// event carrying the cookie.
    InProgress,
    /// `sendv`: how many bytes the TCP stack accepted, as constrained by
    /// the sliding window (§4.3: "It returns the number of bytes that
    /// were accepted and sent by the TCP stack").
    Sent(u32),
    /// Success with nothing else to report.
    Ok,
    /// The call failed validation or execution.
    Err(StackError),
}

/// One run-to-completion cycle's user-space view: consumed event
/// conditions in, batched system calls out.
///
/// An engine keeps one `UserCtx` for the life of a thread and refills it
/// each cycle, so the three arrays — and the scatter-gather vectors that
/// travel inside `Sendv` calls — are allocated once and reused: the
/// application drains `events` and `results` in place, and the engine
/// drains `syscalls`.
#[derive(Debug, Default)]
pub struct UserCtx {
    /// Current virtual time, ns.
    pub now_ns: u64,
    /// Event conditions produced by the dataplane this cycle.
    pub events: Vec<EventCond>,
    /// Return codes for the *previous* cycle's syscall batch, in order.
    pub results: Vec<SyscallResult>,
    /// The syscall batch to submit on yield.
    pub syscalls: Vec<Syscall>,
    /// User-mode CPU consumed by the application this cycle, ns. The
    /// application model charges its compute here; the engine bills it
    /// to the user domain (this is how the §5.5 kernel/user split is
    /// measured).
    pub user_ns: u64,
    /// Emptied scatter-gather vectors of `Sendv` calls the engine has
    /// executed, waiting for [`UserCtx::sendv`] to refill them.
    sg_spare: Vec<Vec<Bytes>>,
}

impl UserCtx {
    /// Charges `ns` of application CPU time to this cycle.
    pub fn charge(&mut self, ns: u64) {
        self.user_ns += ns;
    }

    /// Queues a syscall and returns its index in the batch (its result
    /// arrives at the same index next cycle).
    pub fn syscall(&mut self, s: Syscall) -> usize {
        self.syscalls.push(s);
        self.syscalls.len() - 1
    }

    /// Queues a `Sendv` of `chunks` on `handle`, building its
    /// scatter-gather array in a vector recycled from an earlier call
    /// when one is spare. Returns the syscall's index, like
    /// [`UserCtx::syscall`].
    pub fn sendv(&mut self, handle: FlowId, chunks: impl IntoIterator<Item = Bytes>) -> usize {
        let mut sg = self.sg_spare.pop().unwrap_or_default();
        sg.extend(chunks);
        self.syscall(Syscall::Sendv { handle, sg })
    }

    /// Engine side: loads the cycle's inputs by trading the context's
    /// drained `events` and `results` vectors for the engine's filled
    /// ones. Each pair of buffers serves alternate cycles, so the one
    /// going back to the engine is sized for the batch the other just
    /// carried and the pair reaches its high-water capacity together.
    pub fn load(&mut self, events: &mut Vec<EventCond>, results: &mut Vec<SyscallResult>) {
        debug_assert!(self.events.is_empty() && self.results.is_empty());
        debug_assert!(self.syscalls.is_empty());
        self.events.reserve(events.len());
        std::mem::swap(&mut self.events, events);
        self.results.reserve(results.len());
        std::mem::swap(&mut self.results, results);
    }

    /// Engine side: ends the cycle [`UserCtx::load`] began. Takes back
    /// the syscall batch the engine took out and drained, and drops
    /// whatever the application left unconsumed in `events` and
    /// `results`, so that all three vectors are empty — capacity intact —
    /// for the next `load`.
    pub fn unload(&mut self, drained_syscalls: Vec<Syscall>) {
        debug_assert!(drained_syscalls.is_empty() && self.syscalls.is_empty());
        self.syscalls = drained_syscalls;
        self.events.clear();
        self.results.clear();
    }

    /// Identity of every vector the context recycles (see
    /// [`ix_testkit::buffer_id`]), spare scatter-gather vectors included.
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        let mut ids = vec![
            buffer_id(&self.events),
            buffer_id(&self.results),
            buffer_id(&self.syscalls),
            buffer_id(&self.sg_spare),
        ];
        ids.extend(self.sg_spare.iter().map(buffer_id));
        ids
    }

    /// Engine side: takes back the scatter-gather vector of a `Sendv`
    /// it has executed, releasing the buffers it still references.
    pub fn recycle_sg(&mut self, mut sg: Vec<Bytes>) {
        sg.clear();
        self.sg_spare.push(sg);
    }
}

/// An application running in the dataplane's user domain (ring 3 in the
/// real system).
///
/// Implementations must be engine-agnostic: the IX dataplane, the Linux
/// model, and the mTCP model all drive this trait, so one benchmark
/// binary runs on all three systems (as in §5).
pub trait IxApp {
    /// One cycle: consume `ctx.events`/`ctx.results`, emit
    /// `ctx.syscalls`, charge `ctx.user_ns`.
    fn on_cycle(&mut self, ctx: &mut UserCtx);

    /// True when the app wants another cycle scheduled even with no
    /// network input (e.g. an open-loop load generator with due
    /// arrivals). `now_ns` lets pacing apps answer precisely.
    fn wants_cycle(&self, _now_ns: u64) -> bool {
        false
    }

    /// If the app knows when it next needs to run (open-loop pacing),
    /// the wake-up deadline in ns; engines arm a timer for it.
    fn next_deadline_ns(&self) -> Option<u64> {
        None
    }

    /// Downcast support for tests and benchmark harnesses that need the
    /// concrete application type back from the engine.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_batches_syscalls_in_order() {
        let mut ctx = UserCtx::default();
        let i0 = ctx.syscall(Syscall::Close {
            handle: FlowId { key: 1, gen: 1 },
        });
        let i1 = ctx.syscall(Syscall::RecvDone {
            handle: FlowId { key: 1, gen: 1 },
            bytes: 64,
        });
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(ctx.syscalls.len(), 2);
    }

    #[test]
    fn sendv_reuses_the_vector_the_engine_hands_back() {
        let mut ctx = UserCtx::default();
        let handle = FlowId { key: 3, gen: 1 };
        let chunk = Bytes::from(vec![7u8; 16]);
        ctx.sendv(handle, [chunk.clone(), chunk.clone()]);
        let Some(Syscall::Sendv { sg, .. }) = ctx.syscalls.pop() else {
            unreachable!("sendv queues a Sendv")
        };
        assert_eq!(sg.len(), 2);
        let (ptr, cap) = (sg.as_ptr(), sg.capacity());
        ctx.recycle_sg(sg);
        assert_eq!(chunk.ref_count(), 1, "recycling drops the payload references");
        ctx.sendv(handle, [chunk.clone()]);
        let Some(Syscall::Sendv { sg, .. }) = ctx.syscalls.pop() else {
            unreachable!("sendv queues a Sendv")
        };
        assert_eq!((sg.as_ptr(), sg.capacity()), (ptr, cap));
        assert_eq!(sg.len(), 1);
    }

    #[test]
    fn charge_accumulates() {
        let mut ctx = UserCtx::default();
        ctx.charge(100);
        ctx.charge(250);
        assert_eq!(ctx.user_ns, 350);
    }

    #[test]
    fn sendv_scatter_gather_is_cheap_to_clone() {
        let big = Bytes::from(vec![0u8; 1 << 20]);
        let s = Syscall::Sendv {
            handle: FlowId { key: 9, gen: 1 },
            sg: vec![big.clone(), big.slice(0..100)],
        };
        // Cloning the syscall clones refcounts, not megabytes.
        let s2 = s.clone();
        match (s, s2) {
            (Syscall::Sendv { sg: a, .. }, Syscall::Sendv { sg: b, .. }) => {
                assert_eq!(a[0].as_ptr(), b[0].as_ptr(), "shared storage");
            }
            _ => unreachable!(),
        }
    }
}
