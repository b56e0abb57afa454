//! The paper's baselines: simulated Linux and mTCP network stacks.
//!
//! §5 compares IX against a tuned Linux 3.16 kernel and against mTCP, the
//! state-of-the-art user-level TCP stack of the time. Both baselines here
//! drive the *same* protocol logic ([`ix_tcp::TcpShard`]) and the *same*
//! application trait ([`ix_core::IxApp`]) as the IX dataplane. Syscall
//! semantics ([`ix_core::api::Syscall::execute`]; Linux adds only its
//! kernel send buffer) and core wiring
//! ([`ix_core::dataplane::launch_cores`]) are shared too, so all that
//! differs is what each step costs and when it is scheduled — the
//! execution model, which is precisely the paper's thesis:
//!
//! * [`linux`] — interrupt-driven kernel stack: NAPI interrupt coalescing
//!   and softirq batches, scheduler wake-ups of blocked application
//!   threads, per-call `epoll`/`read`/`write` system calls with user-copy
//!   costs, kernel socket buffering on both sides, and immediate ACKs
//!   from softirq context. Tuned as §5.1 describes: threads pinned,
//!   interrupts affinitized to the RSS queue's core.
//! * [`mtcp`] — user-level stack with *aggressive batching*: a dedicated
//!   per-core TCP thread exchanges batches with the application thread at
//!   coarse granularity, eliminating per-packet syscalls (high
//!   throughput) at the price of queueing latency in both directions —
//!   "which comes at the expense of higher latency than both IX and
//!   Linux" (§5.2).

use ix_mempool::Mbuf;
use ix_nic::nic::{NicRef, QueueId};

pub mod linux;
pub mod mtcp;

pub use linux::{LinuxHost, LinuxParams};
pub use mtcp::{MtcpHost, MtcpParams};

/// One receive poll pass as both baselines make it: round-robin over
/// `queues`, one frame per queue per round, each descriptor replenished
/// as it is consumed (no doorbell coalescing), until every queue is
/// empty or `frames` holds `budget`.
fn poll_rx(queues: &[(NicRef, QueueId)], budget: usize, frames: &mut Vec<Mbuf>) {
    loop {
        let mut any = false;
        for (nic, q) in queues {
            if frames.len() >= budget {
                return;
            }
            let mut n = nic.borrow_mut();
            if let Some(f) = n.rx_ring(*q).poll() {
                n.rx_ring(*q).replenish(1);
                frames.push(f);
                any = true;
            }
        }
        if !any {
            return;
        }
    }
}
