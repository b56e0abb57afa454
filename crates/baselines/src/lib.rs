//! The paper's baselines: simulated Linux and mTCP network stacks.
//!
//! §5 compares IX against a tuned Linux 3.16 kernel and against mTCP, the
//! state-of-the-art user-level TCP stack of the time. Both baselines here
//! drive the *same* protocol logic ([`ix_tcp::TcpShard`]) and the *same*
//! application trait ([`ix_core::IxApp`]) as the IX dataplane. Syscall
//! semantics ([`ix_core::api::Syscall::execute`]; Linux adds only its
//! kernel send buffer), core wiring
//! ([`ix_core::dataplane::launch_cores`]), the per-core state, frame
//! counts and application step ([`ix_core::dataplane::EngineCore`]),
//! the receive poll ([`poll_rx`]) and the TX flush ([`flush_tx`], over
//! IX's [`ix_core::dataplane::tx_push`] and
//! [`ix_core::dataplane::ring_doorbells`]) — both take the core's
//! `EngineCore` and count its frames — are shared too, so all that
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

use ix_core::dataplane::{tx_push, EngineCore};
use ix_mempool::Mbuf;

pub mod linux;
pub mod mtcp;

pub use linux::{LinuxHost, LinuxParams};
pub use mtcp::{MtcpHost, MtcpParams};

/// One receive poll pass as both baselines make it: round-robin over
/// the core's queues, one frame per queue per round, each descriptor
/// replenished as it is consumed (no doorbell coalescing), until every
/// queue is empty or `budget` frames are in. Returns the batch in the
/// core's `rx_scratch`, which the caller drains and puts back, and
/// counts it in `rx_packets`.
fn poll_rx(core: &mut EngineCore, budget: usize) -> Vec<Mbuf> {
    let mut frames = std::mem::take(&mut core.rx_scratch);
    'poll: loop {
        let mut any = false;
        for (nic, q) in &core.queues {
            if frames.len() >= budget {
                break 'poll;
            }
            let mut n = nic.borrow_mut();
            if let Some(f) = n.rx_ring(*q).poll() {
                n.rx_ring(*q).replenish(1);
                frames.push(f);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    core.rx_packets += frames.len() as u64;
    frames
}

/// One TX flush as both baselines make it: the shard's frames (taken by
/// swapping in `tx_scratch`) go through [`tx_push`] round-robin over
/// the core's queues, from the first on every flush, their NICs noted
/// in `kicks` for the caller's doorbell. Returns the frames pushed, and
/// counts them in `tx_packets`.
fn flush_tx(core: &mut EngineCore) -> u64 {
    let mut tx = core.shard.take_tx_swap(std::mem::take(&mut core.tx_scratch));
    let sent = tx.len() as u64;
    for (i, f) in tx.drain(..).enumerate() {
        let (nic, q) = &core.queues[i % core.queues.len()];
        tx_push(nic, *q, f, &mut core.kicks);
    }
    core.tx_scratch = tx;
    core.tx_packets += sent;
    sent
}
