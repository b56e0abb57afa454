//! Flow-group migration between shards (§4.4): bucket extract and bulk
//! absorb.

use ix_mempool::Spares;
use ix_net::rss;
use ix_timerwheel::TimerWheel;

use super::{TcpShard, TimerEntry};
use crate::config::TIME_WAIT_NS;
use crate::event::FlowId;
use crate::flow_table::{FlowMap, NO_BUCKET};
use crate::tcb::{Tcb, TcbCold, TcpState, TimerKind};

impl TcpShard {
    // ------------------------------------------------------------------
    // Flow migration (control-plane elastic thread add/revoke, §4.4):
    // "when a core is revoked from a dataplane, the corresponding
    // network flows must be assigned to another elastic thread."
    // ------------------------------------------------------------------

    /// Extracts every flow in one RSS bucket — the §4.4 flow-group
    /// migration primitive — cancelling their timers on this shard and
    /// appending them to a caller-owned batch for
    /// [`TcpShard::absorb_flows`] on their new shard. O(bucket
    /// population): the bucket's insertion-ordered list is the work
    /// list; no scan, no sort, no per-flow Toeplitz hash, so the order is
    /// a function of the flows' insertion history alone. The control
    /// plane pre-sizes one batch per destination (via
    /// [`TcpShard::bucket_len`]) and extracts every mis-steered bucket
    /// straight into it — one TCB write each, no intermediate per-bucket
    /// `Vec` and no growth re-copies mid-migration.
    pub fn extract_bucket_into(&mut self, bucket: u16, out: &mut Vec<Tcb>) {
        let keys: Vec<u64> = self.flows.bucket_keys(bucket).collect();
        self.extract_keys_into(&keys, out);
    }

    /// Live flows currently homed on RSS bucket `bucket` (O(bucket
    /// population)).
    pub fn bucket_len(&self, bucket: u16) -> usize {
        self.flows.bucket_len(bucket)
    }

    /// Removes the given flows, cancelling their timers in bulk and
    /// recording each residual delay for re-arming on the destination.
    /// Whatever a flow has borrowed — queue buffers, a cold block —
    /// leaves inside it and is returned to the destination's spare
    /// stacks when it drains there.
    fn extract_keys_into(&mut self, keys: &[u64], out: &mut Vec<Tcb>) {
        for &k in keys {
            let mut tcb = self.flows.remove(k).expect("indexed key present");
            // Held receive buffers migrate with the flow; the gauge
            // follows them to the absorbing shard.
            self.stats.rx_pool_outstanding -= (tcb.rx_held.len() + tcb.ooo_len()) as u64;
            // The half-open gauge follows migrating handshakes too.
            if tcb.state == TcpState::SynRcvd {
                self.synrcvd_count -= 1;
            }
            // Cancel every armed timer in one batch, recording residual
            // delays so `absorb_flows` re-arms the destination wheel
            // with the same remainder. One wheel round-trip per timer
            // (the payload's kind routes the residual), not two. The
            // residuals ride in the cold block: a flow with no timer
            // armed — every idle one — leaves without.
            let ids = tcb.take_timers();
            self.wheel.cancel_batch(ids.into_iter().flatten(), |entry, remaining| {
                tcb.cold_mut(&mut self.spare_cold).migrate_ns[entry.kind as usize] = Some(remaining);
            });
            // Stale pending-ACK entries for this key become no-ops
            // (flush checks `need_ack` against the live map).
            out.push(tcb);
        }
    }

    /// Adopts flows migrated from another shard, re-arming their timers
    /// on this shard's wheel with the residual delays the extract
    /// recorded — a timer that had 300 µs left on the source core has
    /// 300 µs left here, so migration neither loses a pending timeout
    /// nor postpones it (frequent migration must not starve the RTO).
    /// Flows that arrive without carry-state (tests constructing TCBs by
    /// hand, watchdog re-steers of discarded-ring flows) fall back to
    /// protocol-state defaults for RTO and TIME_WAIT.
    /// Takes the batch by vector so an empty destination (whole-shard
    /// migration always lands on one) can adopt the buffer wholesale as
    /// its TCB slab — zero per-TCB copies, via the in-place `collect`
    /// over the niche-optimized `Option<Tcb>`. A live destination
    /// stages each TCB into a free slot instead. Either way the flow
    /// table is reserved once, every TCB is threaded onto its bucket
    /// list in batch order, the probe table is committed in one
    /// home-slot-ordered pass, and timers are armed in cache-sized
    /// chunks against slot handles — no `get_mut` re-lookup per timer,
    /// no incremental table growth mid-absorb, no hash-random
    /// probe-array writes.
    pub fn absorb_flows(&mut self, now_ns: u64, flows: Vec<Tcb>) {
        /// Flows per timer-arming flush. Timer ids are written back into
        /// TCBs through their slot handles; flushing every ~2k flows
        /// (≈1 MB of TCBs) keeps those write-backs L2-resident instead
        /// of re-faulting the whole batch from DRAM after a 250k-flow
        /// insert pass has evicted its own head.
        const ABSORB_CHUNK: usize = 2048;

        /// Drain `reqs` into the wheel in one batched pass, routing each
        /// returned [`TimerId`] into its TCB via the slot handle in
        /// `targets` — no `get_mut` re-probe per timer.
        fn flush_timers(
            wheel: &mut TimerWheel<TimerEntry>,
            flows: &mut FlowMap<Tcb>,
            spare_cold: &mut Spares<Box<TcbCold>>,
            reqs: &mut Vec<(u64, TimerEntry)>,
            targets: &mut Vec<(u32, TimerKind)>,
        ) {
            let mut i = 0usize;
            wheel.schedule_batch(reqs.drain(..), |id| {
                let (slot, kind) = targets[i];
                i += 1;
                let tcb = flows.slot_mut(slot);
                match kind {
                    TimerKind::Rto => tcb.rto_timer = Some(id),
                    TimerKind::TimeWait => tcb.cold_mut(spare_cold).timewait_timer = Some(id),
                    TimerKind::Persist => tcb.cold_mut(spare_cold).persist_timer = Some(id),
                    TimerKind::DelAck => tcb.delack_timer = Some(id),
                }
            });
            targets.clear();
        }

        self.now_ns = now_ns;
        let n = flows.len();
        if n == 0 {
            return;
        }
        self.expect_flows(self.flows.len() + n);
        // Value placement: an empty map adopts the batch vector as its
        // slab in place (slot i == batch index i, zero TCB copies); a
        // live map stages each value into a free slot.
        let slots: Vec<u32> = if self.flows.is_empty() {
            self.flows.adopt_slab(flows);
            (0..n as u32).collect()
        } else {
            self.flows.reserve(n);
            flows
                .into_iter()
                .map(|tcb| {
                    let key = tcb.id.key;
                    self.flows.stage_push(key, tcb)
                })
                .collect()
        };
        let local_ip = self.local_ip;
        // Timer requests accumulated per chunk: `reqs` feeds the wheel,
        // `targets` routes each returned TimerId back to its TCB's
        // handle field by slot index.
        let chunk = ABSORB_CHUNK.min(n);
        let mut reqs: Vec<(u64, TimerEntry)> = Vec::with_capacity(chunk + 4);
        let mut targets: Vec<(u32, TimerKind)> = Vec::with_capacity(chunk + 4);
        // Queue buffers the batch brings in on loan: `[rtq, rx_held]`.
        let mut on_loan = [0usize; 2];
        for &slot in &slots {
            let key;
            let bucket;
            {
                let tcb = self.flows.slot_mut(slot);
                // Deconflict generation counters so stale-handle
                // protection keeps working after migration.
                self.next_gen = self.next_gen.max(tcb.id.gen + 1);
                key = tcb.id.key;
                let gen = tcb.id.gen;
                let need_rto = !tcb.rtq.is_empty()
                    || matches!(tcb.state, TcpState::SynSent | TcpState::SynRcvd);
                on_loan[0] += usize::from(tcb.rtq.capacity() > 0);
                on_loan[1] += usize::from(tcb.rx_held.capacity() > 0);
                // The residuals arrive in the cold block, if at all: an
                // idle established flow has none and takes the read-only
                // path through this loop, so its cache lines stay clean —
                // no write-back of the whole batch just to store `None`
                // over `None`. A block that carried nothing else goes to
                // this shard's spare stack.
                let residuals = tcb.cold.as_mut().map(|c| {
                    self.spare_cold.adopt(1);
                    std::mem::take(&mut c.migrate_ns)
                });
                tcb.release_cold(&mut self.spare_cold);
                let residual = |kind: TimerKind| residuals.and_then(|r| r[kind as usize]);
                let rto = residual(TimerKind::Rto).unwrap_or(tcb.rto_ns);
                let need_tw = tcb.state == TcpState::TimeWait;
                let tw = residual(TimerKind::TimeWait).unwrap_or(TIME_WAIT_NS);
                let persist = residual(TimerKind::Persist);
                let delack = residual(TimerKind::DelAck);
                // A pending delayed ACK stays on the timer path below; a
                // plain `need_ack` rides the end-of-cycle flush.
                if tcb.need_ack && delack.is_none() {
                    self.pending_acks.push(key);
                }
                self.stats.rx_pool_outstanding += (tcb.rx_held.len() + tcb.ooo_len()) as u64;
                if tcb.state == TcpState::SynRcvd {
                    self.synrcvd_count += 1;
                }
                // Flows migrated from a sibling shard carry their
                // bucket; hand-built TCBs (tests, watchdog re-steers)
                // get it computed here, once, for the rest of their
                // life.
                if tcb.rss_bucket == NO_BUCKET {
                    let (remote_ip, remote_port, local_port) = FlowId::unpack(key);
                    tcb.rss_bucket = rss::bucket(remote_ip, local_ip, remote_port, local_port);
                }
                bucket = tcb.rss_bucket;
                if need_rto {
                    reqs.push((rto, TimerEntry { key, gen, kind: TimerKind::Rto }));
                    targets.push((slot, TimerKind::Rto));
                }
                if need_tw {
                    reqs.push((tw, TimerEntry { key, gen, kind: TimerKind::TimeWait }));
                    targets.push((slot, TimerKind::TimeWait));
                }
                if let Some(d) = persist {
                    reqs.push((d, TimerEntry { key, gen, kind: TimerKind::Persist }));
                    targets.push((slot, TimerKind::Persist));
                }
                if let Some(d) = delack {
                    reqs.push((d, TimerEntry { key, gen, kind: TimerKind::DelAck }));
                    targets.push((slot, TimerKind::DelAck));
                }
            }
            self.flows.stage_adopted(slot, key, bucket);
            // Arm this chunk's timers while its TCBs are still
            // cache-resident; timer write-back goes through slot
            // handles, which don't need the (still-pending) commit.
            if targets.len() >= ABSORB_CHUNK {
                flush_timers(&mut self.wheel, &mut self.flows, &mut self.spare_cold, &mut reqs, &mut targets);
            }
        }
        flush_timers(&mut self.wheel, &mut self.flows, &mut self.spare_cold, &mut reqs, &mut targets);
        // Borrowed buffers come back to this shard's stacks as the flows
        // drain: make room now, off the message path.
        self.spare_rtq.adopt(on_loan[0]);
        self.spare_rx_held.adopt(on_loan[1]);
        // The loop above only staged (slab + bucket list); one commit
        // probes the whole batch into the table in ascending home-slot
        // order — streaming writes over the probe array instead of one
        // random cold line per flow.
        self.flows.commit_staged();
    }
}
