//! Timer expiry: retransmission, zero-window persist, delayed ACK and
//! TIME_WAIT.

use ix_net::tcp::TcpFlags;
use ix_testkit::Bytes;

use super::{SegmentSpec, TcpShard, TimerEntry};
use crate::config::{MAX_RETRIES, TIME_WAIT_NS};
use crate::event::{DeadReason, TcpEvent};
use crate::tcb::{TcpState, TimerKind};

impl TcpShard {
    pub(super) fn enter_time_wait(&mut self, key: u64) {
        let gen = self.flows.get(key).expect("live").id.gen;
        // Cancel data timers; start the quarantine clock.
        let tcb = self.flows.get_mut(key).expect("live");
        tcb.state = TcpState::TimeWait;
        for t in [tcb.rto_timer.take(), tcb.take_persist_timer()].into_iter().flatten() {
            self.wheel.cancel(t);
        }
        let t = self.wheel.schedule(
            TIME_WAIT_NS,
            TimerEntry { key, gen, kind: TimerKind::TimeWait },
        );
        tcb.cold_mut(&mut self.spare_cold).timewait_timer = Some(t);
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Advances the timing wheel to `now_ns`, firing retransmissions,
    /// probes, and TIME_WAIT expiries (Fig 1b step 5).
    pub fn advance_timers(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        let mut fired = std::mem::take(&mut self.fired_scratch);
        self.wheel.advance(now_ns, |e| fired.push(e));
        for e in fired.drain(..) {
            let Some(tcb) = self.flows.get_mut(e.key) else { continue };
            if tcb.id.gen != e.gen {
                continue;
            }
            // The handle of a fired timer is spent. (The cold ones were
            // armed through the cold block, so it is attached.)
            match e.kind {
                TimerKind::TimeWait => {
                    tcb.cold.as_mut().expect("armed").timewait_timer = None;
                    self.destroy(e.key);
                }
                TimerKind::Persist => {
                    tcb.cold.as_mut().expect("armed").persist_timer = None;
                    self.persist_fire(e.key);
                }
                TimerKind::Rto => {
                    tcb.rto_timer = None;
                    self.rto_fire(e.key);
                }
                TimerKind::DelAck => {
                    tcb.delack_timer = None;
                    self.emit_bare_ack(e.key);
                }
            }
        }
        self.fired_scratch = fired;
    }

    fn persist_fire(&mut self, key: u64) {
        let tcb = self.flows.get(key).expect("live");
        if tcb.snd_wnd > 0 {
            return; // Window reopened; probe no longer needed.
        }
        let gen = tcb.id.gen;
        // Zero-window probe: an empty segment at snd_nxt-1, which the
        // peer must answer with an ACK restating its window.
        let spec = SegmentSpec::bare(
            TcpFlags::ACK,
            tcb.snd_nxt.wrapping_sub(1),
            tcb.rcv_nxt,
            tcb.advertised_window_field(),
        );
        self.emit_segment_for_key(key, spec);
        self.stats.persist_probes += 1;
        let t = self.wheel.schedule(
            self.cfg.persist_ns,
            TimerEntry { key, gen, kind: TimerKind::Persist },
        );
        let tcb = self.flows.get_mut(key).expect("live");
        tcb.cold_mut(&mut self.spare_cold).persist_timer = Some(t);
    }

    fn rto_fire(&mut self, key: u64) {
        let now = self.now_ns;
        self.stats.rto_fires += 1;
        let tcb = self.flows.get_mut(key).expect("live");
        tcb.retries += 1;
        let snd_nxt = tcb.snd_nxt;
        tcb.cold_mut(&mut self.spare_cold).recovery_episode.get_or_insert((now, snd_nxt));
        if tcb.retries > MAX_RETRIES {
            let (id, cookie, state) = (tcb.id, tcb.cookie, tcb.state);
            if state == TcpState::SynSent {
                self.events.push(TcpEvent::Connected { flow: id, cookie, ok: false });
            } else {
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::TimedOut });
            }
            self.destroy(key);
            return;
        }
        match tcb.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                let syn_ack = tcb.state == TcpState::SynRcvd;
                let (seq, ack) = (tcb.snd_una, tcb.rcv_nxt);
                let window = tcb.advertised_window().min(65_535) as u16;
                let gen = tcb.id.gen;
                let retries = tcb.retries;
                let spec = SegmentSpec {
                    flags: if syn_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN },
                    seq,
                    ack: if syn_ack { ack } else { 0 },
                    window,
                    mss: Some(self.cfg.mss as u16),
                    wscale: if self.cfg.window_scale > 0 { Some(self.cfg.window_scale) } else { None },
                    payload: &[],
                };
                self.emit_segment_for_key(key, spec);
                self.stats.retransmits += 1;
                let t = self.wheel.schedule(
                    self.cfg.syn_rto_ns << retries.min(6),
                    TimerEntry { key, gen, kind: TimerKind::Rto },
                );
                self.flows.get_mut(key).expect("live").rto_timer = Some(t);
            }
            _ => {
                tcb.cwnd_on_rto();
                tcb.rto_ns = (tcb.rto_ns * 2).clamp(self.cfg.min_rto_ns, self.cfg.max_rto_ns);
                self.stats.retransmits += 1;
                self.retransmit_front(key);
                self.restart_rto(key);
            }
        }
    }

    /// Retransmits the oldest unacknowledged segment.
    pub(super) fn retransmit_front(&mut self, key: u64) {
        let now = self.now_ns;
        let tcb = self.flows.get_mut(key).expect("live");
        if tcb.rtq.is_empty() {
            return;
        }
        tcb.cold_mut(&mut self.spare_cold).last_retx_ns = now;
        let seg = tcb.rtq.front_mut().expect("checked non-empty");
        seg.retransmitted = true;
        seg.tx_time_ns = now;
        // O(1): a refcount bump on the shared storage block — the
        // retransmit serializes from the same bytes `send_bytes` queued, so no
        // payload is copied until the segment lands in its pool mbuf.
        let spec_data: Bytes = seg.data.clone();
        let (seq, fin) = (seg.seq, seg.fin);
        let flags = TcpFlags { fin, psh: !fin, ..TcpFlags::ACK };
        let (ack, window) = (tcb.rcv_nxt, tcb.advertised_window_field());
        let spec = SegmentSpec { flags, seq, ack, window, mss: None, wscale: None, payload: &spec_data };
        self.emit_segment_for_key(key, spec);
    }

    /// Cancels and reschedules the RTO timer based on outstanding data.
    pub(super) fn restart_rto(&mut self, key: u64) {
        let (old, need, rto, gen) = {
            let tcb = self.flows.get_mut(key).expect("live");
            (
                tcb.rto_timer.take(),
                !tcb.rtq.is_empty(),
                tcb.rto_ns,
                tcb.id.gen,
            )
        };
        if let Some(t) = old {
            self.wheel.cancel(t);
        }
        if need {
            let t = self.wheel.schedule(rto, TimerEntry { key, gen, kind: TimerKind::Rto });
            self.flows.get_mut(key).expect("live").rto_timer = Some(t);
        }
    }
}
