//! Handshakes: passive open, stateless SYN cookies, and the completing
//! legs of both open directions.

use ix_mempool::Mbuf;
use ix_net::ip::Ipv4Addr;
use ix_net::rss;
use ix_net::tcp::{TcpFlags, TcpHeader};

use super::{SegmentSpec, TcpShard, TimerEntry};
use crate::event::{FlowId, TcpEvent};
use crate::config::SYN_COOKIE_BUCKET_NS;
use crate::syncookie;
use crate::tcb::{TcpState, TimerKind};

impl TcpShard {
    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// A segment for a tuple with no PCB: passive open or RST.
    pub(super) fn segment_no_flow(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        if hdr.flags.rst {
            return; // Never respond to a RST.
        }
        let src_ip = FlowId::unpack(key).0;
        if hdr.flags.syn && !hdr.flags.ack && self.listeners.contains(&hdr.dst_port) {
            // Stateless path first: under a challenge (global knob or a
            // filter-policy syn-challenge verdict for this tuple) the
            // SYN-ACK carries a cookie ISS and *nothing* is allocated —
            // no TCB, no timer, no retransmit state.
            if self.cookie_mode(src_ip, hdr.dst_port) {
                self.send_cookie_synack(key, &hdr);
                return;
            }
            // Half-open backlog bound: past it, drop the SYN silently
            // (the peer's SYN retransmit retries once slots drain)
            // rather than let a flood pin unbounded TCB-slab slots.
            if self.synrcvd_count >= self.cfg.syn_backlog {
                self.stats.synrcvd_overflow_drops += 1;
                return;
            }
            // Passive open: create the PCB and answer SYN-ACK. The knock
            // event is raised when the handshake completes (the paper's
            // knock reports "a remotely initiated connection was opened").
            let gen = self.next_gen;
            self.next_gen += 1;
            let id = FlowId { key, gen };
            self.iss = self.iss.wrapping_add(64_000);
            let iss = self.iss;
            let mut tcb = self.new_tcb(id, 0, TcpState::SynRcvd, iss);
            tcb.open_time_ns = self.now_ns;
            tcb.rcv_nxt = hdr.seq.wrapping_add(1);
            tcb.snd_wnd = hdr.window as u32;
            if let Some(mss) = hdr.mss {
                tcb.mss = tcb.mss.min(mss as u32);
            }
            // Window scaling is effective only if both ends offer it.
            if let Some(ws) = hdr.wscale {
                if self.cfg.window_scale > 0 {
                    tcb.snd_wscale = ws;
                    tcb.rcv_wscale = self.cfg.window_scale;
                }
            }
            tcb.snd_nxt = iss.wrapping_add(1);
            let spec = SegmentSpec {
                flags: TcpFlags::SYN_ACK,
                seq: iss,
                ack: tcb.rcv_nxt,
                window: tcb.advertised_window().min(65_535) as u16,
                mss: Some(self.cfg.mss as u16),
                wscale: if tcb.rcv_wscale > 0 { Some(tcb.rcv_wscale) } else { None },
                payload: &[],
            };
            self.emit_segment_for(&tcb, spec);
            let t = self.wheel.schedule(
                self.cfg.syn_rto_ns,
                TimerEntry { key, gen, kind: TimerKind::Rto },
            );
            tcb.rto_timer = Some(t);
            self.synrcvd_count += 1;
            tcb.rss_bucket = rss::bucket(src_ip, self.local_ip, hdr.src_port, hdr.dst_port);
            let bucket = tcb.rss_bucket;
            self.flows.insert_in_bucket(key, bucket, tcb);
            return;
        }
        // A bare ACK to a listened port may be the completing leg of a
        // stateless cookie handshake: validate it and, only then, build
        // the TCB the SYN-ACK deliberately did not allocate.
        if hdr.flags.ack
            && !hdr.flags.syn
            && self.listeners.contains(&hdr.dst_port)
            && self.cookie_mode(src_ip, hdr.dst_port)
        {
            if self.try_cookie_accept(key, &hdr, payload) {
                return;
            }
            // Forged, expired, or stray: fall through to the RST below
            // (the ACK arm never reads the payload length).
            self.stats.syn_cookies_rejected += 1;
            self.stats.no_listener += 1;
            self.raw_rst(hdr.dst_port, hdr.src_port, hdr.ack, 0, true, src_ip);
            return;
        }
        // No listener / half-open garbage: RST per RFC 793 §3.4 — with
        // an ACK, our seq is the acked value; without one, seq 0 and an
        // ack covering the segment's full sequence span (payload plus
        // one for SYN and one for FIN).
        self.stats.no_listener += 1;
        let (seq, ack) = if hdr.flags.ack {
            (hdr.ack, 0)
        } else {
            (
                0,
                hdr.seq.wrapping_add(
                    payload.len() as u32 + hdr.flags.syn as u32 + hdr.flags.fin as u32,
                ),
            )
        };
        self.raw_rst(hdr.dst_port, hdr.src_port, seq, ack, hdr.flags.ack, src_ip);
    }

    /// True when a SYN from `src_ip` to `dst_port` must be answered
    /// statelessly: the global `syn_cookies` knob, or a filter-policy
    /// syn-challenge verdict for the tuple (the same policy snapshot the
    /// NIC classifies with, so both layers agree).
    fn cookie_mode(&self, src_ip: Ipv4Addr, dst_port: u16) -> bool {
        self.cfg.syn_cookies
            || self
                .filter_policy
                .as_ref()
                .is_some_and(|p| p.syn_challenged(src_ip, dst_port))
    }

    /// Answers a SYN with a cookie-ISS SYN-ACK. Stateless by design: the
    /// only thing that outlives this call is the emitted frame. The MSS
    /// the peer offered survives as a 2-bit class inside the cookie; no
    /// window scaling is negotiated (nowhere to remember the shift).
    fn send_cookie_synack(&mut self, key: u64, hdr: &TcpHeader) {
        let bucket = self.now_ns / SYN_COOKIE_BUCKET_NS;
        let peer_mss = hdr.mss.unwrap_or(536).min(self.cfg.mss as u16);
        let class = syncookie::mss_class(peer_mss);
        let cookie = syncookie::encode(self.cookie_secret, key, hdr.seq, bucket, class);
        self.stats.syn_cookies_sent += 1;
        let spec = SegmentSpec {
            flags: TcpFlags::SYN_ACK,
            seq: cookie,
            ack: hdr.seq.wrapping_add(1),
            window: self.cfg.recv_window.min(65_535) as u16,
            mss: Some(self.cfg.mss as u16),
            wscale: None,
            payload: &[],
        };
        self.build_and_queue_tcp(FlowId::unpack(key).0, hdr.dst_port, hdr.src_port, spec);
    }

    /// Validates the cookie implied by a bare ACK (`cookie = ack - 1`,
    /// `peer_iss = seq - 1`) and, on success, materializes the
    /// connection directly in `Established` — the TCB's first allocation
    /// happens here, after the peer proved the round trip. Returns false
    /// (consuming the payload) when the cookie does not verify.
    fn try_cookie_accept(&mut self, key: u64, hdr: &TcpHeader, payload: Mbuf) -> bool {
        let bucket_now = self.now_ns / SYN_COOKIE_BUCKET_NS;
        let cookie = hdr.ack.wrapping_sub(1);
        let peer_iss = hdr.seq.wrapping_sub(1);
        let Some(mss) =
            syncookie::validate(self.cookie_secret, key, peer_iss, cookie, bucket_now)
        else {
            return false;
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        let id = FlowId { key, gen };
        let mut tcb = self.new_tcb(id, 0, TcpState::Established, cookie);
        tcb.open_time_ns = self.now_ns;
        tcb.snd_una = cookie.wrapping_add(1);
        tcb.snd_nxt = cookie.wrapping_add(1);
        tcb.rcv_nxt = hdr.seq;
        tcb.snd_wnd = hdr.window as u32;
        tcb.mss = tcb.mss.min(mss as u32);
        let (src_ip, src_port) = (FlowId::unpack(key).0, hdr.src_port);
        self.stats.conns_accepted += 1;
        self.stats.syn_cookies_accepted += 1;
        self.events.push(TcpEvent::Knock { flow: id, src_ip, src_port });
        tcb.rss_bucket = rss::bucket(src_ip, self.local_ip, src_port, hdr.dst_port);
        let bucket = tcb.rss_bucket;
        self.flows.insert_in_bucket(key, bucket, tcb);
        // Data or FIN piggybacked on the handshake-completing ACK.
        if !payload.is_empty() || hdr.flags.fin {
            self.on_established_family(key, *hdr, payload);
        }
        true
    }

    pub(super) fn on_syn_sent(&mut self, key: u64, hdr: TcpHeader) {
        let tcb = self.flows.get_mut(key).expect("checked");
        if !(hdr.flags.syn && hdr.flags.ack) {
            return; // Simultaneous open unsupported; ignore bare SYN.
        }
        if hdr.ack != tcb.snd_nxt {
            // Bogus ACK of our SYN: reset per RFC 793.
            let (seq, ack) = (hdr.ack, 0);
            let (dst_ip, dp, sp) = FlowId::unpack(key);
            self.raw_rst(sp, dp, seq, ack, true, dst_ip);
            return;
        }
        tcb.snd_una = hdr.ack;
        tcb.rcv_nxt = hdr.seq.wrapping_add(1);
        tcb.snd_wnd = hdr.window as u32;
        if let Some(mss) = hdr.mss {
            tcb.mss = tcb.mss.min(mss as u32);
        }
        if let Some(ws) = hdr.wscale {
            if self.cfg.window_scale > 0 {
                tcb.snd_wscale = ws;
                tcb.rcv_wscale = self.cfg.window_scale;
            }
        }
        if tcb.retries == 0 {
            let sample = self.now_ns.saturating_sub(tcb.open_time_ns).max(1);
            tcb.rtt_sample(sample, &self.cfg);
        }
        tcb.state = TcpState::Established;
        tcb.retries = 0;
        let (id, cookie) = (tcb.id, tcb.cookie);
        if let Some(t) = tcb.rto_timer.take() {
            self.wheel.cancel(t);
        }
        self.stats.conns_opened += 1;
        self.events.push(TcpEvent::Connected { flow: id, cookie, ok: true });
        // Complete the handshake immediately (not deferred): the peer's
        // accept path is waiting on this ACK.
        self.emit_bare_ack(key);
    }

    pub(super) fn on_syn_rcvd(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let mss = self.cfg.mss as u16;
        let tcb = self.flows.get_mut(key).expect("checked");
        if hdr.flags.syn {
            // SYN retransmission from the peer: re-send SYN-ACK.
            let (seq, ack) = (tcb.snd_una, tcb.rcv_nxt);
            // SYN-ACK windows are never scaled (RFC 7323).
            let window = tcb.advertised_window().min(65_535) as u16;
            let wscale = if tcb.rcv_wscale > 0 { Some(tcb.rcv_wscale) } else { None };
            let spec = SegmentSpec {
                flags: TcpFlags::SYN_ACK,
                seq,
                ack,
                window,
                mss: Some(mss),
                wscale,
                payload: &[],
            };
            self.emit_segment_for_key(key, spec);
            return;
        }
        if !hdr.flags.ack || hdr.ack != tcb.snd_nxt {
            return;
        }
        tcb.snd_una = hdr.ack;
        tcb.snd_wnd = hdr.window as u32;
        if tcb.retries == 0 {
            let sample = self.now_ns.saturating_sub(tcb.open_time_ns).max(1);
            tcb.rtt_sample(sample, &self.cfg);
        }
        tcb.state = TcpState::Established;
        tcb.retries = 0;
        let (id, src_ip, src_port) = (tcb.id, tcb.id.remote_ip(), tcb.id.remote_port());
        if let Some(t) = tcb.rto_timer.take() {
            self.wheel.cancel(t);
        }
        self.stats.conns_accepted += 1;
        self.synrcvd_count -= 1;
        self.events.push(TcpEvent::Knock { flow: id, src_ip, src_port });
        // Piggybacked payload on the handshake ACK is possible.
        if !payload.is_empty() || hdr.flags.fin {
            self.on_established_family(key, hdr, payload);
        }
    }
}
