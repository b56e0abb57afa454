//! The receive path: validating parse, flow-grouped runs, the
//! established-state machine, ARP/ICMP/UDP input.

use ix_mempool::Mbuf;
use ix_net::arp::{ArpOp, ArpPacket};
use ix_net::eth::{EthHeader, EtherType};
use ix_net::icmp::{IcmpHeader, IcmpType};
use ix_net::ip::{IpProto, Ipv4Header};
use ix_net::tcp::{seq_le, seq_lt, TcpHeader};
use ix_net::udp::UdpHeader;
use ix_net::NetError;

use super::{ParsedFrame, TcpShard};
use crate::config::AckPolicy;
use crate::event::{DeadReason, FlowId, TcpEvent};
use crate::tcb::TcpState;

impl TcpShard {
    // ------------------------------------------------------------------
    // Input path.
    // ------------------------------------------------------------------

    /// Records a frame rejected by header parsing, distinguishing
    /// checksum failures (wire corruption) from structural damage.
    fn count_parse_drop(&mut self, err: NetError) {
        self.stats.parse_drops += 1;
        if err == NetError::BadChecksum {
            self.stats.checksum_drops += 1;
        }
    }

    /// Processes one received frame (Ethernet and up): the receive path
    /// on a batch of one — parse, run step, ACK-policy pass — without a
    /// trip through the staging arrays [`TcpShard::input_batch`] groups
    /// a larger batch in.
    pub fn input(&mut self, now_ns: u64, frame: Mbuf) {
        self.now_ns = now_ns;
        if let Some(mut seg) = self.parse(frame) {
            let slot = self.flows.slot_of(seg.key);
            self.run_segment(slot, &mut false, &mut seg);
            self.ack_policy_pass();
        }
    }

    /// Test oracle for `tests/rx_batch.rs`, not a receive path: the same
    /// parse and state machine, one frame at a time — never grouped,
    /// never coalesced, never through `fast_segment`.
    #[doc(hidden)]
    pub fn input_reference(&mut self, now_ns: u64, frame: Mbuf) {
        self.now_ns = now_ns;
        if let Some(ParsedFrame { key, hdr, payload }) = self.parse(frame) {
            let live = self.flows.contains_key(key);
            self.dispatch_tcp_segment(live, key, hdr, payload.expect("fresh from the parse"));
            self.ack_policy_pass();
        }
    }

    /// The validating parse, Ethernet and up — the one place a received
    /// frame's headers are decoded. ARP, ICMP and UDP are handled here,
    /// at once; a TCP segment comes back for its flow's run. Whatever is
    /// rejected lands on the drop counters, once.
    fn parse(&mut self, mut frame: Mbuf) -> Option<ParsedFrame> {
        let eth = EthHeader::decode(frame.data()).map_err(|e| self.count_parse_drop(e)).ok()?;
        frame.pull(EthHeader::LEN);
        match eth.ethertype {
            EtherType::Ipv4 => {}
            EtherType::Arp => {
                self.input_arp(frame);
                return None;
            }
            EtherType::Other(_) => {
                self.stats.parse_drops += 1;
                return None;
            }
        }
        let ip = Ipv4Header::decode(frame.data()).map_err(|e| self.count_parse_drop(e)).ok()?;
        // Trim link-layer padding (min-frame) to the datagram length.
        if frame.len() > ip.total_len as usize {
            frame.truncate(ip.total_len as usize);
        }
        if ip.dst != self.local_ip || frame.len() < ip.total_len as usize {
            self.stats.parse_drops += 1;
            return None;
        }
        frame.pull(Ipv4Header::LEN);
        match ip.proto {
            IpProto::Tcp => {}
            IpProto::Udp => {
                self.input_udp(ip, frame);
                return None;
            }
            IpProto::Icmp => {
                self.input_icmp(ip, frame);
                return None;
            }
            IpProto::Other(_) => {
                self.stats.parse_drops += 1;
                return None;
            }
        }
        let (hdr, hlen) = TcpHeader::decode(frame.data(), ip.src, ip.dst)
            .map_err(|e| self.count_parse_drop(e))
            .ok()?;
        frame.pull(hlen);
        self.stats.rx_segments += 1;
        let key = FlowId::pack(ip.src, hdr.src_port, hdr.dst_port);
        Some(ParsedFrame { key, hdr, payload: Some(frame) })
    }

    fn input_arp(&mut self, frame: Mbuf) {
        let Ok(pkt) = ArpPacket::decode(frame.data()) else {
            self.stats.parse_drops += 1;
            return;
        };
        // Learn the sender in all cases.
        let ready = self.arp.insert(pkt.sender_ip, pkt.sender_mac);
        for p in ready {
            self.transmit_l3(p.ip, p.l3_bytes);
        }
        if pkt.op == ArpOp::Request && pkt.target_ip == self.local_ip {
            let reply = pkt.reply_to(self.local_mac);
            self.emit_arp(reply, pkt.sender_mac);
        }
    }

    fn input_icmp(&mut self, ip: Ipv4Header, mut frame: Mbuf) {
        let hdr = match IcmpHeader::decode(frame.data()) {
            Ok(hdr) => hdr,
            Err(e) => {
                self.count_parse_drop(e);
                return;
            }
        };
        if hdr.icmp_type == IcmpType::EchoRequest {
            self.stats.icmp_echo += 1;
            // Build the reply in place: overwrite the 8-byte ICMP header
            // inside the RX mbuf and leave the echoed payload untouched,
            // then prepend IP + Ethernet into the headroom the pulled RX
            // headers left behind. No payload copy, no staging buffer.
            let reply = hdr.reply();
            let (h, t) = frame.data_mut().split_at_mut(IcmpHeader::LEN);
            reply.encode(h, t);
            self.transmit_l4_mbuf(ip.src, IpProto::Icmp, frame);
        }
    }

    /// No application takes UDP: a valid datagram is counted and its
    /// buffer goes straight back to the receive pool.
    fn input_udp(&mut self, ip: Ipv4Header, frame: Mbuf) {
        match UdpHeader::decode(frame.data(), ip.src, ip.dst) {
            Ok(_) => self.stats.udp_rx += 1,
            Err(e) => self.count_parse_drop(e),
        }
    }

    /// State-machine dispatch for one validated TCP segment; `live` says
    /// whether its flow is in the table.
    fn dispatch_tcp_segment(&mut self, live: bool, key: u64, hdr: TcpHeader, payload: Mbuf) {
        if live {
            self.segment_for_flow(key, hdr, payload);
        } else {
            self.segment_no_flow(key, hdr, payload);
        }
    }

    /// Processes a whole polled batch of frames (DESIGN.md §4): (1)
    /// each frame takes the validating parse in arrival order — non-TCP
    /// frames are handled there, TCP segments are staged and chained
    /// onto their flow's group; (2) each same-flow run is processed
    /// back-to-back, in order of each flow's first arrival, against a
    /// TCB resolved to its slab slot once per run; (3) one ACK-policy
    /// pass, so Immediate/Delayed emit at most one pure ACK per flow per
    /// batch (EndOfCycle coalesces at `end_cycle` regardless). Against
    /// frame-at-a-time input, cross-flow segment order and that ACK
    /// coalescing are the only observable differences; per-flow
    /// application byte streams and data-bearing wire frames are
    /// identical.
    pub fn input_batch(&mut self, now_ns: u64, frames: &mut Vec<Mbuf>) {
        if frames.len() == 1 {
            return self.input(now_ns, frames.pop().expect("one frame"));
        }
        self.now_ns = now_ns;
        let mut segs = std::mem::take(&mut self.batch_segs);
        let mut groups = std::mem::take(&mut self.batch_groups);
        let mut next = std::mem::take(&mut self.batch_next);
        debug_assert!(segs.is_empty() && groups.is_empty() && next.is_empty());
        for frame in frames.drain(..) {
            let Some(seg) = self.parse(frame) else { continue };
            // The group list is one cache line per ~5 flows and a batch
            // holds at most a few dozen distinct flows, so the linear
            // scan is cheaper than sorting; chains keep arrival order.
            let idx = segs.len() as u32;
            match groups.iter_mut().find(|g| g.0 == seg.key) {
                Some(g) => {
                    next[g.2 as usize] = idx;
                    g.2 = idx;
                }
                None => groups.push((seg.key, idx, idx)),
            }
            next.push(u32::MAX);
            segs.push(seg);
        }
        for &(key, head, _) in &groups {
            let mut slot = self.flows.slot_of(key);
            let mut run_acked = false;
            let mut cur = head;
            while cur != u32::MAX {
                let seg = &mut segs[cur as usize];
                cur = next[cur as usize];
                if !self.run_segment(slot, &mut run_acked, seg) && cur != u32::MAX {
                    slot = self.flows.slot_of(key);
                }
            }
        }
        segs.clear();
        groups.clear();
        next.clear();
        self.batch_segs = segs;
        self.batch_groups = groups;
        self.batch_next = next;
        self.ack_policy_pass();
    }

    /// The run step for one segment of a same-flow run whose TCB sits at
    /// `slot` (if the flow is live): the fast path for in-order
    /// Established data and no-op ACKs, else the full state machine.
    /// Returns false when the state machine ran — it may have created or
    /// destroyed the flow, so the caller re-resolves `slot` before the
    /// run's next segment.
    fn run_segment(&mut self, slot: Option<u32>, run_acked: &mut bool, seg: &mut ParsedFrame) -> bool {
        let payload = seg.payload.take().expect("each segment runs once");
        let plen = payload.len() as u32;
        if let Some(idx) = slot {
            if self.fast_segment(idx, seg.key, &seg.hdr, plen, run_acked) {
                if plen > 0 {
                    let ev = self.flows.slot_mut(idx).deliver(payload, &mut self.spare_rx_held);
                    self.stats.bytes_rx += plen as u64;
                    self.stats.rx_pool_outstanding += 1;
                    self.events.push(ev);
                }
                return true;
            }
        }
        self.dispatch_tcp_segment(slot.is_some(), seg.key, seg.hdr, payload);
        false
    }

    /// The per-call ACK policy: Immediate flushes, Delayed applies the
    /// every-second-segment rule with a piggyback timeout, EndOfCycle
    /// waits for `end_cycle`.
    fn ack_policy_pass(&mut self) {
        match self.cfg.ack_policy {
            AckPolicy::Immediate => self.flush_acks(),
            AckPolicy::Delayed(delay_ns) => self.delayed_ack_pass(delay_ns),
            AckPolicy::EndOfCycle => {}
        }
    }

    /// Fast-path eligibility + ACK-side handling for one segment against
    /// the TCB at `idx`. Returns true when the segment is fully handled
    /// modulo payload delivery (which the caller performs to keep the
    /// mbuf move out of this borrow): an Established
    /// segment, plain ACK flags, an acknowledgment that is a no-op
    /// under `process_ack` (not new; if equal to `snd_una`, the window
    /// is unchanged and nothing is in flight), exactly in-order data
    /// within the advertised window, no reassembly backlog, and no
    /// parked FIN. Everything else takes the general state machine.
    fn fast_segment(&mut self, idx: u32, key: u64, hdr: &TcpHeader, plen: u32, run_acked: &mut bool) -> bool {
        let tcb = self.flows.slot_mut(idx);
        let f = &hdr.flags;
        if tcb.state != TcpState::Established || f.syn || f.fin || f.rst || !f.ack {
            return false;
        }
        // ACK side must be a no-op: an old ACK, or a duplicate at
        // snd_una with the window byte-identical and nothing in flight
        // (so no dup-ack counting and no window-update event).
        if tcb.ack_is_new(hdr.ack) {
            return false;
        }
        if hdr.ack == tcb.snd_una
            && ((hdr.window as u32) << tcb.snd_wscale != tcb.snd_wnd || tcb.flight() != 0)
        {
            return false;
        }
        if hdr.seq != tcb.rcv_nxt
            || tcb.cold.as_ref().is_some_and(|c| c.peer_fin.is_some() || !c.ooo.is_empty())
        {
            return false;
        }
        if plen == 0 {
            // Pure no-op ACK at rcv_nxt: nothing to do, nothing to send.
            return true;
        }
        if plen > tcb.advertised_window() {
            return false; // Needs the trimming path.
        }
        // In-order data: mark the flow's deferred ACK (once per run —
        // the `pending_acks` membership scan amortizes over the batch).
        tcb.need_ack = true;
        if !*run_acked {
            if !self.pending_acks.contains(&key) {
                self.pending_acks.push(key);
            }
            *run_acked = true;
        }
        true
    }

    /// Full state machine for a segment on an existing flow.
    fn segment_for_flow(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let state = self.flows.get(key).expect("checked").state;
        if hdr.flags.rst {
            self.stats.rst_rx += 1;
            // Accept the RST if it is plausibly in-window (simplified).
            let notify = matches!(
                state,
                TcpState::Established
                    | TcpState::FinWait1
                    | TcpState::FinWait2
                    | TcpState::Closing
                    | TcpState::CloseWait
                    | TcpState::LastAck
                    | TcpState::SynRcvd
            );
            let tcb = self.flows.get(key).expect("checked");
            let (id, cookie) = (tcb.id, tcb.cookie);
            if notify {
                self.events.push(TcpEvent::Dead {
                    flow: id,
                    cookie,
                    reason: DeadReason::PeerReset,
                });
            } else if state == TcpState::SynSent {
                self.events.push(TcpEvent::Connected { flow: id, cookie, ok: false });
            }
            self.destroy(key);
            return;
        }
        match state {
            TcpState::SynSent => self.on_syn_sent(key, hdr),
            TcpState::SynRcvd => self.on_syn_rcvd(key, hdr, payload),
            TcpState::TimeWait => {
                // RFC 793 p. 73: TIME_WAIT acknowledges only a
                // retransmitted FIN or an unacceptable segment. Answering
                // the peer's last bare ACK would reach it after LAST_ACK
                // has closed, and draw a RST.
                let rcv_nxt = self.flows.get(key).expect("checked").rcv_nxt;
                if hdr.flags.fin || !payload.is_empty() || hdr.seq != rcv_nxt {
                    self.mark_ack(key);
                }
            }
            TcpState::Closed => {}
            _ => self.on_established_family(key, hdr, payload),
        }
    }

    /// ESTABLISHED, FIN_WAIT_1/2, CLOSING, CLOSE_WAIT, LAST_ACK.
    pub(super) fn on_established_family(&mut self, key: u64, hdr: TcpHeader, payload: Mbuf) {
        let plen = payload.len() as u32;
        if hdr.flags.ack {
            self.process_ack(key, hdr.ack, hdr.window);
            if !self.flows.contains_key(key) {
                return; // ACK processing may finish LAST_ACK teardown.
            }
        }
        if plen > 0 {
            self.process_payload(key, hdr.seq, payload);
        }
        if hdr.flags.fin {
            // The FIN occupies the sequence position after its payload.
            self.process_fin(key, hdr.seq.wrapping_add(plen));
        }
        if plen == 0 && !hdr.flags.fin {
            // RFC 793: an otherwise-unacceptable segment (e.g. a
            // zero-window probe at snd_nxt-1) elicits an ACK restating
            // our current state — this is what resynchronizes a peer
            // whose window-update ACK was lost.
            if let Some(tcb) = self.flows.get(key) {
                if hdr.seq != tcb.rcv_nxt {
                    self.mark_ack(key);
                }
            }
        }
        // Only a flow with cold state has anything left to settle.
        let Some(tcb) = self.flows.get(key) else { return };
        if tcb.cold.is_none() {
            return;
        }
        // An out-of-order drain (or this segment) may have advanced
        // rcv_nxt up to a previously parked FIN.
        if tcb.peer_fin() == Some(tcb.rcv_nxt) {
            self.consume_fin(key);
        }
        // Recovered, reassembled, reopened: the cold block goes back.
        if let Some(tcb) = self.flows.get_mut(key) {
            tcb.release_cold(&mut self.spare_cold);
        }
    }

    fn process_ack(&mut self, key: u64, ack: u32, window: u16) {
        let now = self.now_ns;
        let tcb = self.flows.get_mut(key).expect("checked");
        let old_wnd = tcb.snd_wnd;
        let old_usable = tcb.usable_window();
        if tcb.ack_is_new(ack) {
            tcb.snd_una = ack;
            let (bytes, sample) = tcb.reap_rtq(ack, now, &mut self.spare_rtq);
            if let Some(s) = sample {
                tcb.rtt_sample(s, &self.cfg);
            }
            if let Some(cold) = &mut tcb.cold {
                if cold.recover.is_some_and(|recover| !seq_lt(ack, recover)) {
                    cold.recover = None;
                    tcb.cwnd = tcb.ssthresh;
                }
                if let Some((start, point)) = cold.recovery_episode {
                    if !seq_lt(ack, point) {
                        cold.recovery_episode = None;
                        let dur = now.saturating_sub(start);
                        self.stats.max_recovery_ns = self.stats.max_recovery_ns.max(dur);
                    }
                }
            }
            tcb.cwnd_on_ack(bytes);
            tcb.dup_acks = 0;
            tcb.retries = 0;
            tcb.snd_wnd = (window as u32) << tcb.snd_wscale;
            // FIN acknowledged?
            let fin_acked = tcb.fin_queued && tcb.all_sent_acked();
            let state = tcb.state;
            let (id, cookie) = (tcb.id, tcb.cookie);
            let new_usable = tcb.usable_window();
            let persist = tcb.take_persist_timer();
            // Restart or clear the retransmission timer.
            self.restart_rto(key);
            if let Some(t) = persist {
                self.wheel.cancel(t);
            }
            if bytes > 0 || new_usable > old_usable {
                self.events.push(TcpEvent::Sent {
                    flow: id,
                    cookie,
                    bytes_acked: bytes,
                    window: new_usable,
                });
            }
            if fin_acked {
                match state {
                    TcpState::FinWait1 => {
                        self.flows.get_mut(key).expect("live").state = TcpState::FinWait2;
                    }
                    TcpState::Closing => self.enter_time_wait(key),
                    TcpState::LastAck => self.destroy(key),
                    _ => {}
                }
            }
        } else if ack == tcb.snd_una {
            tcb.snd_wnd = (window as u32) << tcb.snd_wscale;
            if tcb.flight() > 0 && (window as u32) << tcb.snd_wscale == old_wnd {
                tcb.dup_acks += 1;
                if tcb.dup_acks == 3 {
                    tcb.cwnd_on_fast_retransmit(&mut self.spare_cold);
                    let snd_nxt = tcb.snd_nxt;
                    tcb.cold_mut(&mut self.spare_cold).recovery_episode.get_or_insert((now, snd_nxt));
                    self.stats.retransmits += 1;
                    self.stats.fast_retransmits += 1;
                    self.retransmit_front(key);
                }
            } else if (window as u32) << tcb.snd_wscale > old_wnd {
                // Pure window update.
                let tcb = self.flows.get(key).expect("live");
                let (id, cookie, usable) = (tcb.id, tcb.cookie, tcb.usable_window());
                if usable > old_usable {
                    self.events.push(TcpEvent::Sent {
                        flow: id,
                        cookie,
                        bytes_acked: 0,
                        window: usable,
                    });
                }
                let persist = self.flows.get_mut(key).expect("live").take_persist_timer();
                if let Some(t) = persist {
                    self.wheel.cancel(t);
                }
            }
        }
    }

    fn process_payload(&mut self, key: u64, seq: u32, mut payload: Mbuf) {
        let tcb = self.flows.get_mut(key).expect("checked");
        let len = payload.len() as u32;
        let rcv_nxt = tcb.rcv_nxt;
        let wnd = tcb.advertised_window();
        let end = seq.wrapping_add(len);
        let win_end = rcv_nxt.wrapping_add(wnd);
        tcb.need_ack = true;
        self.mark_ack(key);
        let tcb = self.flows.get_mut(key).expect("checked");
        if seq_le(end, rcv_nxt) {
            // Entirely old: pure duplicate, just the ACK.
            return;
        }
        if !seq_lt(seq, win_end) {
            // Entirely beyond the window: drop.
            return;
        }
        // Trim the front if it overlaps already-received data.
        let mut seg_seq = seq;
        if seq_lt(seg_seq, rcv_nxt) {
            let skip = rcv_nxt.wrapping_sub(seg_seq);
            payload.pull(skip as usize);
            seg_seq = rcv_nxt;
        }
        // Trim the tail if it pokes past the window.
        let seg_end = seg_seq.wrapping_add(payload.len() as u32);
        if seq_lt(win_end, seg_end) {
            let keep = win_end.wrapping_sub(seg_seq) as usize;
            payload.truncate(keep);
        }
        if payload.is_empty() {
            return;
        }
        if seg_seq == rcv_nxt {
            // In-order: deliver a refcounted view of the mbuf's payload
            // window — zero copies — hold the buffer until `recv_done`
            // credits it, then drain any contiguous out-of-order
            // segments.
            let n = payload.len() as u64;
            let ev = tcb.deliver(payload, &mut self.spare_rx_held);
            self.stats.bytes_rx += n;
            self.stats.rx_pool_outstanding += 1;
            self.events.push(ev);
            self.drain_ooo(key);
        } else {
            // Out of order: buffer the trimmed mbuf itself, keyed by
            // start sequence — no staging copy, and none later on drain
            // (coalescing conservatively: keep the first buffer seen for
            // any given start).
            let cold = tcb.cold_mut(&mut self.spare_cold);
            if !cold.ooo.contains_key(&seg_seq) {
                cold.ooo_bytes += payload.len() as u32;
                cold.ooo.insert(seg_seq, payload);
                self.stats.rx_pool_outstanding += 1;
            }
        }
    }

    fn drain_ooo(&mut self, key: u64) {
        loop {
            let tcb = self.flows.get_mut(key).expect("checked");
            let rcv_nxt = tcb.rcv_nxt;
            let Some(cold) = &mut tcb.cold else { return };
            // Find a buffered segment that starts at or before rcv_nxt.
            let Some((&seg_seq, _)) = cold
                .ooo
                .iter()
                .find(|(&s, d)| seq_le(s, rcv_nxt) && seq_lt(rcv_nxt, s.wrapping_add(d.len() as u32)) || s == rcv_nxt)
            else {
                break;
            };
            let mut m = cold.ooo.remove(&seg_seq).expect("present");
            cold.ooo_bytes -= m.len() as u32;
            let skip = rcv_nxt.wrapping_sub(seg_seq) as usize;
            if skip >= m.len() {
                // Entirely stale: the buffer goes straight back to its
                // owning pool.
                self.stats.rx_pool_outstanding -= 1;
                continue;
            }
            // Trim the already-received prefix in place (a window move,
            // not a copy) and deliver the rest as a view of the buffered
            // mbuf itself — the drain path copies nothing.
            m.pull(skip);
            // The mbuf moves from the reassembly map to the held queue:
            // `rx_pool_outstanding` is unchanged.
            self.stats.bytes_rx += m.len() as u64;
            let ev = tcb.deliver(m, &mut self.spare_rx_held);
            self.events.push(ev);
        }
        // Clean any now-stale buffered segments.
        let tcb = self.flows.get_mut(key).expect("checked");
        let rcv_nxt = tcb.rcv_nxt;
        let cold = tcb.cold.as_mut().expect("the loop left through a cold block");
        let stale: Vec<u32> = cold
            .ooo
            .iter()
            .filter(|(&s, d)| seq_le(s.wrapping_add(d.len() as u32), rcv_nxt))
            .map(|(&s, _)| s)
            .collect();
        for s in stale {
            let d = cold.ooo.remove(&s).expect("present");
            cold.ooo_bytes -= d.len() as u32;
            self.stats.rx_pool_outstanding -= 1;
        }
    }

    fn process_fin(&mut self, key: u64, fin_seq: u32) {
        let tcb = self.flows.get_mut(key).expect("checked");
        if fin_seq != tcb.rcv_nxt {
            // Data still missing before the FIN; remember it.
            tcb.cold_mut(&mut self.spare_cold).peer_fin = Some(fin_seq);
            return;
        }
        self.consume_fin(key);
    }

    fn consume_fin(&mut self, key: u64) {
        let tcb = self.flows.get_mut(key).expect("checked");
        tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(1);
        if let Some(cold) = &mut tcb.cold {
            cold.peer_fin = None;
        }
        tcb.need_ack = true;
        let (id, cookie, state) = (tcb.id, tcb.cookie, tcb.state);
        self.mark_ack(key);
        match state {
            TcpState::Established => {
                self.flows.get_mut(key).expect("live").state = TcpState::CloseWait;
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
            }
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.flows.get_mut(key).expect("live").state = TcpState::Closing;
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
            }
            TcpState::FinWait2 => {
                self.events.push(TcpEvent::Dead { flow: id, cookie, reason: DeadReason::PeerFin });
                self.enter_time_wait(key);
            }
            _ => {}
        }
    }
}
