//! The transmit side: `send`, UDP output, ACK generation, and the
//! segment and frame builders.

use ix_mempool::Mbuf;
use ix_net::arp::ArpPacket;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_net::udp::UdpHeader;
use ix_testkit::Bytes;

use super::{SegmentSpec, StackError, TcpShard, TimerEntry, TX_HEADROOM};
use crate::event::FlowId;
use crate::tcb::{Tcb, TcpState, TimerKind, TxSeg};

impl TcpShard {
    /// Transmits as much of `data` as the sliding window permits and
    /// returns the number of bytes accepted (Table 1 `sendv` semantics:
    /// "the number of bytes that were accepted and sent by the TCP stack,
    /// as constrained by correct TCP sliding window operation").
    ///
    /// The accepted prefix is copied once into a fresh refcounted storage
    /// block; the retransmit queue holds O(1) slices of that block. When
    /// the caller already owns the payload as a [`Bytes`], use
    /// [`TcpShard::send_bytes`] to skip even that copy.
    pub fn send(&mut self, now_ns: u64, flow: FlowId, data: &[u8]) -> Result<usize, StackError> {
        self.send_impl(now_ns, flow, data, None)
    }

    /// Zero-copy variant of [`TcpShard::send`]: the retransmit queue
    /// slices the caller's own storage block, so no payload byte is
    /// copied until each segment is serialized into its pool mbuf — the
    /// paper's `sendv` contract end-to-end. `Bytes` is immutable by
    /// construction, which is exactly the §3 requirement that the
    /// application not touch transmitted buffers until acknowledged.
    pub fn send_bytes(&mut self, now_ns: u64, flow: FlowId, data: &Bytes) -> Result<usize, StackError> {
        self.send_impl(now_ns, flow, data.as_slice(), Some(data))
    }

    /// Checks that `flow` may take data: a live handle in Established
    /// or CloseWait with no FIN queued. Every `sendv` is held to this,
    /// whether the stack or a kernel send buffer takes the bytes.
    pub fn sendable(&mut self, flow: FlowId) -> Result<(), StackError> {
        let tcb = self.get_mut(flow)?;
        match tcb.state {
            TcpState::Established | TcpState::CloseWait if !tcb.fin_queued => Ok(()),
            _ => Err(StackError::BadState),
        }
    }

    fn send_impl(
        &mut self,
        now_ns: u64,
        flow: FlowId,
        data: &[u8],
        shared: Option<&Bytes>,
    ) -> Result<usize, StackError> {
        self.now_ns = now_ns;
        self.sendable(flow)?;
        let cfg_mss = self.cfg.mss as usize;
        let tcb = self.flows.get_mut(flow.key).expect("sendable");
        let usable = tcb.usable_window() as usize;
        let accepted = usable.min(data.len());
        let mss = (tcb.mss as usize).min(cfg_mss);
        let had_flight = tcb.flight() > 0;
        let key = flow.key;
        if accepted > 0 {
            // One storage block backs every rtq entry of this call: the
            // caller's own block (send_bytes — nothing copied) or a single
            // copy of the accepted prefix. Segments slice it O(1), so
            // retransmission later needs no payload copy either.
            let block = match shared {
                Some(b) => b.slice(..accepted),
                None => {
                    self.stats.tx_rtq_blocks += 1;
                    Bytes::copy_from_slice(&data[..accepted])
                }
            };
            let mut off = 0usize;
            while off < accepted {
                let len = mss.min(accepted - off);
                let tcb = self.flows.get_mut(key).expect("validated");
                let seq = tcb.snd_nxt;
                tcb.snd_nxt = tcb.snd_nxt.wrapping_add(len as u32);
                let seg = TxSeg {
                    seq,
                    data: block.slice(off..off + len),
                    fin: false,
                    tx_time_ns: now_ns,
                    retransmitted: false,
                };
                self.spare_rtq.push_back(&mut tcb.rtq, seg);
                let spec = SegmentSpec {
                    flags: TcpFlags { psh: off + len == accepted, ..TcpFlags::ACK },
                    seq,
                    ack: tcb.rcv_nxt,
                    window: tcb.advertised_window_field(),
                    mss: None,
                    wscale: None,
                    payload: &data[off..off + len],
                };
                // ACK piggybacked: clear any deferred ACK obligation.
                self.emit_segment_for_key(key, spec);
                off += len;
            }
        }
        if accepted > 0 {
            self.stats.bytes_tx += accepted as u64;
            let tcb = self.flows.get_mut(key).expect("validated");
            tcb.need_ack = false;
            let delack = tcb.delack_timer.take();
            if let Some(t) = delack {
                self.wheel.cancel(t); // The data segment carried the ACK.
            }
            if !had_flight {
                self.restart_rto(key);
            }
        } else {
            // Zero usable window: arm the persist probe so a lost window
            // update cannot deadlock the connection.
            let tcb = self.flows.get_mut(key).expect("validated");
            if tcb.snd_wnd == 0 && tcb.persist_timer().is_none() {
                let gen = tcb.id.gen;
                let t = self.wheel.schedule(
                    self.cfg.persist_ns,
                    TimerEntry { key, gen, kind: TimerKind::Persist },
                );
                tcb.cold_mut(&mut self.spare_cold).persist_timer = Some(t);
            }
        }
        Ok(accepted)
    }

    /// Sends a UDP datagram.
    pub fn udp_send(
        &mut self,
        now_ns: u64,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        self.now_ns = now_ns;
        let len = (UdpHeader::LEN + payload.len()) as u16;
        let hdr = UdpHeader { src_port, dst_port, len };
        self.stats.udp_tx += 1;
        if self.arp.lookup(dst_ip).is_some() {
            // Resolved next hop: one pool mbuf, payload written once into
            // the tail, UDP/IP/Eth headers prepended in place. The
            // checksum is fed from the caller's payload slice, so the
            // wire bytes match the old staging-Vec construction exactly.
            let Some(mut m) = self.pool.alloc_with_headroom(TX_HEADROOM) else {
                // The Vec-chain path consumed an IP ident before it
                // discovered pool exhaustion; keep consuming one so wire
                // bytes after recovery stay identical.
                self.ip_ident = self.ip_ident.wrapping_add(1);
                self.stats.pool_drops += 1;
                return;
            };
            m.extend_from_slice(payload);
            if !payload.is_empty() {
                self.stats.tx_payload_writes += 1;
            }
            hdr.encode(m.prepend(UdpHeader::LEN), self.local_ip, dst_ip, payload);
            self.transmit_l4_mbuf(dst_ip, IpProto::Udp, m);
        } else {
            // Cold ARP entry: serialize once into a transient buffer and
            // park it until the next hop resolves (no pool mbuf needed).
            let ip = self.next_ipv4(IpProto::Udp, dst_ip, len as usize);
            self.stats.tx_transient_allocs += 1;
            let mut l3 = vec![0u8; ip.total_len as usize];
            l3[Ipv4Header::LEN + UdpHeader::LEN..].copy_from_slice(payload);
            if !payload.is_empty() {
                self.stats.tx_payload_writes += 1;
            }
            let (ih, rest) = l3.split_at_mut(Ipv4Header::LEN);
            let (uh, pl) = rest.split_at_mut(UdpHeader::LEN);
            hdr.encode(uh, self.local_ip, dst_ip, pl);
            ip.encode(ih);
            self.park_l3(dst_ip, l3.into());
        }
    }

    // ------------------------------------------------------------------
    // ACK batching (the IX "ACK as the app consumes" behaviour, §3).
    // ------------------------------------------------------------------

    pub(super) fn mark_ack(&mut self, key: u64) {
        if let Some(tcb) = self.flows.get_mut(key) {
            if !tcb.need_ack {
                tcb.need_ack = true;
            }
            if !self.pending_acks.contains(&key) {
                self.pending_acks.push(key);
            }
        }
    }

    /// Emits all deferred ACKs; the IX dataplane calls this at the end of
    /// each run-to-completion cycle so windows reflect `recv_done`
    /// credits issued by the application during the cycle.
    pub fn end_cycle(&mut self, now_ns: u64) {
        /// Retired-slab slots reclaimed per quiescent cycle (~3 MB of
        /// drop-glue reads): a replaced 250k-slot slab drains in ~30
        /// cycles without putting its full DRAM pass in any one cycle.
        const RECLAIM_SLOTS_PER_CYCLE: usize = 8192;
        self.now_ns = now_ns;
        self.flush_acks();
        // RCU-style deferred reclamation: migration swaps TCB slabs
        // inside the blackout window and leaves the old one retired;
        // quiescent cycles pay its drop glue a bounded chunk at a time.
        self.flows.reclaim_retired(RECLAIM_SLOTS_PER_CYCLE);
    }

    /// Delayed-ACK policy (RFC 1122): a flow with one unacknowledged
    /// data segment waits (armed timer) hoping to piggyback on outgoing
    /// data; a second segment forces the ACK out immediately.
    pub(super) fn delayed_ack_pass(&mut self, delay_ns: u64) {
        let mut keys = std::mem::take(&mut self.pending_acks);
        for key in keys.drain(..) {
            let Some(tcb) = self.flows.get_mut(key) else { continue };
            if !tcb.need_ack {
                continue;
            }
            if tcb.delack_timer.is_some() {
                // Second segment while one was pending: ACK now.
                let t = tcb.delack_timer.take().expect("present");
                self.wheel.cancel(t);
                self.emit_bare_ack(key);
            } else {
                let gen = tcb.id.gen;
                let t = self.wheel.schedule(
                    delay_ns,
                    TimerEntry { key, gen, kind: TimerKind::DelAck },
                );
                self.flows.get_mut(key).expect("live").delack_timer = Some(t);
            }
        }
        self.restore_pending_acks(keys);
    }

    pub(super) fn flush_acks(&mut self) {
        let mut keys = std::mem::take(&mut self.pending_acks);
        for key in keys.drain(..) {
            let needs = self.flows.get(key).map(|t| t.need_ack).unwrap_or(false);
            if needs {
                self.emit_bare_ack(key);
            }
        }
        self.restore_pending_acks(keys);
    }

    /// Hands the drained deferred-ACK list back so its buffer serves the
    /// next cycle. Emitting an ACK never defers another, so nothing was
    /// queued behind the walk.
    fn restore_pending_acks(&mut self, drained: Vec<u64>) {
        debug_assert!(drained.is_empty() && self.pending_acks.is_empty());
        self.pending_acks = drained;
    }

    // ------------------------------------------------------------------
    // Output builders.
    // ------------------------------------------------------------------

    pub(super) fn emit_bare_ack(&mut self, key: u64) {
        let Some(tcb) = self.flows.get_mut(key) else { return };
        tcb.need_ack = false;
        if let Some(t) = tcb.delack_timer.take() {
            self.wheel.cancel(t);
        }
        let window = tcb.advertised_window_field();
        tcb.adv_wnd_last = tcb.advertised_window();
        let spec = SegmentSpec::bare(TcpFlags::ACK, tcb.snd_nxt, tcb.rcv_nxt, window);
        self.emit_segment_for_key(key, spec);
    }

    pub(super) fn queue_fin(&mut self, key: u64) {
        let now = self.now_ns;
        let tcb = self.flows.get_mut(key).expect("live");
        debug_assert!(!tcb.fin_queued);
        tcb.fin_queued = true;
        let seq = tcb.snd_nxt;
        tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1);
        let fin = TxSeg { seq, data: Bytes::new(), fin: true, tx_time_ns: now, retransmitted: false };
        self.spare_rtq.push_back(&mut tcb.rtq, fin);
        tcb.need_ack = false;
        let spec = SegmentSpec::bare(TcpFlags::FIN_ACK, seq, tcb.rcv_nxt, tcb.advertised_window_field());
        self.emit_segment_for_key(key, spec);
        self.restart_rto(key);
    }

    pub(super) fn send_rst(&mut self, key: u64, seq: u32, ack: u32) {
        debug_assert!(self.flows.contains_key(key));
        let (remote_ip, remote_port, local_port) = FlowId::unpack(key);
        self.raw_rst(local_port, remote_port, seq, ack, false, remote_ip);
    }

    /// Emits a RST without requiring a PCB. The argument list mirrors
    /// the wire header fields it fills in.
    pub(super) fn raw_rst(
        &mut self,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        seq_from_ack: bool,
        dst_ip: Ipv4Addr,
    ) {
        self.stats.rst_tx += 1;
        let flags = if seq_from_ack { TcpFlags::RST } else { TcpFlags::RST_ACK };
        self.build_and_queue_tcp(dst_ip, src_port, dst_port, SegmentSpec::bare(flags, seq, ack, 0));
    }

    /// Emits a segment for a PCB not (yet) in the flow map.
    pub(super) fn emit_segment_for(&mut self, tcb: &Tcb, spec: SegmentSpec<'_>) {
        let (remote_ip, remote_port, local_port) = FlowId::unpack(tcb.id.key);
        self.build_and_queue_tcp(remote_ip, local_port, remote_port, spec);
    }

    /// Emits a segment for a flow in the map. The route is the key.
    pub(super) fn emit_segment_for_key(&mut self, key: u64, spec: SegmentSpec<'_>) {
        debug_assert!(self.flows.contains_key(key));
        let (remote_ip, remote_port, local_port) = FlowId::unpack(key);
        self.build_and_queue_tcp(remote_ip, local_port, remote_port, spec);
    }

    /// Serializes a TCP segment directly into a pool mbuf: the payload is
    /// written once into the tail, then TCP, IPv4, and Ethernet headers
    /// are prepended in place. The TCP checksum is fed from the header
    /// slice plus the external payload slice (RFC 1071 is associative
    /// over concatenation), so the wire bytes are identical to the old
    /// contiguous staging-Vec construction.
    pub(super) fn build_and_queue_tcp(&mut self, dst_ip: Ipv4Addr, src_port: u16, dst_port: u16, spec: SegmentSpec<'_>) {
        self.stats.tx_segments += 1;
        let hdr = TcpHeader {
            src_port,
            dst_port,
            seq: spec.seq,
            ack: spec.ack,
            flags: spec.flags,
            window: spec.window,
            mss: spec.mss,
            wscale: spec.wscale,
        };
        let hlen = hdr.len();
        let ip = self.next_ipv4(IpProto::Tcp, dst_ip, hlen + spec.payload.len());
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                let Some(mut m) = self.pool.alloc_with_headroom(TX_HEADROOM) else {
                    self.stats.pool_drops += 1;
                    return;
                };
                m.extend_from_slice(spec.payload);
                if !spec.payload.is_empty() {
                    self.stats.tx_payload_writes += 1;
                }
                hdr.encode(m.prepend(hlen), self.local_ip, dst_ip, spec.payload);
                ip.encode(m.prepend(Ipv4Header::LEN));
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                // Cold ARP entry: serialize once into a transient buffer
                // and park it until the next hop resolves.
                self.stats.tx_transient_allocs += 1;
                let mut l3 = vec![0u8; Ipv4Header::LEN + hlen + spec.payload.len()];
                l3[Ipv4Header::LEN + hlen..].copy_from_slice(spec.payload);
                if !spec.payload.is_empty() {
                    self.stats.tx_payload_writes += 1;
                }
                let (ih, rest) = l3.split_at_mut(Ipv4Header::LEN);
                let (th, pl) = rest.split_at_mut(hlen);
                hdr.encode(th, self.local_ip, dst_ip, pl);
                ip.encode(ih);
                self.park_l3(dst_ip, l3.into());
            }
        }
    }

    /// Wraps an L4 payload already resident in an mbuf — headers go into
    /// the headroom in place — in IPv4, and routes it. Used by the ICMP
    /// echo reply (aliasing the RX mbuf) and `udp_send`.
    pub(super) fn transmit_l4_mbuf(&mut self, dst_ip: Ipv4Addr, proto: IpProto, mut m: Mbuf) {
        let ip = self.next_ipv4(proto, dst_ip, m.len());
        ip.encode(m.prepend(Ipv4Header::LEN));
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                // Park a serialized copy; the mbuf itself goes back to
                // its owner (pool or RX clone) when dropped here.
                self.stats.tx_transient_allocs += 1;
                self.stats.tx_payload_writes += 1;
                self.park_l3(dst_ip, Bytes::copy_from_slice(m.data()));
            }
        }
    }

    /// Attaches the Ethernet header to an already-serialized L3 frame
    /// (released from the ARP park queue) and queues it for the NIC.
    pub(super) fn transmit_l3(&mut self, dst_ip: Ipv4Addr, l3: Bytes) {
        match self.arp.lookup(dst_ip) {
            Some(mac) => {
                let Some(mut m) = self.pool.alloc() else {
                    self.stats.pool_drops += 1;
                    return;
                };
                m.extend_from_slice(&l3);
                self.stats.tx_payload_writes += 1;
                self.queue_frame(m, mac, EtherType::Ipv4);
            }
            None => {
                self.park_l3(dst_ip, l3);
            }
        }
    }

    pub(super) fn emit_arp(&mut self, pkt: ArpPacket, dst: MacAddr) {
        let Some(mut m) = self.pool.alloc() else {
            self.stats.pool_drops += 1;
            return;
        };
        self.stats.arp_tx += 1;
        pkt.encode(m.append(ArpPacket::LEN));
        self.queue_frame(m, dst, EtherType::Arp);
    }

    /// The IPv4 header of the next datagram this shard emits. One ident
    /// per datagram, consumed here, before routing — even for a frame
    /// later dropped on pool exhaustion; recovery traces depend on that
    /// numbering.
    fn next_ipv4(&mut self, proto: IpProto, dst: Ipv4Addr, l4_len: usize) -> Ipv4Header {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + l4_len) as u16,
            ident: self.ip_ident,
            ttl: Ipv4Header::DEFAULT_TTL,
            proto,
            src: self.local_ip,
            dst,
        }
    }

    /// Prepends the Ethernet header and queues the frame for the NIC.
    fn queue_frame(&mut self, mut m: Mbuf, dst: MacAddr, ethertype: EtherType) {
        EthHeader { dst, src: self.local_mac, ethertype }.encode(m.prepend(EthHeader::LEN));
        self.tx.push(m);
    }

    /// Parks a serialized L3 frame until `dst_ip` resolves, asking for
    /// the address unless a request is already out.
    fn park_l3(&mut self, dst_ip: Ipv4Addr, l3: Bytes) {
        if self.arp.park(dst_ip, l3) {
            let req = ArpPacket::request(self.local_mac, self.local_ip, dst_ip);
            self.emit_arp(req, MacAddr::BROADCAST);
        }
    }
}
