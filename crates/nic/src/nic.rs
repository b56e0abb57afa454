//! The multi-queue NIC port model (Intel 82599-style).

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use ix_faults::FaultsRef;
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, MacAddr};
use ix_net::filter::{FilterPolicy, Verdict};
use ix_net::peek::{self, PreParsed};
use ix_net::rss::RSS_BUCKETS;
use ix_sim::{EventTarget, Simulator};

use crate::params::MachineParams;
use crate::ring::{RxRing, TxRing};
use crate::switch::Switch;

/// Index of a hardware queue pair within one NIC port.
pub type QueueId = usize;

/// Callback invoked when a frame lands in an RX ring; engines use it to
/// wake from quiescence (IX) or to model interrupt delivery (Linux).
pub type RxNotify = Rc<dyn Fn(&mut Simulator, QueueId)>;

/// Per-port counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Frames delivered into RX rings.
    pub rx_frames: u64,
    /// Frames dropped for lack of posted RX descriptors.
    pub rx_ring_drops: u64,
    /// Frames dropped because the destination MAC did not match.
    pub rx_mac_drops: u64,
    /// Frames placed on the wire.
    pub tx_frames: u64,
    /// Bytes placed on the wire (L2 payload, excluding preamble/FCS).
    pub tx_bytes: u64,
    /// Bytes received (L2 payload).
    pub rx_bytes: u64,
}

/// Per-queue counters for the pre-stack filter stage. The invariant the
/// whole design hangs on: a dropped frame must never touch the receive
/// pool, so `drop_allocs` — measured as the pool's allocation-counter
/// delta across each drop — stays pinned at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Frames discarded before any pool-mbuf allocation.
    pub drops: u64,
    /// Frames explicitly admitted by the policy (rule or default pass).
    pub passes: u64,
    /// SYN frames admitted but flagged for the stateless-cookie path.
    pub challenges: u64,
    /// Pool allocations observed while executing drops — pinned 0.
    pub drop_allocs: u64,
}

/// One NIC port: RSS steering, per-queue descriptor rings, and wire-rate
/// transmit serialization.
pub struct Nic {
    /// This port's MAC address (bonded ports share one MAC).
    pub mac: MacAddr,
    /// The switch port this NIC is cabled to.
    pub switch_port: u16,
    params: MachineParams,
    /// The redirection table: `redirection[b]` is the queue for RSS
    /// bucket `b` ([`ix_net::rss::bucket`]).
    redirection: Vec<QueueId>,
    rx: Vec<RxRing>,
    tx: Vec<TxRing>,
    notify: Vec<Option<RxNotify>>,
    /// Round-robin cursor over TX queues.
    tx_cursor: usize,
    /// Whether a drain event chain is currently active.
    tx_draining: bool,
    switch: Weak<RefCell<Switch>>,
    /// Installed fault plane, if any (shared with the switch; keyed by
    /// this NIC's `switch_port`). Absent by default — the fault-free
    /// path is untouched.
    faults: Option<FaultsRef>,
    /// Installed pre-stack filter policy snapshot, if any (an RCU read
    /// handle published by the control plane). Absent by default — the
    /// unfiltered path is byte-identical to a build without the filter.
    filter: Option<Rc<FilterPolicy>>,
    /// Per-queue filter verdict counters (empty Vec until a policy is
    /// first installed).
    filter_stats: Vec<FilterStats>,
    /// Port counters.
    pub stats: NicStats,
    /// When true, frames whose destination MAC does not match are still
    /// accepted (used by diagnostic taps; off by default).
    pub promiscuous: bool,
}

/// Shared handle to a NIC.
pub type NicRef = Rc<RefCell<Nic>>;

impl Nic {
    /// Creates a NIC with `queues` queue pairs, attached to nothing.
    /// [`crate::fabric::Fabric`] wires it to a switch port.
    pub fn new(mac: MacAddr, queues: usize, params: MachineParams) -> Nic {
        let ring = params.ring_entries;
        Nic {
            mac,
            switch_port: u16::MAX,
            redirection: (0..RSS_BUCKETS).map(|i| i % queues).collect(),
            rx: (0..queues)
                .map(|_| RxRing::with_pool(ring, ring + params.rx_extra_bufs))
                .collect(),
            tx: (0..queues).map(|_| TxRing::new(ring)).collect(),
            notify: (0..queues).map(|_| None).collect(),
            tx_cursor: 0,
            tx_draining: false,
            switch: Weak::new(),
            faults: None,
            filter: None,
            filter_stats: Vec::new(),
            stats: NicStats::default(),
            promiscuous: false,
            params,
        }
    }

    /// Number of queue pairs.
    pub fn queues(&self) -> usize {
        self.rx.len()
    }

    /// Points the NIC at its switch (done by the fabric builder).
    pub fn attach(&mut self, switch: Weak<RefCell<Switch>>, port: u16) {
        self.switch = switch;
        self.switch_port = port;
    }

    /// Installs the RX notification hook for a queue.
    pub fn set_notify(&mut self, q: QueueId, f: RxNotify) {
        self.notify[q] = Some(f);
    }

    /// Installs the fault plane ([`crate::fabric::Fabric::install_faults`]
    /// wires the same handle into the switch).
    pub fn set_faults(&mut self, faults: FaultsRef) {
        self.faults = Some(faults);
    }

    /// Installs (or removes, with `None`) the pre-stack filter policy.
    /// The argument is a published RCU snapshot: the control plane calls
    /// this again after every rule update, so the hot path never takes a
    /// lock or re-resolves the policy — it just derefs the `Rc` it holds.
    pub fn set_filter(&mut self, policy: Option<Rc<FilterPolicy>>) {
        if policy.is_some() && self.filter_stats.is_empty() {
            self.filter_stats = vec![FilterStats::default(); self.queues()];
        }
        self.filter = policy;
    }

    /// The installed filter policy snapshot, if any.
    pub fn filter(&self) -> Option<&Rc<FilterPolicy>> {
        self.filter.as_ref()
    }

    /// Per-queue filter counters (empty slice if no policy was ever
    /// installed).
    pub fn filter_stats(&self) -> &[FilterStats] {
        &self.filter_stats
    }

    /// Filter counters summed over all queues.
    pub fn filter_stats_total(&self) -> FilterStats {
        let mut t = FilterStats::default();
        for s in &self.filter_stats {
            t.drops += s.drops;
            t.passes += s.passes;
            t.challenges += s.challenges;
            t.drop_allocs += s.drop_allocs;
        }
        t
    }

    /// True when RX queue `q` is inside a scripted hang window at
    /// `now_ns`: the driver must not drain it (frames keep landing and
    /// the ring eventually tail-drops, like a wedged DMA consumer).
    /// Always false without a fault plane.
    pub fn rx_queue_hung(&self, now_ns: u64, q: QueueId) -> bool {
        match &self.faults {
            Some(f) => f.borrow_mut().rx_queue_hung(self.switch_port, q, now_ns),
            None => false,
        }
    }

    /// Reprograms the RSS redirection table. `map[i]` is the queue for
    /// hash bucket `i`; the control plane uses this to rebalance flow
    /// groups between elastic threads (§3, §4.4).
    pub fn set_redirection(&mut self, map: Vec<QueueId>) {
        assert_eq!(map.len(), RSS_BUCKETS, "82599 redirection table has {RSS_BUCKETS} entries");
        let q = self.queues();
        assert!(map.iter().all(|&m| m < q), "queue out of range");
        self.redirection = map;
    }

    /// The current RSS redirection table (`map[i]` = queue for hash
    /// bucket `i`). The control plane reads it to compute incremental
    /// re-steers (e.g. the queue-hang watchdog moving only the buckets
    /// of an unhealthy queue).
    pub fn redirection(&self) -> &[QueueId] {
        &self.redirection
    }

    /// Read access to a queue's RX ring.
    pub fn rx_ring(&mut self, q: QueueId) -> &mut RxRing {
        &mut self.rx[q]
    }

    /// Read access to a queue's TX ring.
    pub fn tx_ring(&mut self, q: QueueId) -> &mut TxRing {
        &mut self.tx[q]
    }

    /// Classifies a peeked frame for RSS: the redirection entry of a
    /// TCP or UDP frame's bucket; queue 0, the 82599's non-RSS default
    /// queue, for anything else.
    fn classify(&self, pre: Option<&PreParsed>) -> QueueId {
        match pre.and_then(PreParsed::rss_bucket) {
            Some(b) => self.redirection[b as usize],
            None => 0,
        }
    }

    /// Wire side: a frame has finished arriving (including NIC RX fixed
    /// latency). Steers it into a ring and fires the queue's notify hook.
    pub fn deliver(nic: &NicRef, sim: &mut Simulator, frame: Mbuf) {
        let (hook, q) = {
            let mut n = nic.borrow_mut();
            let data = frame.data();
            match peek::dst_mac(data) {
                Some(dst) if dst == n.mac || dst.is_broadcast() || n.promiscuous => {}
                _ => {
                    n.stats.rx_mac_drops += 1;
                    return;
                }
            }
            // One peek serves RSS and the filter.
            let pre = peek::pre_parse(data);
            let q = n.classify(pre.as_ref());
            // Pre-stack filter: on a drop verdict, discard *here* —
            // before `RxRing::push` allocates the pool mbuf the frame
            // would be copied into. The pool allocation-counter delta
            // across the drop is recorded so tests can pin it at zero
            // rather than trust the control flow.
            let verdict = match (&n.filter, &pre) {
                (Some(policy), Some(pre)) => Some(policy.classify(pre, sim.now().as_nanos())),
                _ => None,
            };
            match verdict {
                None => {}
                Some(Verdict::Pass) => n.filter_stats[q].passes += 1,
                Some(Verdict::SynChallenge) => n.filter_stats[q].challenges += 1,
                Some(Verdict::Drop) => {
                    let allocs_before = n.rx[q].pool_stats().allocs;
                    drop(frame);
                    let allocs_after = n.rx[q].pool_stats().allocs;
                    n.filter_stats[q].drops += 1;
                    n.filter_stats[q].drop_allocs += allocs_after - allocs_before;
                    return;
                }
            }
            let len = frame.len() as u64;
            if n.rx[q].push(frame) {
                n.stats.rx_frames += 1;
                n.stats.rx_bytes += len;
                (n.notify[q].clone(), q)
            } else {
                n.stats.rx_ring_drops += 1;
                return;
            }
        };
        if let Some(hook) = hook {
            hook(sim, q);
        }
    }

    /// Driver side: the stack wrote TX descriptors and rang the doorbell.
    /// Starts the wire-drain event chain if it is idle.
    ///
    /// Fault-plane hook: a scripted doorbell loss swallows this kick —
    /// queued frames sit in the ring until the *next* doorbell (exactly
    /// the failure a missed MMIO write produces).
    pub fn kick_tx(nic: &NicRef, sim: &mut Simulator) {
        let start = {
            let mut n = nic.borrow_mut();
            if n.tx_draining {
                return;
            }
            if let Some(f) = &n.faults {
                if f.borrow_mut().doorbell_lost(n.switch_port) {
                    return;
                }
            }
            n.tx_draining = true;
            sim.now()
        };
        sim.schedule_event_at(start, nic, 0);
    }

    /// Serializes the next pending TX frame onto the wire, then chains
    /// the next drain at the frame's end-of-serialization instant, which
    /// models back-to-back line-rate transmission.
    fn drain_one(nic: &NicRef, sim: &mut Simulator) {
        // Fault-plane hook: inside a TX hang window the drain engine
        // stalls in place and resumes when the window closes. The
        // `tx_draining` flag stays set so doorbells keep coalescing.
        let hang_until = {
            let n = nic.borrow();
            match &n.faults {
                Some(f) => f.borrow_mut().tx_hang_until(n.switch_port, sim.now().as_nanos()),
                None => None,
            }
        };
        if let Some(end) = hang_until {
            sim.schedule_event_at(ix_sim::SimTime(end), nic, 0);
            return;
        }
        let (frame, depart, sw, port) = {
            let mut n = nic.borrow_mut();
            let queues = n.queues();
            let mut frame = None;
            for i in 0..queues {
                let q = (n.tx_cursor + i) % queues;
                if let Some(f) = n.tx[q].take_for_wire() {
                    n.tx_cursor = (q + 1) % queues;
                    frame = Some(f);
                    break;
                }
            }
            let Some(frame) = frame else {
                n.tx_draining = false;
                return;
            };
            let l2_payload = frame.len().saturating_sub(EthHeader::LEN);
            let ser = n.params.serialization_ns(l2_payload);
            n.stats.tx_frames += 1;
            n.stats.tx_bytes += frame.len() as u64;
            let depart = sim.now() + ix_sim::Nanos(ser);
            (frame, depart, n.switch.clone(), n.switch_port)
        };
        // Frame reaches switch ingress after NIC fixed latency and the
        // host-to-switch propagation delay.
        let (tx_lat, prop) = {
            let n = nic.borrow();
            (n.params.nic_tx_latency_ns, n.params.propagation_ns)
        };
        let ingress_at = depart + ix_sim::Nanos(tx_lat + prop);
        if let Some(sw) = sw.upgrade() {
            Switch::schedule_ingress(&sw, sim, ingress_at, frame, port);
        }
        // Chain the next drain at end of this frame's serialization.
        sim.schedule_event_at(depart, nic, 0);
    }

    /// The machine parameters this NIC was built with.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }
}

impl EventTarget for Nic {
    /// The NIC's only event: the wire is free for the next TX frame.
    fn on_event(this: &NicRef, sim: &mut Simulator, _arg: u64) {
        Nic::drain_one(this, sim);
    }
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("mac", &self.mac)
            .field("queues", &self.rx.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Nic {
        Nic::new(MacAddr::from_host_index(1), 4, MachineParams::default())
    }

    /// The queue RSS steers a frame to.
    fn queue_of(nic: &Nic, f: &Mbuf) -> QueueId {
        nic.classify(peek::pre_parse(f.data()).as_ref())
    }

    /// Builds a minimal TCP/IPv4 frame to the given MAC with the tuple.
    fn tcp_frame(dst_mac: MacAddr, sport: u16, dport: u16) -> Mbuf {
        use ix_net::eth::EtherType;
        use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
        use ix_net::tcp::{TcpFlags, TcpHeader};
        let mut m = Mbuf::standalone();
        let src = Ipv4Addr::new(10, 0, 0, 9);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let tcp = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
        };
        let tcp_len = tcp.len();
        tcp.encode(m.append(tcp_len), src, dst, &[]);
        let ip = Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + tcp_len) as u16,
            ident: 0,
            ttl: 64,
            proto: IpProto::Tcp,
            src,
            dst,
        };
        ip.encode(m.prepend(Ipv4Header::LEN));
        let eth = EthHeader {
            dst: dst_mac,
            src: MacAddr::from_host_index(9),
            ethertype: EtherType::Ipv4,
        };
        eth.encode(m.prepend(EthHeader::LEN));
        m
    }

    #[test]
    fn rss_steers_consistently() {
        let nic = mk();
        let f = tcp_frame(nic.mac, 1234, 80);
        let q1 = queue_of(&nic, &f);
        let q2 = queue_of(&nic, &f);
        assert_eq!(q1, q2);
        assert!(q1 < 4);
    }

    #[test]
    fn different_flows_spread_over_queues() {
        let nic = mk();
        let mut counts = vec![0u32; nic.queues()];
        for p in 1000..3000 {
            let f = tcp_frame(nic.mac, p, 80);
            counts[queue_of(&nic, &f)] += 1;
        }
        // Each queue gets a roughly fair share (within 3x of fair).
        let fair = 2000 / nic.queues() as u32;
        for (q, &c) in counts.iter().enumerate() {
            assert!(c > fair / 3, "queue {q} starved: {counts:?}");
        }
    }

    #[test]
    fn deliver_checks_mac_and_posts() {
        let mut sim = Simulator::new(0);
        let nic = Rc::new(RefCell::new(mk()));
        let my_mac = nic.borrow().mac;
        let f = tcp_frame(my_mac, 1234, 80);
        let q = queue_of(&nic.borrow(), &f);
        Nic::deliver(&nic, &mut sim, f);
        assert_eq!(nic.borrow().stats.rx_frames, 1);
        assert_eq!(nic.borrow_mut().rx_ring(q).pending(), 1);
        // Wrong MAC: dropped.
        let f2 = tcp_frame(MacAddr::from_host_index(42), 1234, 80);
        Nic::deliver(&nic, &mut sim, f2);
        assert_eq!(nic.borrow().stats.rx_mac_drops, 1);
    }

    #[test]
    fn notify_fires_on_delivery() {
        let mut sim = Simulator::new(0);
        let nic = Rc::new(RefCell::new(mk()));
        let my_mac = nic.borrow().mac;
        let f = tcp_frame(my_mac, 5555, 80);
        let q = queue_of(&nic.borrow(), &f);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        nic.borrow_mut()
            .set_notify(q, Rc::new(move |_sim, q| h.borrow_mut().push(q)));
        Nic::deliver(&nic, &mut sim, f);
        assert_eq!(*hits.borrow(), vec![q]);
    }

    #[test]
    fn ring_exhaustion_drops() {
        let mut sim = Simulator::new(0);
        let params = MachineParams { ring_entries: 2, ..MachineParams::default() };
        let nic = Rc::new(RefCell::new(Nic::new(
            MacAddr::from_host_index(1),
            1,
            params,
        )));
        let my_mac = nic.borrow().mac;
        for _ in 0..3 {
            Nic::deliver(&nic, &mut sim, tcp_frame(my_mac, 7, 80));
        }
        let n = nic.borrow();
        assert_eq!(n.stats.rx_frames, 2);
        assert_eq!(n.stats.rx_ring_drops, 1);
    }

    #[test]
    fn filter_drop_happens_before_pool_alloc() {
        use ix_net::filter::{FilterPolicy, RuleAction};
        use ix_net::ip::Ipv4Addr;
        let mut sim = Simulator::new(0);
        let nic = Rc::new(RefCell::new(mk()));
        let my_mac = nic.borrow().mac;
        // Frames come from 10.0.0.9 (the tcp_frame builder); deny it.
        let policy =
            FilterPolicy::new().rule_src(Ipv4Addr::new(10, 0, 0, 9), RuleAction::Drop);
        nic.borrow_mut().set_filter(Some(Rc::new(policy)));
        let f = tcp_frame(my_mac, 1234, 80);
        let q = queue_of(&nic.borrow(), &f);
        let allocs_before = nic.borrow_mut().rx_ring(q).pool_stats().allocs;
        for _ in 0..100 {
            Nic::deliver(&nic, &mut sim, tcp_frame(my_mac, 1234, 80));
        }
        let n = nic.borrow_mut();
        assert_eq!(n.stats.rx_frames, 0, "dropped frames must not land");
        let t = n.filter_stats_total();
        assert_eq!(t.drops, 100);
        assert_eq!(t.drop_allocs, 0, "a dropped frame allocated from the pool");
        drop(n);
        let allocs_after = nic.borrow_mut().rx_ring(q).pool_stats().allocs;
        assert_eq!(allocs_before, allocs_after);
    }

    #[test]
    fn filter_pass_and_challenge_still_deliver() {
        use ix_net::filter::{FilterPolicy, RuleAction};
        let mut sim = Simulator::new(0);
        let nic = Rc::new(RefCell::new(mk()));
        let my_mac = nic.borrow().mac;
        // Challenge rule on port 80: the ACK frames the builder makes
        // are not SYNs, so they pass — and still land in the ring.
        let policy = FilterPolicy::new().rule_port(
            ix_net::ip::IpProto::Tcp,
            80,
            RuleAction::SynChallenge,
        );
        nic.borrow_mut().set_filter(Some(Rc::new(policy)));
        Nic::deliver(&nic, &mut sim, tcp_frame(my_mac, 1234, 80));
        let n = nic.borrow();
        assert_eq!(n.stats.rx_frames, 1);
        assert_eq!(n.filter_stats_total().passes, 1);
        assert_eq!(n.filter_stats_total().drops, 0);
    }

    #[test]
    fn filter_uninstall_restores_plain_path() {
        use ix_net::filter::{FilterPolicy, RuleAction};
        use ix_net::ip::Ipv4Addr;
        let mut sim = Simulator::new(0);
        let nic = Rc::new(RefCell::new(mk()));
        let my_mac = nic.borrow().mac;
        let policy =
            FilterPolicy::new().rule_src(Ipv4Addr::new(10, 0, 0, 9), RuleAction::Drop);
        nic.borrow_mut().set_filter(Some(Rc::new(policy)));
        Nic::deliver(&nic, &mut sim, tcp_frame(my_mac, 1, 80));
        assert_eq!(nic.borrow().stats.rx_frames, 0);
        nic.borrow_mut().set_filter(None);
        Nic::deliver(&nic, &mut sim, tcp_frame(my_mac, 1, 80));
        assert_eq!(nic.borrow().stats.rx_frames, 1);
    }

    #[test]
    fn redirection_table_reprogram() {
        let mut nic = mk();
        // Steer everything to queue 3.
        nic.set_redirection(vec![3; RSS_BUCKETS]);
        let f = tcp_frame(nic.mac, 1234, 80);
        assert_eq!(queue_of(&nic, &f), 3);
    }

    #[test]
    #[should_panic(expected = "128 entries")]
    fn redirection_table_wrong_size_panics() {
        let mut nic = mk();
        nic.set_redirection(vec![0; 64]);
    }
}
