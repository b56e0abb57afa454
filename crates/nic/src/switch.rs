//! The cut-through switch with static MAC forwarding and link
//! aggregation.
//!
//! Models the Quanta/Cumulus 48x10GbE Broadcom Trident+ switch of the
//! testbed (§5.1): per-port output serialization at line rate, a
//! cut-through forwarding latency, and L3+L4-hash link aggregation for
//! the server's 4x10GbE bond.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ix_faults::{FaultsRef, LinkVerdict};
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, MacAddr};
use ix_net::peek;
use ix_net::rss::{hash_ipv4_tuple, TOEPLITZ_DEFAULT_KEY};
use ix_sim::{EventTarget, Nanos, SimTime, Simulator};

use crate::nic::{Nic, NicRef};
use crate::params::MachineParams;

/// Where [`Switch::resolve`] sends a frame.
enum Route {
    /// Nowhere: runt frame or unknown unicast destination.
    Drop,
    /// One output port (the per-packet case).
    Port(u16),
    /// Every attached port but the one it came in on.
    Flood,
}

/// Which hop a parked frame is waiting to make (the top bit of a plain
/// event's argument; the port and the frame's slot fill the rest).
const HOP_DELIVER: u64 = 1 << 63;

fn hop_arg(hop: u64, port: u16, slot: u32) -> u64 {
    hop | u64::from(port) << 32 | u64::from(slot)
}

/// Forwarding decision for a destination MAC.
#[derive(Debug, Clone)]
enum PortSel {
    /// A single switch port.
    One(u16),
    /// A link-aggregation group; member chosen by L3+L4 hash.
    Lag(Vec<u16>),
}

#[derive(Debug, Default)]
struct SwitchPort {
    busy_until: SimTime,
}

/// Per-switch counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames flooded (broadcast destination).
    pub flooded: u64,
    /// Frames dropped for an unknown unicast destination.
    pub unknown_dropped: u64,
}

/// The switch: forwarding table, per-port occupancy, attached NICs.
pub struct Switch {
    params: MachineParams,
    ports: Vec<SwitchPort>,
    attached: Vec<Option<NicRef>>,
    table: HashMap<MacAddr, PortSel>,
    /// Counters.
    pub stats: SwitchStats,
    /// Installed fault plane, if any. Links are keyed by switch port;
    /// each frame consults the fault plane once per link it crosses
    /// (once at ingress for the sender's link, once at egress for the
    /// receiver's). Absent by default: the fault-free path draws no
    /// randomness and schedules nothing extra.
    faults: Option<FaultsRef>,
    /// Frames on a cable: between a NIC's serializer and this switch's
    /// ingress, or between an egress port and the destination NIC. Each
    /// is parked here while the plain event that moves it on is pending,
    /// and that event's argument names its slot — so a frame in flight
    /// costs no allocation, and events may fire in any order (the fault
    /// plane's `Delay` reorders them).
    in_flight: Vec<Option<Mbuf>>,
    /// Vacant `in_flight` slots.
    free_slots: Vec<u32>,
}

impl Switch {
    /// Creates a switch with `ports` ports.
    pub fn new(ports: usize, params: MachineParams) -> Switch {
        Switch {
            params,
            ports: (0..ports).map(|_| SwitchPort::default()).collect(),
            attached: (0..ports).map(|_| None).collect(),
            table: HashMap::new(),
            stats: SwitchStats::default(),
            faults: None,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Parks a frame until the event carrying its slot fires.
    fn park(&mut self, frame: Mbuf) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.in_flight[slot as usize] = Some(frame);
                slot
            }
            None => {
                self.in_flight.push(Some(frame));
                (self.in_flight.len() - 1) as u32
            }
        }
    }

    /// A frame leaves its sender's serializer and will have fully
    /// arrived at `in_port` at `at`: the NIC-to-switch hop, as one plain
    /// event.
    pub fn schedule_ingress(
        switch: &Rc<RefCell<Switch>>,
        sim: &mut Simulator,
        at: SimTime,
        frame: Mbuf,
        in_port: u16,
    ) {
        let slot = switch.borrow_mut().park(frame);
        sim.schedule_event_at(at, switch, hop_arg(0, in_port, slot));
    }

    /// Installs the fault plane ([`crate::fabric::Fabric::install_faults`]
    /// wires the same handle into every NIC).
    pub fn set_faults(&mut self, faults: FaultsRef) {
        self.faults = Some(faults);
    }

    /// Attaches a NIC to a port, adding ports up to it if the switch
    /// has fewer, and installs its MAC in the forwarding table. For
    /// bonded MACs, call once per member port; entries accumulate into a
    /// LAG.
    pub fn attach(&mut self, port: u16, nic: NicRef, mac: MacAddr) {
        let n = port as usize + 1;
        if self.ports.len() < n {
            self.ports.resize_with(n, SwitchPort::default);
            self.attached.resize(n, None);
        }
        self.attached[port as usize] = Some(nic);
        match self.table.get_mut(&mac) {
            None => {
                self.table.insert(mac, PortSel::One(port));
            }
            Some(PortSel::One(existing)) => {
                let first = *existing;
                self.table.insert(mac, PortSel::Lag(vec![first, port]));
            }
            Some(PortSel::Lag(members)) => members.push(port),
        }
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Resolves where a frame goes.
    fn resolve(&mut self, frame: &Mbuf) -> Route {
        let data = frame.data();
        let Some(dst) = peek::dst_mac(data) else {
            return Route::Drop;
        };
        if dst.is_broadcast() {
            self.stats.flooded += 1;
            return Route::Flood;
        }
        match self.table.get(&dst) {
            Some(PortSel::One(p)) => {
                self.stats.forwarded += 1;
                Route::Port(*p)
            }
            Some(PortSel::Lag(members)) => {
                self.stats.forwarded += 1;
                Route::Port(members[Switch::lag_hash(data) % members.len()])
            }
            None => {
                self.stats.unknown_dropped += 1;
                Route::Drop
            }
        }
    }

    /// The L3+L4 hash used for LAG member selection (§5.1: "four NIC
    /// ports bonded by the switch with a L3+L4 hash"): the Toeplitz hash
    /// of the peeked tuple (addresses only for non-TCP/UDP IPv4), 0 for
    /// a frame the peek reads nothing from.
    fn lag_hash(data: &[u8]) -> usize {
        peek::pre_parse(data).map_or(0, |p| {
            hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, p.src_ip, p.dst_ip, p.src_port, p.dst_port) as usize
        })
    }

    /// A frame has fully arrived at `in_port`. Forwards it: cut-through
    /// latency, output-port serialization, propagation, then delivery
    /// into the destination NIC (which adds its own RX latency).
    ///
    /// Fault-plane hook #1: the sender's link (`in_port`) gets a verdict
    /// here, covering the host→switch leg of that cable.
    pub fn ingress(switch: &Rc<RefCell<Switch>>, sim: &mut Simulator, mut frame: Mbuf, in_port: u16) {
        let faults = switch.borrow().faults.clone();
        if let Some(f) = faults {
            let now_ns = sim.now().as_nanos();
            let corruptible = Switch::is_ipv4(&frame);
            match f.borrow_mut().link_verdict(in_port, now_ns, corruptible) {
                LinkVerdict::Deliver => {}
                LinkVerdict::Drop => return,
                LinkVerdict::Corrupt(r) => Switch::corrupt(&mut frame, r),
                LinkVerdict::Delay(d) => {
                    // Reordering on the ingress leg: re-enter forwarding
                    // after the extra delay (bypassing a second verdict).
                    let sw = switch.clone();
                    sim.schedule_in(Nanos(d), move |sim| {
                        Switch::forward(&sw, sim, frame, in_port);
                    });
                    return;
                }
            }
        }
        Switch::forward(switch, sim, frame, in_port);
    }

    /// The fault-free forwarding body of [`Switch::ingress`].
    fn forward(switch: &Rc<RefCell<Switch>>, sim: &mut Simulator, frame: Mbuf, in_port: u16) {
        let route = switch.borrow_mut().resolve(&frame);
        match route {
            Route::Drop => {}
            // The common unicast case moves the frame without copying.
            Route::Port(out) => Switch::egress(switch, sim, frame, out),
            Route::Flood => {
                let outs: Vec<u16> = {
                    let sw = switch.borrow();
                    (0..sw.ports.len() as u16)
                        .filter(|&p| p != in_port && sw.attached[p as usize].is_some())
                        .collect()
                };
                let Some((&last, rest)) = outs.split_last() else {
                    return;
                };
                // Clone for all but the last output.
                for &out in rest {
                    Switch::egress(switch, sim, frame.clone(), out);
                }
                Switch::egress(switch, sim, frame, last);
            }
        }
    }

    /// True when the peek reads an IPv4 header (and therefore checksum
    /// protection for everything past the Ethernet header).
    fn is_ipv4(frame: &Mbuf) -> bool {
        peek::pre_parse(frame.data()).is_some()
    }

    /// Flips one byte of an IPv4 frame at a checksum-protected offset
    /// (anywhere past the Ethernet header: the IP header checksum covers
    /// the header, the TCP/UDP pseudo-header checksum covers the rest),
    /// so the receiving stack must detect and drop the frame.
    fn corrupt(frame: &mut Mbuf, r: u64) {
        let len = frame.len();
        debug_assert!(len > EthHeader::LEN);
        let span = (len - EthHeader::LEN) as u64;
        let off = EthHeader::LEN + (r % span) as usize;
        frame.data_mut()[off] ^= 0xff;
    }

    /// Schedules one frame out of `out` port.
    ///
    /// Fault-plane hook #2: the receiver's link (`out`) gets a verdict
    /// here, covering the switch→host leg of that cable.
    fn egress(switch: &Rc<RefCell<Switch>>, sim: &mut Simulator, mut frame: Mbuf, out: u16) {
        let mut extra_delay = 0u64;
        let faults = switch.borrow().faults.clone();
        if let Some(f) = faults {
            let now_ns = sim.now().as_nanos();
            let corruptible = Switch::is_ipv4(&frame);
            match f.borrow_mut().link_verdict(out, now_ns, corruptible) {
                LinkVerdict::Deliver => {}
                LinkVerdict::Drop => return,
                LinkVerdict::Corrupt(r) => Switch::corrupt(&mut frame, r),
                LinkVerdict::Delay(d) => extra_delay = d,
            }
        }
        let (arrive, slot) = {
            let mut sw = switch.borrow_mut();
            let l2_payload = frame.len().saturating_sub(EthHeader::LEN);
            let ser = sw.params.serialization_ns(l2_payload);
            let start = (sim.now() + Nanos(sw.params.switch_latency_ns))
                .max(sw.ports[out as usize].busy_until);
            let depart = start + Nanos(ser);
            sw.ports[out as usize].busy_until = depart;
            if sw.attached[out as usize].is_none() {
                return;
            }
            let lat = sw.params.propagation_ns + sw.params.nic_rx_latency_ns;
            (depart + Nanos(lat + extra_delay), sw.park(frame))
        };
        sim.schedule_event_at(arrive, switch, hop_arg(HOP_DELIVER, out, slot));
    }
}

impl EventTarget for Switch {
    /// A parked frame completes its hop: into the forwarding path, or
    /// into the NIC cabled to the egress port.
    fn on_event(this: &Rc<RefCell<Switch>>, sim: &mut Simulator, arg: u64) {
        let (port, slot) = ((arg >> 32) as u16, arg as u32);
        let mut sw = this.borrow_mut();
        let frame = sw.in_flight[slot as usize].take().expect("event names a parked frame");
        sw.free_slots.push(slot);
        if arg & HOP_DELIVER == 0 {
            drop(sw);
            Switch::ingress(this, sim, frame, port);
        } else {
            let nic = sw.attached[port as usize].clone().expect("egress checked the port is cabled");
            drop(sw);
            Nic::deliver(&nic, sim, frame);
        }
    }
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("ports", &self.ports.len())
            .field("stats", &self.stats)
            .finish()
    }
}
