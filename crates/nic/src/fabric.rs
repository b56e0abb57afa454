//! Topology builder: hosts wired to one switch.

use std::cell::RefCell;
use std::rc::Rc;

use ix_net::eth::MacAddr;
use ix_net::ip::Ipv4Addr;

use crate::host::{Host, HostId};
use crate::nic::{Nic, NicRef};
use crate::params::MachineParams;
use crate::switch::Switch;

/// The simulated machine room: one switch and its hosts.
///
/// Mirrors §5.1: a 48-port switch, 24 clients on one port each, the
/// server on one port (10GbE) or four bonded ports (4x10GbE).
pub struct Fabric {
    /// The switch.
    pub switch: Rc<RefCell<Switch>>,
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<Host>,
    params: MachineParams,
    next_port: u16,
}

impl Fabric {
    /// Creates a fabric whose switch starts with `ports` ports; it grows
    /// as [`Fabric::add_host`] needs more.
    pub fn new(ports: usize, params: MachineParams) -> Fabric {
        Fabric {
            switch: Rc::new(RefCell::new(Switch::new(ports, params.clone()))),
            hosts: Vec::new(),
            params,
            next_port: 0,
        }
    }

    /// Adds a host with `n_ports` NIC ports (bonded if more than one,
    /// sharing one MAC and IP) and `cores` full-speed hardware threads
    /// plus `hyperthreads` reduced-speed ones, on the next free switch
    /// ports.
    pub fn add_host(&mut self, n_ports: usize, cores: usize, hyperthreads: usize) -> HostId {
        let id = HostId(self.hosts.len() as u16);
        let mac = MacAddr::from_host_index(id.0 + 1);
        let ip = Ipv4Addr::from_host_index(id.0 + 1);
        let mut nics: Vec<NicRef> = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            let port = self.next_port;
            self.next_port += 1;
            let nic = Rc::new(RefCell::new(Nic::new(
                mac,
                self.params.queues_per_port,
                self.params.clone(),
            )));
            nic.borrow_mut().attach(Rc::downgrade(&self.switch), port);
            self.switch.borrow_mut().attach(port, nic.clone(), mac);
            nics.push(nic);
        }
        self.hosts.push(Host {
            id,
            ip,
            mac,
            nics,
            cores: Host::make_cores(cores, hyperthreads, 0.6),
        });
        id
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Installs a fault plan across the whole fabric: the switch and
    /// every NIC share one live [`ix_faults::FaultState`], so per-link
    /// and per-queue counters accumulate in one place. Returns the
    /// handle for snapshotting counters. Call after all hosts exist;
    /// links/NICs are keyed by switch port (see [`Fabric::host_port`]).
    pub fn install_faults(&mut self, plan: ix_faults::FaultPlan) -> ix_faults::FaultsRef {
        let state = ix_faults::FaultState::shared(plan);
        self.switch.borrow_mut().set_faults(state.clone());
        for host in &self.hosts {
            for nic in &host.nics {
                nic.borrow_mut().set_faults(state.clone());
            }
        }
        state
    }

    /// The switch port of a host's `nth` NIC — the key for that link in
    /// a [`ix_faults::FaultPlan`].
    pub fn host_port(&self, id: HostId, nth: usize) -> u16 {
        self.hosts[id.0 as usize].nics[nth].borrow().switch_port
    }

    /// The machine parameters the fabric was built with.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("hosts", &self.hosts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_mempool::Mbuf;
    use ix_net::eth::{EthHeader, EtherType};
    use ix_net::ip::{IpProto, Ipv4Header};
    use ix_net::tcp::{TcpFlags, TcpHeader};
    use ix_net::wire::frame_wire_bytes;
    use ix_sim::{Nanos, SimTime, Simulator};

    fn testbed() -> Fabric {
        let mut f = Fabric::new(8, MachineParams::default());
        f.add_host(1, 2, 0); // Host 0.
        f.add_host(1, 2, 0); // Host 1.
        f
    }

    /// Builds a TCP frame from host `src` to host `dst`.
    fn frame_between(f: &Fabric, src: HostId, dst: HostId, payload: &[u8]) -> Mbuf {
        let s = f.host(src);
        let d = f.host(dst);
        let mut m = Mbuf::standalone();
        m.extend_from_slice(payload);
        let tcp = TcpHeader {
            src_port: 1234,
            dst_port: 80,
            seq: 1,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
        };
        let tlen = tcp.len();
        let data_copy: Vec<u8> = m.data().to_vec();
        tcp.encode(m.prepend(tlen), s.ip, d.ip, &data_copy);
        let ip = Ipv4Header {
            tos: 0,
            total_len: (Ipv4Header::LEN + tlen + payload.len()) as u16,
            ident: 0,
            ttl: 64,
            proto: IpProto::Tcp,
            src: s.ip,
            dst: d.ip,
        };
        ip.encode(m.prepend(Ipv4Header::LEN));
        EthHeader {
            dst: d.mac,
            src: s.mac,
            ethertype: EtherType::Ipv4,
        }
        .encode(m.prepend(EthHeader::LEN));
        m
    }

    #[test]
    fn end_to_end_frame_delivery() {
        let mut sim = Simulator::new(1);
        let f = testbed();
        let frame = frame_between(&f, HostId(0), HostId(1), b"ping");
        let src_nic = f.host(HostId(0)).nics[0].clone();
        // Enqueue on queue 0 TX and kick.
        assert!(
            src_nic.borrow_mut().tx_ring(0).push(frame).is_ok(),
            "tx ring accepts"
        );
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        let dst_nic = &f.host(HostId(1)).nics[0];
        assert_eq!(dst_nic.borrow().stats.rx_frames, 1);
        // The frame content survived the trip.
        let q = {
            let mut found = None;
            let mut n = dst_nic.borrow_mut();
            for q in 0..n.queues() {
                if n.rx_ring(q).pending() > 0 {
                    found = Some(q);
                    break;
                }
            }
            found.expect("frame landed in some queue")
        };
        let got = dst_nic.borrow_mut().rx_ring(q).poll().unwrap();
        assert!(got.data().ends_with(b"ping"));
    }

    #[test]
    fn switch_grows_for_hosts_beyond_its_size() {
        let mut sim = Simulator::new(1);
        let mut f = Fabric::new(2, MachineParams::default());
        let hosts: Vec<HostId> = (0..5).map(|_| f.add_host(1, 1, 0)).collect();
        assert_eq!(f.switch.borrow().port_count(), 5);
        let last = *hosts.last().unwrap();
        let frame = frame_between(&f, HostId(0), last, b"late");
        let src_nic = f.host(HostId(0)).nics[0].clone();
        src_nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        assert_eq!(f.host(last).nics[0].borrow().stats.rx_frames, 1);
    }

    #[test]
    fn latency_matches_fabric_pipeline() {
        let mut sim = Simulator::new(1);
        let f = testbed();
        let payload = b"x".repeat(64);
        let frame = frame_between(&f, HostId(0), HostId(1), &payload);
        let l2 = frame.len() - EthHeader::LEN;
        let src_nic = f.host(HostId(0)).nics[0].clone();
        src_nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
        let t0 = sim.now();
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        let elapsed = sim.now().since(t0);
        let expect = f.params().fabric_one_way_ns(l2);
        assert_eq!(elapsed, Nanos(expect), "one-way {elapsed}");
    }

    #[test]
    fn back_to_back_frames_serialize_at_line_rate() {
        let mut sim = Simulator::new(1);
        let f = testbed();
        let src_nic = f.host(HostId(0)).nics[0].clone();
        let n = 100;
        for _ in 0..n {
            let frame = frame_between(&f, HostId(0), HostId(1), &[0u8; 1000]);
            src_nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
        }
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        let dst_nic = &f.host(HostId(1)).nics[0];
        assert_eq!(dst_nic.borrow().stats.rx_frames, n as u64);
        // Total time ≈ pipeline latency + n * serialization.
        let ser = f.params().serialization_ns(1000 + 40);
        let total = sim.now().as_nanos();
        let floor = (n as u64) * ser;
        assert!(total >= floor, "total {total} < serialization floor {floor}");
        assert!(total < floor + 10_000, "total {total} too slow");
    }

    #[test]
    fn bonded_host_spreads_flows_over_ports() {
        let mut f = Fabric::new(8, MachineParams::default());
        let client = f.add_host(1, 1, 0);
        let server = f.add_host(4, 8, 0); // 4x10GbE bond.
        let mut sim = Simulator::new(1);
        // Many flows with different source ports.
        let src_nic = f.host(client).nics[0].clone();
        for port in 0..200u16 {
            let s = f.host(client);
            let d = f.host(server);
            let mut m = Mbuf::standalone();
            let tcp = TcpHeader {
                src_port: 10_000 + port,
                dst_port: 80,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 1000,
                mss: Some(1460),
                wscale: None,
            };
            let tlen = tcp.len();
            tcp.encode(m.append(tlen), s.ip, d.ip, &[]);
            Ipv4Header {
                tos: 0,
                total_len: (Ipv4Header::LEN + tlen) as u16,
                ident: 0,
                ttl: 64,
                proto: IpProto::Tcp,
                src: s.ip,
                dst: d.ip,
            }
            .encode(m.prepend(Ipv4Header::LEN));
            EthHeader {
                dst: d.mac,
                src: s.mac,
                ethertype: EtherType::Ipv4,
            }
            .encode(m.prepend(EthHeader::LEN));
            src_nic.borrow_mut().tx_ring(0).push(m).ok().unwrap();
        }
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        let ports_hit = f
            .host(server)
            .nics
            .iter()
            .filter(|n| n.borrow().stats.rx_frames > 0)
            .count();
        assert!(ports_hit >= 3, "LAG hash used only {ports_hit} ports");
        let total: u64 = f
            .host(server)
            .nics
            .iter()
            .map(|n| n.borrow().stats.rx_frames)
            .sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn tx_hang_defers_the_drain_and_a_lost_doorbell_strands_the_ring() {
        use ix_faults::{FaultPlan, NicFaults};
        /// End of the TX hang window over t = 0: far past the one-way
        /// latency, so an unhung drain would have delivered long before.
        const HANG_END: u64 = 50_000;
        let rx_frames = |f: &Fabric| f.host(HostId(1)).nics[0].borrow().stats.rx_frames;

        // A frame kicked inside the window leaves when it closes.
        let mut sim = Simulator::new(1);
        let mut f = testbed();
        let port = f.host_port(HostId(0), 0);
        let hang = NicFaults { tx_hangs: vec![(0, HANG_END)], ..NicFaults::default() };
        let faults = f.install_faults(FaultPlan::new(1).with_nic(port, hang));
        let frame = frame_between(&f, HostId(0), HostId(1), b"late");
        let l2 = frame.len() - EthHeader::LEN;
        let src_nic = f.host(HostId(0)).nics[0].clone();
        src_nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run_until(SimTime(HANG_END - 1));
        assert_eq!(rx_frames(&f), 0, "the frame left inside the hang window");
        sim.run();
        assert_eq!(rx_frames(&f), 1);
        assert_eq!(sim.now(), SimTime(HANG_END + f.params().fabric_one_way_ns(l2)));
        assert_eq!(faults.borrow().snapshot().nics[&port].tx_hang_defers, 1);

        // A lost doorbell leaves the frame in the ring and the wire idle.
        let mut sim = Simulator::new(1);
        let mut f = testbed();
        let lossy = NicFaults { doorbell_loss: 1.0, ..NicFaults::default() };
        let faults = f.install_faults(FaultPlan::new(1).with_nic(port, lossy));
        let frame = frame_between(&f, HostId(0), HostId(1), b"lost");
        let src_nic = f.host(HostId(0)).nics[0].clone();
        src_nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
        crate::nic::Nic::kick_tx(&src_nic, &mut sim);
        sim.run();
        assert_eq!(src_nic.borrow_mut().tx_ring(0).pending(), 1);
        assert_eq!(rx_frames(&f), 0);
        assert_eq!(faults.borrow().snapshot().nics[&port].doorbells_lost, 1);
    }

    #[test]
    fn wire_accounting_matches_frames() {
        // frame_wire_bytes is used for goodput math in the benches; check
        // one concrete case end to end.
        let f = testbed();
        let frame = frame_between(&f, HostId(0), HostId(1), &[0u8; 64]);
        assert_eq!(frame.len(), 64 + 20 + 20 + 14);
        assert_eq!(frame_wire_bytes(frame.len() - 14), 142);
    }

    #[test]
    fn host_lookup() {
        let f = testbed();
        assert_eq!(f.host(HostId(0)).cores.len(), 2);
    }

    #[test]
    fn congestion_queues_at_switch_port() {
        // Two senders to one receiver: the receiver's switch port can
        // carry only 10 Gbps, so 2x offered load takes ~2x the time.
        let mut f = Fabric::new(8, MachineParams::default());
        let a = f.add_host(1, 1, 0);
        let b = f.add_host(1, 1, 0);
        let dst = f.add_host(1, 1, 0);
        let mut sim = Simulator::new(1);
        let n = 200;
        for src in [a, b] {
            let nic = f.host(src).nics[0].clone();
            for _ in 0..n {
                let frame = frame_between(&f, src, dst, &[0u8; 1400]);
                nic.borrow_mut().tx_ring(0).push(frame).ok().unwrap();
            }
            crate::nic::Nic::kick_tx(&nic, &mut sim);
        }
        sim.run();
        assert_eq!(f.host(dst).nics[0].borrow().stats.rx_frames, 2 * n as u64);
        let ser = f.params().serialization_ns(1400 + 40);
        // All frames leave the two sources in ~n*ser, but must squeeze
        // through one egress port: total ≈ 2n * ser.
        let elapsed = sim.now().as_nanos();
        let floor = 2 * n as u64 * ser;
        assert!(elapsed >= floor, "{elapsed} < {floor}");
        assert!(elapsed < floor + floor / 4, "{elapsed} ≫ {floor}");
    }
}
