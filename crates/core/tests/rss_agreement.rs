//! The NIC and the TCP shard share one RSS bucket function. Every flow a
//! client core opened with `connect` is filed under a bucket whose
//! redirection entry is that core's queue, and a frame the server sends
//! on the flow lands on that queue of the client's NIC — the agreement
//! that keeps each connection on the one core that holds its TCB.

use ix_apps::harness::{EngineTuning, System, Testbed};
use ix_apps::{EchoBenchStats, EchoClient, EchoServer};
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::rss::RSS_BUCKETS;
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_nic::nic::Nic;
use ix_tcp::FlowId;

const PORT: u16 = 7000;
const CORES: usize = 4;
const CONNS_PER_CORE: usize = 16;

/// A bare ACK from `src:sport` to `dst:dport`, for the host at `dst_mac`.
fn ack_frame(dst_mac: MacAddr, src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Mbuf {
    let tcp = TcpHeader {
        src_port: sport,
        dst_port: dport,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK,
        window: 1000,
        mss: None,
        wscale: None,
    };
    let mut m = Mbuf::standalone();
    tcp.encode(m.append(tcp.len()), src, dst, &[]);
    let total_len = (Ipv4Header::LEN + tcp.len()) as u16;
    Ipv4Header { tos: 0, total_len, ident: 0, ttl: 64, proto: IpProto::Tcp, src, dst }
        .encode(m.prepend(Ipv4Header::LEN));
    EthHeader { dst: dst_mac, src: MacAddr::from_host_index(999), ethertype: EtherType::Ipv4 }
        .encode(m.prepend(EthHeader::LEN));
    m
}

#[test]
fn a_connected_flow_lands_on_its_buckets_queue() {
    let mut tb = Testbed::new(1, 1, 1);
    let tuning = EngineTuning::default();
    tb.launch_server(System::Ix, 1, &tuning, PORT, |_| EchoServer::new(64, 120));
    let server_ip = tb.server_ip();
    let stats = EchoBenchStats::new(0, u64::MAX);
    let client = tb.launch_client(tb.clients[0], System::Linux, CORES, &tuning, |_| {
        EchoClient::new(server_ip, PORT, 64, usize::MAX, CONNS_PER_CORE, false, stats.clone())
    });
    tb.run_until_ns(2_000_000);
    assert!(stats.borrow().messages_total > 0, "no echo completed");

    // (core, filed bucket, remote port, local port) of every open flow.
    let mut flows = Vec::new();
    let mut tcbs = Vec::new();
    client.for_each_core(|core| {
        for b in 0..RSS_BUCKETS as u16 {
            core.shard.extract_bucket_into(b, &mut tcbs);
            for tcb in tcbs.drain(..) {
                let (remote_ip, remote_port, local_port) = FlowId::unpack(tcb.id.key);
                assert_eq!((remote_ip, remote_port), (server_ip, PORT));
                assert_eq!(tcb.rss_bucket, b, "flow :{local_port} filed under the wrong bucket");
                flows.push((core.id, b, remote_port, local_port));
            }
        }
    });
    assert_eq!(flows.len(), CORES * CONNS_PER_CORE);

    let host = tb.fabric.host(tb.clients[0]);
    let nic = host.nics[0].clone();
    for (core, bucket, remote_port, local_port) in flows {
        let queue = nic.borrow().redirection()[bucket as usize];
        assert_eq!(queue, core, "flow :{local_port} in bucket {bucket} is on core {core}, steered to {queue}");
        let before = nic.borrow_mut().rx_ring(queue).pending();
        Nic::deliver(&nic, &mut tb.sim, ack_frame(host.mac, server_ip, host.ip, remote_port, local_port));
        assert_eq!(
            nic.borrow_mut().rx_ring(queue).pending(),
            before + 1,
            "a frame for flow :{local_port} (bucket {bucket}) missed queue {queue}"
        );
    }
}
