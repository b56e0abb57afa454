//! Quickstart: build a two-host fabric, run an IX echo server and an IX
//! client, and print the round-trip latency — the smallest end-to-end
//! use of the public API.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use ix_testkit::Bytes;
use ix::core::dataplane::Dataplane;
use ix::core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix::core::params::CostParams;
use ix::nic::fabric::Fabric;
use ix::nic::params::MachineParams;
use ix::sim::{Nanos, SimTime, Simulator};
use ix::tcp::StackConfig;

/// Echo back everything we receive.
struct Echo;

impl LibixHandler for Echo {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        ctx.charge(150); // Simulated application CPU.
        ctx.write(Bytes::copy_from_slice(data));
    }
}

/// Send one message, await the echo, record the RTT.
struct Ping {
    server: ix::net::Ipv4Addr,
    sent_at: u64,
    rtts: Rc<RefCell<Vec<u64>>>,
    reps: usize,
    started: bool,
}

impl LibixHandler for Ping {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, 7777, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok);
        self.sent_at = ctx.now_ns;
        ctx.write(Bytes::from_static(b"ping ping ping!!")); // 16 bytes.
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, _data: &Bytes) {
        self.rtts.borrow_mut().push(ctx.now_ns - self.sent_at);
        if self.rtts.borrow().len() < self.reps {
            self.sent_at = ctx.now_ns;
            ctx.write(Bytes::from_static(b"ping ping ping!!"));
        } else {
            ctx.close();
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        !self.started
    }
}

fn main() {
    // A switch with two hosts: both will run the IX dataplane.
    let mut sim = Simulator::new(42);
    let mut fabric = Fabric::new(4, MachineParams::default());
    let server = fabric.add_host(1, 2, 0);
    let client = fabric.add_host(1, 2, 0);
    let server_ip = fabric.host(server).ip;

    let sdp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        1,
        CostParams::default(),
        StackConfig::default(),
        Some(7777),
        |_| Box::new(Libix::new(Echo)),
    );

    let rtts = Rc::new(RefCell::new(Vec::new()));
    let r2 = rtts.clone();
    let cdp = Dataplane::launch(
        &mut sim,
        fabric.host(client),
        1,
        CostParams::default(),
        StackConfig::default(),
        None,
        move |_| {
            Box::new(Libix::new(Ping {
                server: server_ip,
                sent_at: 0,
                rtts: r2.clone(),
                reps: 100,
                started: false,
            }))
        },
    );

    // ARP bring-up (the fabric is a single L2 segment).
    sdp.seed_arp(fabric.host(client).ip, fabric.host(client).mac);
    cdp.seed_arp(server_ip, fabric.host(server).mac);

    sim.run_until(SimTime(Nanos::from_millis(50).as_nanos()));

    let rtts = rtts.borrow();
    assert_eq!(rtts.len(), 100, "all pings answered");
    let avg = rtts.iter().sum::<u64>() / rtts.len() as u64;
    println!("IX <-> IX echo over the simulated fabric");
    println!("  round trips : {}", rtts.len());
    println!("  average RTT : {:.2} us", avg as f64 / 1e3);
    println!("  min RTT     : {:.2} us", *rtts.iter().min().expect("nonempty") as f64 / 1e3);
    println!(
        "  (the paper's Fig 2 reports ~5.7 us one-way for 64B, i.e. ~11.4 us RTT)"
    );
    let rx: u64 = sdp.threads.iter().map(|t| t.borrow().base.rx_packets).sum();
    println!("  server processed {rx} packets");
}
