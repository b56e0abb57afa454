//! Elastic thread scaling: the IXCP control plane revokes and grants
//! hardware threads at runtime, migrating RSS flow groups and live
//! connections between elastic threads (§4.1, §4.4) while traffic keeps
//! flowing.
//!
//! Run with: `cargo run --release --example elastic_scaling`

use std::cell::RefCell;
use std::rc::Rc;

use ix_testkit::Bytes;
use ix::core::dataplane::Dataplane;
use ix::core::ixcp::set_active_threads;
use ix::core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix::core::params::CostParams;
use ix::nic::fabric::Fabric;
use ix::nic::params::MachineParams;
use ix::sim::{Nanos, SimTime, Simulator};
use ix::tcp::StackConfig;

struct Echo;
impl LibixHandler for Echo {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        ctx.write(Bytes::copy_from_slice(data));
    }
}

struct Pinger {
    server: ix::net::Ipv4Addr,
    conns: usize,
    started: bool,
    count: Rc<RefCell<u64>>,
}
impl LibixHandler for Pinger {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            for u in 0..self.conns as u64 {
                ctx.connect(self.server, 9090, u);
            }
        }
    }
    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok);
        ctx.write(Bytes::from_static(b"0123456789abcdef"));
    }
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, _d: &Bytes) {
        *self.count.borrow_mut() += 1;
        ctx.write(Bytes::from_static(b"0123456789abcdef"));
    }
    fn wants_tick(&self, _n: u64) -> bool {
        !self.started
    }
}

fn main() {
    let mut sim = Simulator::new(9);
    let mut fabric = Fabric::new(4, MachineParams::default());
    let server = fabric.add_host(1, 8, 0);
    let client = fabric.add_host(1, 2, 0);
    let server_ip = fabric.host(server).ip;

    let sdp = Dataplane::launch(
        &mut sim,
        fabric.host(server),
        4,
        CostParams::default(),
        StackConfig::default(),
        Some(9090),
        |_| Box::new(Libix::new(Echo)),
    );
    let count = Rc::new(RefCell::new(0u64));
    let c2 = count.clone();
    let cdp = Dataplane::launch(
        &mut sim,
        fabric.host(client),
        1,
        CostParams::default(),
        StackConfig::default(),
        None,
        move |_| {
            Box::new(Libix::new(Pinger {
                server: server_ip,
                conns: 32,
                started: false,
                count: c2.clone(),
            }))
        },
    );
    sdp.seed_arp(fabric.host(client).ip, fabric.host(client).mac);
    cdp.seed_arp(server_ip, fabric.host(server).mac);

    let ms = |n: u64| SimTime(Nanos::from_millis(n).as_nanos());
    let rate = |c: &Rc<RefCell<u64>>, last: &mut u64, dt_ms: u64| {
        let now = *c.borrow();
        let r = (now - *last) as f64 / (dt_ms as f64 / 1e3) / 1e3;
        *last = now;
        r
    };
    let mut last = 0u64;
    let active = |dp: &Dataplane| dp.threads.iter().filter(|t| !t.borrow().parked).count();

    sim.run_until(ms(20));
    println!("t=20ms  threads=4  rate={:>7.1}K msg/s", rate(&count, &mut last, 20));

    println!(">>> IXCP revokes 3 of 4 elastic threads (flows migrate)");
    set_active_threads(&mut sim, &sdp, 1, None);
    sim.run_until(ms(40));
    println!("t=40ms  threads={}  rate={:>7.1}K msg/s", active(&sdp), rate(&count, &mut last, 20));

    println!(">>> IXCP grants them back");
    set_active_threads(&mut sim, &sdp, 4, None);
    sim.run_until(ms(60));
    println!("t=60ms  threads={}  rate={:>7.1}K msg/s", active(&sdp), rate(&count, &mut last, 20));
    assert!(*count.borrow() > 0);
}
