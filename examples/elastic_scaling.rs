//! Elastic thread scaling: the IXCP control plane revokes and grants
//! hardware threads at runtime, migrating RSS flow groups and live
//! connections between elastic threads (§4.1, §4.4) while traffic keeps
//! flowing.
//!
//! Run with: `cargo run --release --example elastic_scaling`

use std::cell::RefCell;
use std::rc::Rc;

use ix::apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix::core::dataplane::Dataplane;
use ix::core::ixcp::set_active_threads;
use ix::core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix::sim::Nanos;
use ix_testkit::Bytes;

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
    let mut tb = Testbed::new(9, 1, 1);
    let tuning = EngineTuning::default();
    tb.launch_server(System::Ix, 4, &tuning, 9090, |_| Echo);
    let Some(ServerEngine::Ix(sdp)) = tb.engine.clone() else { unreachable!("launched IX") };
    let count = Rc::new(RefCell::new(0u64));
    let server = tb.server_ip();
    let _client = tb.launch_client(tb.clients[0], System::Ix, 1, &tuning, |_| Pinger {
        server,
        conns: 32,
        started: false,
        count: count.clone(),
    });

    let ms = |n: u64| Nanos::from_millis(n).as_nanos();
    let rate = |c: &Rc<RefCell<u64>>, last: &mut u64, dt_ms: u64| {
        let now = *c.borrow();
        let r = (now - *last) as f64 / (dt_ms as f64 / 1e3) / 1e3;
        *last = now;
        r
    };
    let mut last = 0u64;
    let active = |dp: &Dataplane| dp.threads.iter().filter(|t| !t.borrow().parked).count();

    tb.run_until_ns(ms(20));
    println!("t=20ms  threads=4  rate={:>7.1}K msg/s", rate(&count, &mut last, 20));

    println!(">>> IXCP revokes 3 of 4 elastic threads (flows migrate)");
    set_active_threads(&mut tb.sim, &sdp, 1, None);
    tb.run_until_ns(ms(40));
    println!("t=40ms  threads={}  rate={:>7.1}K msg/s", active(&sdp), rate(&count, &mut last, 20));

    println!(">>> IXCP grants them back");
    set_active_threads(&mut tb.sim, &sdp, 4, None);
    tb.run_until_ns(ms(60));
    println!("t=60ms  threads={}  rate={:>7.1}K msg/s", active(&sdp), rate(&count, &mut last, 20));
    assert!(*count.borrow() > 0);
}
