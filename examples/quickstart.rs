//! Quickstart: build the testbed with one client host, run an IX echo
//! server and an IX client, and print the round-trip latency — the
//! smallest end-to-end use of the public API.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use ix::apps::harness::{EngineTuning, System, Testbed};
use ix::core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix::sim::Nanos;
use ix_testkit::Bytes;

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
    // One server and one client host on a switch: both will run the IX
    // dataplane.
    let mut tb = Testbed::new(42, 1, 1);
    let tuning = EngineTuning::default();
    tb.launch_server(System::Ix, 1, &tuning, 7777, |_| Echo);

    // Launching the client also seeds ARP both ways (the fabric is a
    // single L2 segment).
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let server = tb.server_ip();
    let _client = tb.launch_client(tb.clients[0], System::Ix, 1, &tuning, |_| Ping {
        server,
        sent_at: 0,
        rtts: rtts.clone(),
        reps: 100,
        started: false,
    });

    tb.run_until_ns(Nanos::from_millis(50).as_nanos());

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
    let mut rx = 0;
    tb.engine.as_ref().expect("server launched").for_each_core(|c| rx += c.rx_packets);
    println!("  server processed {rx} packets");
}
