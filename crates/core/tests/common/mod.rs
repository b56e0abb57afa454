//! The echo rig the dataplane and elastic suites share: an IX echo
//! server and one IX client host ping-ponging 64-byte messages on the
//! §5.1 [`Testbed`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ix_apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_testkit::Bytes;

/// The port the echo server listens on.
pub const PORT: u16 = 9000;
/// Bytes per ping.
pub const MSG: usize = 64;

/// Echoes every received byte back, charging `service_ns` per request —
/// the knob that saturates a core.
pub struct EchoServer {
    /// Application CPU per request, ns.
    pub service_ns: u64,
}

impl LibixHandler for EchoServer {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        ctx.charge(self.service_ns);
        let reply = Bytes::copy_from_slice(data);
        assert!(ctx.write(reply));
    }
}

/// What the ping client measured.
#[derive(Debug, Default)]
pub struct PingStats {
    /// One round-trip time per completed ping, ns.
    pub rtts_ns: Vec<u64>,
    /// Every connection finished its pings.
    pub done: bool,
}

/// Opens `conns` connections; on each, ping-pongs a [`MSG`]-byte message
/// `reps` times, then aborts (RST), as the §5.3 echo benchmark does. Any
/// reset or lost byte leaves `done` false.
pub struct PingClient {
    server: ix_net::Ipv4Addr,
    reps: usize,
    conns: usize,
    started: usize,
    /// Per connection: bytes of the current reply received, reps
    /// completed, send timestamp.
    inflight: HashMap<u64, (usize, usize, u64)>,
    results: Rc<RefCell<PingStats>>,
    finished: usize,
}

impl PingClient {
    fn fire(&mut self, ctx: &mut ConnCtx<'_>) {
        let st = self.inflight.get_mut(&ctx.conn.user).expect("tracked");
        st.2 = ctx.now_ns;
        assert!(ctx.write(Bytes::from(vec![0x5au8; MSG])));
    }
}

impl LibixHandler for PingClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.started < self.conns {
            let user = self.started as u64;
            self.inflight.insert(user, (0, 0, 0));
            ctx.connect(self.server, PORT, user);
            self.started += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        self.fire(ctx);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let now = ctx.now_ns;
        let st = self.inflight.get_mut(&ctx.conn.user).expect("tracked");
        st.0 += data.len();
        assert!(st.0 <= MSG, "over-delivery");
        if st.0 == MSG {
            st.0 = 0;
            st.1 += 1;
            self.results.borrow_mut().rtts_ns.push(now - st.2);
            if st.1 >= self.reps {
                ctx.abort();
                self.finished += 1;
                if self.finished == self.conns {
                    self.results.borrow_mut().done = true;
                }
            } else {
                self.fire(ctx);
            }
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        self.started < self.conns
    }
}

/// A `server_threads`-thread IX echo server charging `service_ns` per
/// request, and one client host running a 1-thread IX [`PingClient`]
/// with `conns` connections of `reps` pings each. Returns the testbed,
/// the server's dataplane, the client's engine (hold it: the NIC keeps
/// only weak references to its threads) and the client's measurements.
pub fn setup(
    server_threads: usize,
    service_ns: u64,
    reps: usize,
    conns: usize,
) -> (Testbed, Dataplane, ServerEngine, Rc<RefCell<PingStats>>) {
    let mut tb = Testbed::new(7, 1, 1);
    let tuning = EngineTuning::default();
    tb.launch_server(System::Ix, server_threads, &tuning, PORT, |_| EchoServer { service_ns });
    let Some(ServerEngine::Ix(sdp)) = tb.engine.clone() else { unreachable!("launched IX") };
    let results = Rc::new(RefCell::new(PingStats::default()));
    let server = tb.server_ip();
    let client = tb.launch_client(tb.clients[0], System::Ix, 1, &tuning, |_| PingClient {
        server,
        reps,
        conns,
        started: 0,
        inflight: HashMap::new(),
        results: results.clone(),
        finished: 0,
    });
    (tb, sdp, client, results)
}
