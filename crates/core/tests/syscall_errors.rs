//! The syscall surface returns errors instead of acting on bad requests
//! (§4.5: "no sequence of batched system calls … can be used to violate
//! correct adherence to TCP"). A server application submits one batch
//! of bad calls on a flow it has just accepted; the next cycle's
//! `ctx.results` must name each failure, and a second, well-behaved flow
//! on the same core must carry its byte stream unchanged. The same
//! application runs on the IX dataplane and on the Linux and mTCP
//! models, which must agree on every verdict.

use std::cell::RefCell;
use std::rc::Rc;

use ix_apps::harness::{EngineTuning, ServerEngine, System, Testbed};
use ix_core::api::{IxApp, Syscall, SyscallResult, UserCtx};
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_net::Ipv4Addr;
use ix_sim::Nanos;
use ix_tcp::{FlowId, StackError, TcpEvent};
use ix_testkit::Bytes;

const PORT: u16 = 9000;
const HOSTILE: u64 = 0;
const WELL_BEHAVED: u64 = 1;
/// The well-behaved flow's stream, echoed one message at a time.
const STREAM: usize = 16_000;
const MSG: usize = 1_000;

/// Accepts every knock. On the first flow it submits a bad batch in the
/// same cycle and records the next cycle's results for that batch; the
/// second flow gets a plain echo. The hostile flow is known by its
/// handle: a `Recv` can reach the application in the wake-up that
/// carries its `Knock`, before `Accept` has set a cookie.
struct Server {
    hostile: Option<FlowId>,
    /// Index in the batch of the first bad call, until its results are in.
    attack: Option<usize>,
    verdicts: Rc<RefCell<Vec<SyscallResult>>>,
}

impl Server {
    /// Queues the bad calls on `flow`, returning the first one's index.
    fn attack(ctx: &mut UserCtx, flow: FlowId) -> usize {
        let junk = || [Bytes::from_static(b"junk")];
        // A handle for a tuple that is no flow (local port 9001).
        let first = ctx.sendv(FlowId { key: flow.key ^ 1, ..flow }, junk());
        // The right tuple from an earlier generation.
        ctx.sendv(FlowId { gen: flow.gen.wrapping_add(1), ..flow }, junk());
        // Credit for bytes never delivered.
        ctx.syscall(Syscall::RecvDone { handle: flow, bytes: 1 });
        ctx.syscall(Syscall::Close { handle: flow });
        ctx.sendv(flow, junk());
        first
    }
}

impl IxApp for Server {
    fn on_cycle(&mut self, ctx: &mut UserCtx) {
        if let Some(first) = self.attack.take() {
            *self.verdicts.borrow_mut() = ctx.results[first..first + 5].to_vec();
        }
        let mut events = std::mem::take(&mut ctx.events);
        for e in events.drain(..) {
            match e {
                TcpEvent::Knock { flow, .. } => {
                    let cookie = if self.hostile.is_none() { HOSTILE } else { WELL_BEHAVED };
                    ctx.syscall(Syscall::Accept { handle: flow, cookie });
                    if cookie == HOSTILE {
                        self.hostile = Some(flow);
                        self.attack = Some(Server::attack(ctx, flow));
                    }
                }
                TcpEvent::Recv { flow, payload, .. } => {
                    assert_ne!(Some(flow), self.hostile, "the hostile flow carries no data");
                    ctx.syscall(Syscall::RecvDone { handle: flow, bytes: payload.len() as u32 });
                    ctx.sendv(flow, [Bytes::copy_from_slice(&payload)]);
                }
                _ => {}
            }
        }
        ctx.events = events;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Dials the hostile flow, then — once it is up, so the server meets it
/// first — the well-behaved one, which sends `stream` a message at a
/// time and waits for each echo.
struct Client {
    server: Ipv4Addr,
    dialed: u64,
    first_up: bool,
    stream: Bytes,
    sent: usize,
    echoed: Rc<RefCell<Vec<u8>>>,
}

impl Client {
    fn send_next(&mut self, ctx: &mut ConnCtx<'_>) {
        let end = (self.sent + MSG).min(self.stream.len());
        if self.sent < end {
            assert!(ctx.write(self.stream.slice(self.sent..end)));
            self.sent = end;
        }
    }
}

impl LibixHandler for Client {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if self.wants_tick(0) {
            ctx.connect(self.server, PORT, self.dialed);
            self.dialed += 1;
        }
    }

    fn wants_tick(&self, _now_ns: u64) -> bool {
        self.dialed == 0 || (self.dialed == 1 && self.first_up)
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "connect failed");
        if ctx.conn.user == HOSTILE {
            self.first_up = true;
        } else {
            self.send_next(ctx);
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        assert_eq!(ctx.conn.user, WELL_BEHAVED, "the server wrote on the hostile flow");
        self.echoed.borrow_mut().extend_from_slice(data);
        if self.echoed.borrow().len() == self.sent {
            self.send_next(ctx);
        }
    }
}

/// Runs the hostile server on `system` against an IX client for 50 ms;
/// returns the bad batch's verdicts and what the client got echoed.
fn run(system: System, stream: &[u8]) -> (Vec<SyscallResult>, Vec<u8>) {
    let mut tb = Testbed::new(11, 1, 1);
    let verdicts = Rc::new(RefCell::new(Vec::new()));
    let echoed = Rc::new(RefCell::new(Vec::new()));

    let v = verdicts.clone();
    let app = move |_| -> Box<dyn IxApp> {
        Box::new(Server { hostile: None, attack: None, verdicts: v.clone() })
    };
    let tuning = EngineTuning::default();
    let host = tb.fabric.host(tb.server);
    tb.engine = Some(ServerEngine::launch(system, &mut tb.sim, host, 1, &tuning, Some(PORT), app));
    let server = tb.server_ip();
    let stream = Bytes::copy_from_slice(stream);
    let _client = tb.launch_client(tb.clients[0], System::Ix, 1, &tuning, |_| Client {
        server,
        dialed: 0,
        first_up: false,
        stream: stream.clone(),
        sent: 0,
        echoed: echoed.clone(),
    });
    tb.run_until_ns(Nanos::from_millis(50).as_nanos());
    let verdicts = verdicts.borrow().clone();
    let echoed = echoed.borrow().clone();
    (verdicts, echoed)
}

#[test]
fn bad_syscalls_return_errors_and_spare_the_other_flow() {
    let stream: Vec<u8> =
        (0..STREAM as u32).map(|i| i.wrapping_mul(2654435761).to_le_bytes()[1]).collect();
    use SyscallResult::{Err, Ok};
    for system in [System::Ix, System::Linux, System::Mtcp] {
        let (verdicts, echoed) = run(system, &stream);
        assert_eq!(
            verdicts,
            [
                Err(StackError::BadHandle), // forged handle
                Err(StackError::BadHandle), // stale generation
                Err(StackError::BadCredit), // recv_done beyond what was delivered
                Ok,                         // close
                Err(StackError::BadState),  // sendv after close
            ],
            "{system:?}"
        );
        assert!(echoed == stream, "{system:?}: the well-behaved flow's stream changed");
    }
}
