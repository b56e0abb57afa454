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

use ix_baselines::{LinuxHost, LinuxParams, MtcpHost, MtcpParams};
use ix_core::api::{IxApp, Syscall, SyscallResult, UserCtx};
use ix_core::dataplane::Dataplane;
use ix_core::libix::{ConnCtx, Libix, LibixCtx, LibixHandler};
use ix_core::params::CostParams;
use ix_net::Ipv4Addr;
use ix_nic::fabric::Fabric;
use ix_nic::params::MachineParams;
use ix_sim::{Nanos, SimTime, Simulator};
use ix_tcp::{FlowId, StackConfig, StackError, TcpEvent};
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

/// The server's execution model.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Ix,
    Linux,
    Mtcp,
}

/// Runs the hostile server on `engine` against an IX client for 50 ms;
/// returns the bad batch's verdicts and what the client got echoed.
fn run(engine: Engine, stream: &[u8]) -> (Vec<SyscallResult>, Vec<u8>) {
    let mut sim = Simulator::new(11);
    let mut fabric = Fabric::new(8, MachineParams::default());
    let client = fabric.add_host(1, 2, 0);
    let server = fabric.add_host(1, 2, 0);
    let (server_ip, server_mac) = (fabric.host(server).ip, fabric.host(server).mac);
    let (client_ip, client_mac) = (fabric.host(client).ip, fabric.host(client).mac);
    let verdicts = Rc::new(RefCell::new(Vec::new()));
    let echoed = Rc::new(RefCell::new(Vec::new()));

    let v = verdicts.clone();
    let app = move |_| -> Box<dyn IxApp> {
        Box::new(Server { hostile: None, attack: None, verdicts: v.clone() })
    };
    let (host, cfg) = (fabric.host(server), StackConfig::default());
    // Held to the end of the run: the NIC's notify edges are weak.
    let _server: Box<dyn std::any::Any> = match engine {
        Engine::Ix => {
            let e = Dataplane::launch(&mut sim, host, 1, CostParams::default(), cfg, Some(PORT), app);
            e.seed_arp(client_ip, client_mac);
            Box::new(e)
        }
        Engine::Linux => {
            let e = LinuxHost::launch(&mut sim, host, 1, LinuxParams::default(), cfg, Some(PORT), app);
            e.seed_arp(client_ip, client_mac);
            Box::new(e)
        }
        Engine::Mtcp => {
            let e = MtcpHost::launch(&mut sim, host, 1, MtcpParams::default(), cfg, Some(PORT), app);
            e.seed_arp(client_ip, client_mac);
            Box::new(e)
        }
    };
    let (e, s) = (echoed.clone(), Bytes::copy_from_slice(stream));
    let cdp = Dataplane::launch(
        &mut sim,
        fabric.host(client),
        1,
        CostParams::default(),
        StackConfig::default(),
        None,
        move |_| {
            Box::new(Libix::new(Client {
                server: server_ip,
                dialed: 0,
                first_up: false,
                stream: s.clone(),
                sent: 0,
                echoed: e.clone(),
            }))
        },
    );
    cdp.seed_arp(server_ip, server_mac);
    sim.run_until(SimTime(Nanos::from_millis(50).as_nanos()));
    let verdicts = verdicts.borrow().clone();
    let echoed = echoed.borrow().clone();
    (verdicts, echoed)
}

#[test]
fn bad_syscalls_return_errors_and_spare_the_other_flow() {
    let stream: Vec<u8> =
        (0..STREAM as u32).map(|i| i.wrapping_mul(2654435761).to_le_bytes()[1]).collect();
    use SyscallResult::{Err, Ok};
    for engine in [Engine::Ix, Engine::Linux, Engine::Mtcp] {
        let (verdicts, echoed) = run(engine, &stream);
        assert_eq!(
            verdicts,
            [
                Err(StackError::BadHandle), // forged handle
                Err(StackError::BadHandle), // stale generation
                Err(StackError::BadCredit), // recv_done beyond what was delivered
                Ok,                         // close
                Err(StackError::BadState),  // sendv after close
            ],
            "{engine:?}"
        );
        assert!(echoed == stream, "{engine:?}: the well-behaved flow's stream changed");
    }
}
