//! `Libix` on its own: each test hands `IxApp::on_cycle` a cycle's event
//! conditions and the previous batch's return codes by hand, with no
//! engine, and reads the syscall batch libix submits. What is pinned is
//! §4.3's contract — one coalesced `sendv` per connection per round, the
//! unaccepted tail reissued on `sent`, the pending-byte limit — and the
//! pairing of each return code with the call at its index in the batch
//! (§4.2, Table 1).

use ix_core::api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};
use ix_core::libix::{ConnCtx, Libix, LibixHandler, MAX_PENDING};
use ix_net::Ipv4Addr;
use ix_tcp::FlowId;
use ix_testkit::Bytes;

/// Echoes every message, except `close` (closes the connection) and
/// `fwd` (forwards the message to `forward_to` with `write_to`). It logs
/// each callback and the verdict of each `write`.
#[derive(Default)]
struct Script {
    /// `(callback, cookie)` in call order.
    calls: Vec<(&'static str, u64)>,
    /// Verdicts of `ConnCtx::write`, in call order.
    writes: Vec<bool>,
    /// Bytes each accepted connection writes at once.
    greeting: usize,
    forward_to: u64,
}

impl LibixHandler for Script {
    fn on_accept(&mut self, ctx: &mut ConnCtx<'_>) {
        self.calls.push(("accept", ctx.conn.cookie));
        if self.greeting > 0 {
            let ok = ctx.write(Bytes::from(vec![0u8; self.greeting]));
            self.writes.push(ok);
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.calls.push(("data", ctx.conn.cookie));
        match &data[..] {
            b"close" => ctx.close(),
            b"fwd" => ctx.write_to(self.forward_to, data.clone()),
            _ => {
                let ok = ctx.write(data.clone());
                self.writes.push(ok);
            }
        }
    }

    fn on_sent(&mut self, ctx: &mut ConnCtx<'_>) {
        self.calls.push(("sent", ctx.conn.cookie));
    }
}

fn flow(key: u64) -> FlowId {
    FlowId { key, gen: 1 }
}

fn knock(key: u64) -> EventCond {
    EventCond::Knock {
        flow: flow(key),
        src_ip: Ipv4Addr::new(10, 0, 0, 2),
        src_port: 1000 + key as u16,
    }
}

fn recv(key: u64, cookie: u64, data: &[u8]) -> EventCond {
    EventCond::Recv {
        flow: flow(key),
        cookie,
        payload: Bytes::from(data.to_vec()),
    }
}

fn sent(key: u64, cookie: u64) -> EventCond {
    EventCond::Sent {
        flow: flow(key),
        cookie,
        bytes_acked: 0,
        window: 0,
    }
}

/// A stand-in for the engine: one cycle in, the submitted batch out.
struct Driver {
    app: Libix<Script>,
    ctx: UserCtx,
}

impl Driver {
    fn new(script: Script) -> Driver {
        Driver {
            app: Libix::new(script),
            ctx: UserCtx::default(),
        }
    }

    fn cycle(&mut self, events: Vec<EventCond>, results: Vec<SyscallResult>) -> Vec<Syscall> {
        self.ctx.events.extend(events);
        self.ctx.results.extend(results);
        self.app.on_cycle(&mut self.ctx);
        self.ctx.events.clear();
        self.ctx.results.clear();
        std::mem::take(&mut self.ctx.syscalls)
    }

    fn script(&self) -> &Script {
        self.app.handler()
    }
}

/// One line per call: the verb, the flow key, and the argument that
/// matters (cookie, byte count, or the `sendv` payload's length).
fn show(batch: &[Syscall]) -> Vec<String> {
    batch
        .iter()
        .map(|s| match s {
            Syscall::Accept { handle, cookie } => format!("accept {} c{cookie}", handle.key),
            Syscall::Sendv { handle, sg } => {
                let n: usize = sg.iter().map(Bytes::len).sum();
                format!("sendv {} {n}", handle.key)
            }
            Syscall::RecvDone { handle, bytes } => format!("recv_done {} {bytes}", handle.key),
            Syscall::Close { handle } => format!("close {}", handle.key),
            Syscall::Abort { handle } => format!("abort {}", handle.key),
            Syscall::Connect { cookie, .. } => format!("connect c{cookie}"),
        })
        .collect()
}

/// The concatenated payload of the batch's `sendv` on flow `key`.
fn sendv_bytes(batch: &[Syscall], key: u64) -> Vec<u8> {
    batch
        .iter()
        .find_map(|s| match s {
            Syscall::Sendv { handle, sg } if handle.key == key => {
                Some(sg.iter().flat_map(|b| b.iter().copied()).collect())
            }
            _ => None,
        })
        .expect("a sendv on the flow")
}

fn ok(n: usize) -> Vec<SyscallResult> {
    vec![SyscallResult::Ok; n]
}

#[test]
fn window_limited_send_reissues_exactly_the_tail_on_sent() {
    let mut d = Driver::new(Script::default());
    assert_eq!(show(&d.cycle(vec![knock(7)], vec![])), ["accept 7 c1"]);

    let msg: Vec<u8> = (0..100).collect();
    let batch = d.cycle(vec![recv(7, 1, &msg)], ok(1));
    assert_eq!(show(&batch), ["recv_done 7 100", "sendv 7 100"]);

    // The stack took 40 bytes: nothing is resubmitted until `sent`.
    let batch = d.cycle(vec![], vec![SyscallResult::Ok, SyscallResult::Sent(40)]);
    assert!(batch.is_empty(), "a window-limited connection waits for sent: {:?}", show(&batch));

    let batch = d.cycle(vec![sent(7, 1)], vec![]);
    assert_eq!(show(&batch), ["sendv 7 60"]);
    assert_eq!(sendv_bytes(&batch, 7), msg[40..]);

    // Fully accepted: the connection is writable again, and a new
    // message goes out in the cycle it is written.
    let batch = d.cycle(vec![recv(7, 1, b"again")], vec![SyscallResult::Sent(60)]);
    assert_eq!(show(&batch), ["recv_done 7 5", "sendv 7 5"]);
    assert_eq!(d.script().calls.last(), Some(&("data", 1)));
}

#[test]
fn mixed_batch_pairs_each_sent_with_its_own_connection() {
    let mut d = Driver::new(Script::default());
    let batch = d.cycle(vec![knock(1), knock(2), knock(3)], vec![]);
    assert_eq!(show(&batch), ["accept 1 c1", "accept 2 c2", "accept 3 c3"]);

    let a: Vec<u8> = (0..30).collect();
    let b: Vec<u8> = (100..180).collect();
    let batch = d.cycle(
        vec![recv(1, 1, &a), knock(4), recv(3, 3, b"close"), recv(2, 2, &b)],
        ok(3),
    );
    assert_eq!(
        show(&batch),
        [
            "recv_done 1 30",
            "accept 4 c4",
            "recv_done 3 5",
            "recv_done 2 80",
            "close 3",
            "sendv 1 30",
            "sendv 2 80",
        ]
    );

    // Flow 1 is taken whole, flow 2 only up to 50 bytes.
    let mut results = ok(5);
    results.extend([SyscallResult::Sent(30), SyscallResult::Sent(50)]);
    assert!(d.cycle(vec![], results).is_empty());

    // Flow 2's `sent` reissues flow 2's tail.
    let batch = d.cycle(vec![sent(2, 2)], vec![]);
    assert_eq!(show(&batch), ["sendv 2 30"]);
    assert_eq!(sendv_bytes(&batch, 2), b[50..]);

    // Flow 1 got no `sent`: its own full result left it writable.
    let batch = d.cycle(vec![recv(1, 1, b"x")], vec![SyscallResult::Sent(30)]);
    assert_eq!(show(&batch), ["recv_done 1 1", "sendv 1 1"]);
}

#[test]
fn pending_cap_refuses_write_and_drops_write_to() {
    let cap = MAX_PENDING;
    let mut d = Driver::new(Script {
        greeting: cap,
        forward_to: 1,
        ..Script::default()
    });
    // The greeting fills the pending limit, and the stack takes none of it.
    let batch = d.cycle(vec![knock(1)], vec![]);
    assert_eq!(show(&batch), ["accept 1 c1".to_string(), format!("sendv 1 {cap}")]);
    assert_eq!(d.script().writes, [true]);

    // One more byte is refused.
    let batch = d.cycle(vec![recv(1, 1, b"!")], vec![SyscallResult::Ok, SyscallResult::Sent(0)]);
    assert_eq!(show(&batch), ["recv_done 1 1"]);
    assert_eq!(d.script().writes, [true, false]);

    // A `write_to` past the limit is dropped: `sent` reissues the
    // greeting and nothing else.
    let batch = d.cycle(vec![recv(1, 1, b"fwd"), sent(1, 1)], ok(1));
    assert_eq!(show(&batch), ["recv_done 1 3".to_string(), format!("sendv 1 {cap}")]);

    // Once the stack has taken the greeting, the same `write_to` goes out.
    let results = vec![SyscallResult::Ok, SyscallResult::Sent(cap as u32)];
    let batch = d.cycle(vec![recv(1, 1, b"fwd")], results);
    assert_eq!(show(&batch), ["recv_done 1 3", "sendv 1 3"]);
}

#[test]
fn stale_cookie_resolves_by_flow_without_a_second_accept() {
    let mut d = Driver::new(Script::default());
    assert_eq!(show(&d.cycle(vec![knock(5)], vec![])), ["accept 5 c1"]);

    // Data generated before the accept attached cookie 1 carries 0.
    let batch = d.cycle(vec![recv(5, 0, b"hello")], ok(1));
    assert_eq!(show(&batch), ["recv_done 5 5", "sendv 5 5"]);
    assert_eq!(d.script().calls, [("accept", 1), ("data", 1)]);
}

#[test]
fn data_on_an_unknown_flow_is_adopted_under_a_fresh_cookie() {
    let mut d = Driver::new(Script::default());
    assert_eq!(show(&d.cycle(vec![knock(5)], vec![])), ["accept 5 c1"]);

    // A flow migrated in by the control plane, still tagged with the
    // cookie its old thread gave it — which collides with flow 5's.
    let batch = d.cycle(vec![recv(9, 1, b"moved")], ok(1));
    assert_eq!(show(&batch), ["accept 9 c2", "recv_done 9 5", "sendv 9 5"]);
    assert_eq!(d.script().calls, [("accept", 1), ("accept", 2), ("data", 2)]);

    // From then on the flow resolves to its new cookie.
    let mut results = ok(2);
    results.push(SyscallResult::Sent(5));
    let batch = d.cycle(vec![recv(9, 2, b"more")], results);
    assert_eq!(show(&batch), ["recv_done 9 4", "sendv 9 4"]);
    assert_eq!(d.script().calls.last(), Some(&("data", 2)));
}
