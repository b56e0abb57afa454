//! `libix`: the user-level library over the raw dataplane API (§4.3).
//!
//! From the paper: *"We built a user-level library, called libix, which
//! abstracts away the complexity of our low-level API. It provides a
//! compatible programming model for legacy applications ... libix
//! automatically coalesces multiple write requests into single sendv
//! system calls during each batching round ... Coalescing also
//! facilitates transmit flow control because we can use the transmit
//! vector to keep track of outgoing data buffers and, if necessary,
//! reissue writes when the transmit window has more available space, as
//! notified by the sent event condition. Our buffer sizing policy is
//! currently very basic; we enforce a maximum pending send byte limit."*
//!
//! [`Libix`] implements exactly that: applications implement
//! [`LibixHandler`] (a libevent-flavoured callback interface), and
//! `Libix` turns it into an [`IxApp`], managing cookie→connection state,
//! write coalescing, partial-send reissue on `sent` events, and the
//! pending-byte cap.

use std::collections::HashMap;
use std::collections::VecDeque;

use ix_mempool::{LentQueues, Spares};
use ix_testkit::{buffer_id, Bytes};
use ix_tcp::{DeadReason, FlowId, FlowMap, NO_BUCKET};

use crate::api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};

/// Default cap on bytes buffered per connection awaiting window space
/// (the §4.3 "maximum pending send byte limit"; sized to cover bulk
/// NetPIPE messages).
pub const DEFAULT_MAX_PENDING: usize = 2 * 1024 * 1024;

/// Per-connection user-level state.
#[derive(Debug)]
pub struct Conn {
    /// Kernel flow handle.
    pub handle: FlowId,
    /// libix cookie (also the key in the connection table).
    pub cookie: u64,
    /// Application tag (e.g. a request-state index).
    pub user: u64,
    /// Writes accepted by libix but not yet accepted by the TCP stack.
    /// Holds a buffer only while non-empty: borrowed from the thread's
    /// spare stack by the first write, returned when the stack has
    /// accepted the last byte.
    pending: VecDeque<Bytes>,
    pending_bytes: usize,
    /// The stack currently has window space (last `sendv` was not
    /// truncated and no `sent` wait is outstanding).
    writable: bool,
    closing: bool,
}

impl Conn {
    /// Bytes buffered awaiting window space.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// True once the handler has closed or aborted the connection.
    /// Events already queued for it in this cycle are still delivered.
    pub fn is_closing(&self) -> bool {
        self.closing
    }
}

/// Actions a handler can take on a connection during a callback.
pub struct ConnCtx<'a> {
    /// The connection.
    pub conn: &'a mut Conn,
    actions: &'a mut Vec<Action>,
    spare_pending: &'a mut Spares<VecDeque<Bytes>>,
    max_pending: usize,
    /// Virtual time, ns.
    pub now_ns: u64,
    /// Accumulated application CPU charge for this cycle, ns.
    pub charge_ns: &'a mut u64,
}

#[derive(Debug)]
enum Action {
    Close(u64),
    Abort(u64),
    Connect { dst_ip: ix_net::Ipv4Addr, dst_port: u16, user: u64 },
    Write { cookie: u64, data: Bytes },
}

impl ConnCtx<'_> {
    /// Queues `data` for transmission; returns `false` (dropping nothing,
    /// accepting nothing) if the pending-byte cap would be exceeded —
    /// the paper's "maximum pending send byte limit".
    pub fn write(&mut self, data: Bytes) -> bool {
        if self.conn.pending_bytes + data.len() > self.max_pending {
            return false;
        }
        self.conn.pending_bytes += data.len();
        self.spare_pending.push_back(&mut self.conn.pending, data);
        true
    }

    /// Requests a graceful close after pending data drains.
    pub fn close(&mut self) {
        self.conn.closing = true;
        if self.conn.pending.is_empty() {
            self.actions.push(Action::Close(self.conn.cookie));
        }
    }

    /// Hard-closes with RST immediately (the §5.3 benchmark pattern).
    pub fn abort(&mut self) {
        self.conn.closing = true;
        self.conn.pending.clear();
        self.spare_pending.reclaim(&mut self.conn.pending);
        self.conn.pending_bytes = 0;
        self.actions.push(Action::Abort(self.conn.cookie));
    }

    /// Charges application CPU time.
    pub fn charge(&mut self, ns: u64) {
        *self.charge_ns += ns;
    }

    /// Queues data on a *different* connection (by cookie); applied when
    /// actions run at the end of the cycle.
    pub fn write_to(&mut self, cookie: u64, data: Bytes) {
        self.actions.push(Action::Write { cookie, data });
    }
}

/// Global (per-thread) actions available outside connection callbacks.
pub struct LibixCtx<'a> {
    actions: &'a mut Vec<Action>,
    next_user: u64,
    /// Virtual time, ns.
    pub now_ns: u64,
    /// Accumulated application CPU charge, ns.
    pub charge_ns: &'a mut u64,
}

impl LibixCtx<'_> {
    /// Initiates an outbound connection; `user` tags it for callbacks.
    pub fn connect(&mut self, dst_ip: ix_net::Ipv4Addr, dst_port: u16, user: u64) {
        self.actions.push(Action::Connect { dst_ip, dst_port, user });
        self.next_user += 1;
    }

    /// Queues data on an existing connection from outside a connection
    /// callback (timer-paced senders); silently dropped if the cookie is
    /// gone or over the pending cap by the time actions apply.
    pub fn write_to(&mut self, cookie: u64, data: Bytes) {
        self.actions.push(Action::Write { cookie, data });
    }

    /// Charges application CPU time.
    pub fn charge(&mut self, ns: u64) {
        *self.charge_ns += ns;
    }
}

/// The libevent-flavoured callback interface applications implement.
///
/// All callbacks default to no-ops so simple apps implement only what
/// they need.
pub trait LibixHandler {
    /// A remote peer connected (already accepted by libix).
    fn on_accept(&mut self, _ctx: &mut ConnCtx<'_>) {}
    /// A local `connect` completed (`ok`) or failed.
    fn on_connected(&mut self, _ctx: &mut ConnCtx<'_>, _ok: bool) {}
    /// Data arrived: a refcounted view aliasing the receive mbuf's own
    /// storage, so the handler parses in place — and may retain O(1)
    /// sub-slices — without a copy. libix issues `recv_done` when the
    /// callback returns, matching the libevent compatibility layer's
    /// copy-free common case.
    fn on_data(&mut self, _ctx: &mut ConnCtx<'_>, _data: &Bytes) {}
    /// Previously written bytes were acknowledged / window opened.
    fn on_sent(&mut self, _ctx: &mut ConnCtx<'_>) {}
    /// The connection died (peer close, reset, or timeout). libix
    /// removes the connection after this returns; for `PeerFin` it also
    /// issues the local close unless the handler already did.
    fn on_dead(&mut self, _ctx: &mut ConnCtx<'_>, _reason: DeadReason) {}
    /// Called once per cycle before event dispatch; pacing apps (load
    /// generators) initiate connections and record time here.
    fn on_tick(&mut self, _ctx: &mut LibixCtx<'_>) {}
    /// See [`IxApp::wants_cycle`].
    fn wants_tick(&self, _now_ns: u64) -> bool {
        false
    }
    /// See [`IxApp::next_deadline_ns`].
    fn next_deadline_ns(&self) -> Option<u64> {
        None
    }
}

/// The adapter from [`LibixHandler`] to the raw dataplane [`IxApp`].
pub struct Libix<H: LibixHandler + 'static> {
    handler: H,
    /// Connection table, by cookie. Unordered: per-cycle flush order
    /// (and therefore packet order) is kept deterministic by flushing
    /// the sorted `dirty` set, never by iterating this map.
    conns: FlowMap<Conn>,
    /// Cookies whose `(pending, writable)` state may have changed this
    /// cycle, in arrival order and possibly repeated: the flush pass
    /// sorts and dedups the list and visits only these (in cookie
    /// order) instead of scanning every connection. At 250k mostly-idle
    /// connections that scan *was* the per-cycle cost.
    dirty: Vec<u64>,
    /// The buffers behind the connections' write queues, lent to a
    /// connection only while it has unaccepted writes.
    spare_pending: Spares<VecDeque<Bytes>>,
    /// Actions handlers deferred to the end of the cycle; a field so
    /// that its buffer, like `dirty`'s and `submitted`'s, is drained in
    /// place and serves every cycle.
    actions: Vec<Action>,
    /// Flow-handle → cookie map: events generated by the dataplane
    /// *before* an `accept`/`connect` cookie attachment executes carry a
    /// stale cookie (the knock/data race within one batch); resolving by
    /// flow handle recovers them.
    by_flow: HashMap<FlowId, u64>,
    next_cookie: u64,
    /// `(cookie, bytes_submitted)` per Sendv in last cycle's batch,
    /// aligned with the syscall indices, for result pairing.
    submitted: Vec<SubmitRecord>,
    max_pending: usize,
    /// Counters.
    pub stats: LibixStats,
}

#[derive(Debug, Clone, Copy)]
enum SubmitRecord {
    Sendv { cookie: u64, bytes: usize },
    Other,
}

/// libix-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibixStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections opened.
    pub connected: u64,
    /// Bytes delivered to `on_data`.
    pub bytes_in: u64,
    /// Bytes fully accepted by the stack.
    pub bytes_out: u64,
    /// Writes rejected by the pending cap.
    pub cap_rejections: u64,
    /// Partial sendv results (window-limited) that were re-queued.
    pub partial_sends: u64,
    /// Connections adopted after control-plane flow migration.
    pub adopted: u64,
}

impl<H: LibixHandler + 'static> Libix<H> {
    /// Wraps a handler with the default pending cap.
    pub fn new(handler: H) -> Libix<H> {
        Libix {
            handler,
            conns: FlowMap::new(),
            dirty: Vec::new(),
            spare_pending: Spares::new(),
            actions: Vec::new(),
            by_flow: HashMap::new(),
            next_cookie: 1,
            submitted: Vec::new(),
            max_pending: DEFAULT_MAX_PENDING,
            stats: LibixStats::default(),
        }
    }

    /// Access the wrapped handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Live connection count.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Identity of the per-cycle lists libix recycles (see
    /// [`ix_testkit::buffer_id`]).
    pub fn scratch_buffers(&self) -> Vec<(usize, usize)> {
        vec![
            buffer_id(&self.dirty),
            buffer_id(&self.actions),
            buffer_id(&self.submitted),
        ]
    }

    /// Census of the lent write-queue buffers: how many connections
    /// hold one, what idle connections still own (nothing), and what
    /// sits on the spare stack.
    #[doc(hidden)]
    pub fn lent_queues(&self) -> LentQueues {
        self.spare_pending.census(self.conns.values().map(|c| &c.pending))
    }

    /// Registers a new connection under `cookie`. It owns no buffer;
    /// the spare stack gets room here, in the ramp, for the one it will
    /// borrow and return. Takes the two fields it touches so the caller
    /// can go on to run the handler against the returned `Conn`.
    fn open_conn<'a>(
        conns: &'a mut FlowMap<Conn>,
        spare_pending: &mut Spares<VecDeque<Bytes>>,
        handle: FlowId,
        cookie: u64,
        user: u64,
    ) -> &'a mut Conn {
        spare_pending.note_borrowers(conns.len() + 1);
        let conn = Conn {
            handle,
            cookie,
            user,
            pending: VecDeque::new(),
            pending_bytes: 0,
            writable: true,
            closing: false,
        };
        let (slot, _) = conns.insert_in_bucket(cookie, NO_BUCKET, conn);
        conns.slot_mut(slot)
    }

    /// Takes back whatever buffer a removed connection's write queue
    /// still holds.
    fn retire_conn(&mut self, mut conn: Conn) {
        conn.pending.clear();
        self.spare_pending.reclaim(&mut conn.pending);
    }

    fn flush_conn(conn: &mut Conn, ctx: &mut UserCtx, submitted: &mut Vec<SubmitRecord>) {
        if conn.pending.is_empty() || !conn.writable {
            return;
        }
        // Coalesce every pending buffer into ONE sendv (§4.3).
        let bytes: usize = conn.pending.iter().map(Bytes::len).sum();
        ctx.sendv(conn.handle, conn.pending.iter().cloned());
        submitted.push(SubmitRecord::Sendv { cookie: conn.cookie, bytes });
        // Optimistically mark unwritable until the result confirms full
        // acceptance; partial results re-arm on `sent`.
        conn.writable = false;
    }

    /// Resolves an event's connection: by cookie if known, else by flow
    /// handle (events raced ahead of the cookie attachment).
    fn resolve(&self, cookie: u64, flow: FlowId) -> Option<u64> {
        match self.conns.get(cookie) {
            // The handle must match: a migrated flow can carry a cookie
            // that collides with an unrelated local connection (cookies
            // are per-thread counters).
            Some(c) if c.handle == flow => Some(cookie),
            _ => self.by_flow.get(&flow).copied(),
        }
    }

    fn apply_send_result(&mut self, cookie: u64, accepted: usize, submitted_bytes: usize) {
        let Some(conn) = self.conns.get_mut(cookie) else { return };
        // Drop `accepted` bytes from the front of the pending queue.
        let mut left = accepted;
        while left > 0 {
            let front = conn.pending.front_mut().expect("accepted ≤ pending");
            if front.len() <= left {
                left -= front.len();
                conn.pending.pop_front();
            } else {
                let keep = front.slice(left..);
                *front = keep;
                left = 0;
            }
        }
        self.spare_pending.reclaim(&mut conn.pending);
        conn.pending_bytes -= accepted;
        self.stats.bytes_out += accepted as u64;
        if accepted == submitted_bytes {
            conn.writable = true;
        } else {
            self.stats.partial_sends += 1;
            // Window-limited: wait for a `sent` event to reissue.
        }
    }
}

impl<H: LibixHandler + 'static> IxApp for Libix<H> {
    fn on_cycle(&mut self, ctx: &mut UserCtx) {
        // The per-cycle lists are walked with `drain` and handed back,
        // so each keeps its buffer from cycle to cycle — including
        // `ctx.events`, which the engine recycles into its shard.
        let mut actions = std::mem::take(&mut self.actions);

        // Pair last cycle's syscall results.
        let mut records = std::mem::take(&mut self.submitted);
        for (i, rec) in records.drain(..).enumerate() {
            if let SubmitRecord::Sendv { cookie, bytes } = rec {
                let accepted = match ctx.results.get(i) {
                    Some(SyscallResult::Sent(n)) => *n as usize,
                    _ => 0,
                };
                self.apply_send_result(cookie, accepted, bytes);
            }
        }
        self.submitted = records;

        // Pacing hook.
        {
            let mut lctx = LibixCtx {
                actions: &mut actions,
                next_user: 0,
                now_ns: ctx.now_ns,
                charge_ns: &mut ctx.user_ns,
            };
            self.handler.on_tick(&mut lctx);
        }

        // Event dispatch.
        let mut events = std::mem::take(&mut ctx.events);
        for ev in events.drain(..) {
            match ev {
                EventCond::Knock { flow, .. } => {
                    let cookie = self.next_cookie;
                    self.next_cookie += 1;
                    ctx.syscalls.push(Syscall::Accept { handle: flow, cookie });
                    self.submitted.push(SubmitRecord::Other);
                    self.by_flow.insert(flow, cookie);
                    self.stats.accepted += 1;
                    let conn = Libix::<H>::open_conn(
                        &mut self.conns,
                        &mut self.spare_pending,
                        flow,
                        cookie,
                        0,
                    );
                    let mut cctx = ConnCtx {
                        conn,
                        actions: &mut actions,
                        spare_pending: &mut self.spare_pending,
                        max_pending: self.max_pending,
                        now_ns: ctx.now_ns,
                        charge_ns: &mut ctx.user_ns,
                    };
                    self.handler.on_accept(&mut cctx);
                    self.dirty.push(cookie);
                }
                EventCond::Connected { flow, cookie, ok } => {
                    if ok {
                        self.by_flow.insert(flow, cookie);
                    }
                    if let Some(conn) = self.conns.get_mut(cookie) {
                        conn.handle = flow;
                        self.stats.connected += ok as u64;
                        let mut cctx = ConnCtx {
                            conn,
                            actions: &mut actions,
                            spare_pending: &mut self.spare_pending,
                            max_pending: self.max_pending,
                            now_ns: ctx.now_ns,
                            charge_ns: &mut ctx.user_ns,
                        };
                        self.handler.on_connected(&mut cctx, ok);
                        if ok {
                            self.dirty.push(cookie);
                        } else if let Some(conn) = self.conns.remove(cookie) {
                            self.retire_conn(conn);
                        }
                    }
                }
                EventCond::Recv { cookie, flow, payload } => {
                    let n = payload.len() as u32;
                    let resolved = self.resolve(cookie, flow);
                    let cookie = if let Some(c) = resolved {
                        c
                    } else {
                        // A flow migrated here by the control plane
                        // (§4.4): in the real system the multithreaded
                        // application shares its address space, so the
                        // cookie still resolves; our per-thread app model
                        // instead *adopts* the connection, re-attaching a
                        // local cookie.
                        let cookie = self.next_cookie;
                        self.next_cookie += 1;
                        ctx.syscalls.push(Syscall::Accept { handle: flow, cookie });
                        self.submitted.push(SubmitRecord::Other);
                        self.by_flow.insert(flow, cookie);
                        self.stats.adopted += 1;
                        let conn = Libix::<H>::open_conn(
                            &mut self.conns,
                            &mut self.spare_pending,
                            flow,
                            cookie,
                            0,
                        );
                        let mut cctx = ConnCtx {
                            conn,
                            actions: &mut actions,
                            spare_pending: &mut self.spare_pending,
                            max_pending: self.max_pending,
                            now_ns: ctx.now_ns,
                            charge_ns: &mut ctx.user_ns,
                        };
                        self.handler.on_accept(&mut cctx);
                        cookie
                    };
                    let handle = if let Some(conn) = self.conns.get_mut(cookie) {
                        self.stats.bytes_in += n as u64;
                        let mut cctx = ConnCtx {
                            conn,
                            actions: &mut actions,
                            spare_pending: &mut self.spare_pending,
                            max_pending: self.max_pending,
                            now_ns: ctx.now_ns,
                            charge_ns: &mut ctx.user_ns,
                        };
                        self.handler.on_data(&mut cctx, &payload);
                        self.dirty.push(cookie);
                        Some(conn.handle)
                    } else {
                        None
                    };
                    // The libevent-compatible layer consumes the buffer
                    // when the callback returns: credit the window (the
                    // stack frees the mbuf when the credit covers it).
                    drop(payload);
                    if let Some(handle) = handle {
                        ctx.syscalls.push(Syscall::RecvDone { handle, bytes: n });
                        self.submitted.push(SubmitRecord::Other);
                    }
                }
                EventCond::Sent { cookie, flow, .. } => {
                    let Some(cookie) = self.resolve(cookie, flow) else {
                        continue; // Window update for a flow this app
                                  // never adopted; nothing to re-flush.
                    };
                    if let Some(conn) = self.conns.get_mut(cookie) {
                        conn.writable = true;
                        let mut cctx = ConnCtx {
                            conn,
                            actions: &mut actions,
                            spare_pending: &mut self.spare_pending,
                            max_pending: self.max_pending,
                            now_ns: ctx.now_ns,
                            charge_ns: &mut ctx.user_ns,
                        };
                        self.handler.on_sent(&mut cctx);
                        self.dirty.push(cookie);
                    }
                }
                EventCond::Dead { cookie, flow, reason } => {
                    let Some(cookie) = self.resolve(cookie, flow) else {
                        continue; // Unknown (never-adopted) flow died.
                    };
                    self.by_flow.remove(&flow);
                    if let Some(mut conn) = self.conns.remove(cookie) {
                        let was_closing = conn.closing;
                        let handle = conn.handle;
                        let mut cctx = ConnCtx {
                            conn: &mut conn,
                            actions: &mut actions,
                            spare_pending: &mut self.spare_pending,
                            max_pending: self.max_pending,
                            now_ns: ctx.now_ns,
                            charge_ns: &mut ctx.user_ns,
                        };
                        self.handler.on_dead(&mut cctx, reason);
                        if reason == DeadReason::PeerFin && !was_closing && !conn.closing {
                            // Default close-on-FIN for servers.
                            ctx.syscalls.push(Syscall::Close { handle });
                            self.submitted.push(SubmitRecord::Other);
                        }
                        self.retire_conn(conn);
                    }
                }
            }
        }

        ctx.events = events;

        // Apply deferred actions.
        for a in actions.drain(..) {
            match a {
                Action::Close(cookie) => {
                    if let Some(conn) = self.conns.remove(cookie) {
                        self.by_flow.remove(&conn.handle);
                        ctx.syscalls.push(Syscall::Close { handle: conn.handle });
                        self.submitted.push(SubmitRecord::Other);
                        self.retire_conn(conn);
                    }
                }
                Action::Abort(cookie) => {
                    if let Some(conn) = self.conns.remove(cookie) {
                        self.by_flow.remove(&conn.handle);
                        ctx.syscalls.push(Syscall::Abort { handle: conn.handle });
                        self.submitted.push(SubmitRecord::Other);
                        self.retire_conn(conn);
                    }
                }
                Action::Write { cookie, data } => {
                    if let Some(conn) = self.conns.get_mut(cookie) {
                        if conn.pending_bytes + data.len() <= self.max_pending {
                            conn.pending_bytes += data.len();
                            self.spare_pending.push_back(&mut conn.pending, data);
                            self.dirty.push(cookie);
                        } else {
                            self.stats.cap_rejections += 1;
                        }
                    }
                }
                Action::Connect { dst_ip, dst_port, user } => {
                    let cookie = self.next_cookie;
                    self.next_cookie += 1;
                    Libix::<H>::open_conn(
                        &mut self.conns,
                        &mut self.spare_pending,
                        FlowId { key: 0, gen: 0 },
                        cookie,
                        user,
                    );
                    ctx.syscalls.push(Syscall::Connect { cookie, dst_ip, dst_port });
                    self.submitted.push(SubmitRecord::Other);
                }
            }
        }

        self.actions = actions;

        // Transmit coalescing: one sendv per connection with new data.
        // Only connections whose (pending, writable) state could have
        // changed this cycle are visited, in cookie order — identical
        // syscall order to a full scan of a cookie-sorted table,
        // because `flush_conn` no-ops on every undisturbed connection.
        // A conn made flushable but not dirty cannot exist: every path
        // that queues pending data or re-arms `writable` while data is
        // pending marks the cookie above (result pairing alone never
        // does both — full acceptance drains pending, partial leaves
        // `writable` false until its `sent` event).
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for cookie in dirty.drain(..) {
            if let Some(conn) = self.conns.get_mut(cookie) {
                Libix::<H>::flush_conn(conn, ctx, &mut self.submitted);
            }
        }
        self.dirty = dirty;
    }

    fn wants_cycle(&self, now_ns: u64) -> bool {
        self.handler.wants_tick(now_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        self.handler.next_deadline_ns()
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl<H: LibixHandler + std::fmt::Debug> std::fmt::Debug for Libix<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Libix")
            .field("conns", &self.conns.len())
            .field("stats", &self.stats)
            .finish()
    }
}
