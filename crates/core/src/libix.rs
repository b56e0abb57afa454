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

use std::collections::VecDeque;
use std::num::NonZeroU64;

use ix_mempool::{LentQueues, Spares};
use ix_testkit::{buffer_id, Bytes};
use ix_tcp::{DeadReason, FlowId, FlowMap, NO_BUCKET};

use crate::api::{EventCond, IxApp, Syscall, SyscallResult, UserCtx};

/// Cap on bytes buffered per connection awaiting window space (the §4.3
/// "maximum pending send byte limit"; sized to cover bulk NetPIPE
/// messages).
pub const MAX_PENDING: usize = 2 * 1024 * 1024;

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
    /// True once the handler has closed or aborted the connection.
    /// Events already queued for it in this cycle are still delivered.
    pub fn is_closing(&self) -> bool {
        self.closing
    }

    /// Queues `data` behind the unaccepted writes; returns `false`,
    /// queuing nothing, if it would take them past [`MAX_PENDING`].
    fn enqueue(&mut self, spare_pending: &mut Spares<VecDeque<Bytes>>, data: Bytes) -> bool {
        if self.pending_bytes + data.len() > MAX_PENDING {
            return false;
        }
        self.pending_bytes += data.len();
        spare_pending.push_back(&mut self.pending, data);
        true
    }
}

/// Actions a handler can take on a connection during a callback.
pub struct ConnCtx<'a> {
    /// The connection.
    pub conn: &'a mut Conn,
    actions: &'a mut Vec<Action>,
    spare_pending: &'a mut Spares<VecDeque<Bytes>>,
    /// Virtual time, ns.
    pub now_ns: u64,
    /// Accumulated application CPU charge for this cycle, ns.
    pub charge_ns: &'a mut u64,
}

#[derive(Debug)]
enum Action {
    /// Close (FIN), or abort (RST) when `rst`.
    Close { cookie: u64, rst: bool },
    Connect { dst_ip: ix_net::Ipv4Addr, dst_port: u16, user: u64 },
    Write { cookie: u64, data: Bytes },
}

impl ConnCtx<'_> {
    /// Queues `data` for transmission; returns `false` (dropping nothing,
    /// accepting nothing) if the pending-byte cap would be exceeded —
    /// the paper's "maximum pending send byte limit".
    pub fn write(&mut self, data: Bytes) -> bool {
        self.conn.enqueue(self.spare_pending, data)
    }

    /// Requests a graceful close after pending data drains.
    pub fn close(&mut self) {
        self.conn.closing = true;
        if self.conn.pending.is_empty() {
            self.actions.push(Action::Close { cookie: self.conn.cookie, rst: false });
        }
    }

    /// Hard-closes with RST immediately (the §5.3 benchmark pattern).
    pub fn abort(&mut self) {
        self.conn.closing = true;
        self.conn.pending.clear();
        self.spare_pending.reclaim(&mut self.conn.pending);
        self.conn.pending_bytes = 0;
        self.actions.push(Action::Close { cookie: self.conn.cookie, rst: true });
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
    /// Virtual time, ns.
    pub now_ns: u64,
    /// Accumulated application CPU charge, ns.
    pub charge_ns: &'a mut u64,
}

impl LibixCtx<'_> {
    /// Initiates an outbound connection; `user` tags it for callbacks.
    pub fn connect(&mut self, dst_ip: ix_net::Ipv4Addr, dst_port: u16, user: u64) {
        self.actions.push(Action::Connect { dst_ip, dst_port, user });
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
    /// Flow key → `(cookie, generation)`: events generated by the
    /// dataplane *before* an `accept`/`connect` cookie attachment
    /// executes carry a stale cookie (the knock/data race within one
    /// batch); resolving by flow handle recovers them. An entry answers
    /// only a handle of its own generation. Cookies start at 1, so the
    /// entry fits 16 bytes.
    by_flow: FlowMap<(NonZeroU64, u32)>,
    next_cookie: u64,
    /// `(index, cookie, bytes)` per `Sendv` in last cycle's batch: the
    /// call's index in the batch, where its result comes back (§4.2),
    /// and what it asked the stack to take.
    submitted: Vec<(usize, u64, usize)>,
}

impl<H: LibixHandler + 'static> Libix<H> {
    /// Wraps a handler.
    pub fn new(handler: H) -> Libix<H> {
        Libix {
            handler,
            conns: FlowMap::new(),
            dirty: Vec::new(),
            spare_pending: Spares::new(),
            actions: Vec::new(),
            by_flow: FlowMap::new(),
            next_cookie: 1,
            submitted: Vec::new(),
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

    /// Registers a new connection under a fresh cookie and returns the
    /// cookie. It owns no buffer; the spare stack gets room here, in the
    /// ramp, for the one it will borrow and return.
    fn open_conn(&mut self, handle: FlowId, user: u64) -> u64 {
        let cookie = self.next_cookie;
        self.next_cookie += 1;
        self.spare_pending.note_borrowers(self.conns.len() + 1);
        let conn = Conn {
            handle,
            cookie,
            user,
            pending: VecDeque::new(),
            pending_bytes: 0,
            writable: true,
            closing: false,
        };
        self.conns.insert_in_bucket(cookie, NO_BUCKET, conn);
        cookie
    }

    /// Removes the connection under `cookie`, taking back whatever
    /// buffer its write queue still holds; returns its flow handle.
    fn remove_conn(&mut self, cookie: u64) -> Option<FlowId> {
        let mut conn = self.conns.remove(cookie)?;
        conn.pending.clear();
        self.spare_pending.reclaim(&mut conn.pending);
        Some(conn.handle)
    }

    /// Accepts `flow` under a fresh cookie and runs `on_accept`: a
    /// knock, or a flow the control plane migrated here (§4.4). In the
    /// real system the multithreaded application shares its address
    /// space, so a migrated flow's cookie still resolves; this
    /// per-thread app model instead *adopts* the connection.
    fn accept(&mut self, flow: FlowId, ctx: &mut UserCtx) -> u64 {
        let cookie = self.open_conn(flow, 0);
        ctx.syscall(Syscall::Accept { handle: flow, cookie });
        self.note_flow(flow, cookie);
        self.callback(cookie, ctx, |h, c| h.on_accept(c));
        self.dirty.push(cookie);
        cookie
    }

    /// Runs `f`, one handler callback, on the connection under `cookie`;
    /// `None` if there is no such connection.
    fn callback<R>(
        &mut self,
        cookie: u64,
        ctx: &mut UserCtx,
        f: impl FnOnce(&mut H, &mut ConnCtx<'_>) -> R,
    ) -> Option<R> {
        let mut cctx = ConnCtx {
            conn: self.conns.get_mut(cookie)?,
            actions: &mut self.actions,
            spare_pending: &mut self.spare_pending,
            now_ns: ctx.now_ns,
            charge_ns: &mut ctx.user_ns,
        };
        Some(f(&mut self.handler, &mut cctx))
    }

    fn flush_conn(conn: &mut Conn, ctx: &mut UserCtx, submitted: &mut Vec<(usize, u64, usize)>) {
        if conn.pending.is_empty() || !conn.writable {
            return;
        }
        // Coalesce every pending buffer into ONE sendv (§4.3).
        let bytes: usize = conn.pending.iter().map(Bytes::len).sum();
        let index = ctx.sendv(conn.handle, conn.pending.iter().cloned());
        submitted.push((index, conn.cookie, bytes));
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
            _ => self.flow_cookie(flow),
        }
    }

    /// Records `cookie` as the connection of `flow` in `by_flow`.
    fn note_flow(&mut self, flow: FlowId, cookie: u64) {
        let cookie = NonZeroU64::new(cookie).expect("cookies start at 1");
        self.by_flow.insert(flow.key, (cookie, flow.gen));
    }

    /// The cookie `by_flow` holds for exactly this handle.
    fn flow_cookie(&self, flow: FlowId) -> Option<u64> {
        match self.by_flow.get(flow.key) {
            Some(&(cookie, gen)) if gen == flow.gen => Some(cookie.get()),
            _ => None,
        }
    }

    /// Drops `by_flow`'s entry for exactly this handle.
    fn forget_flow(&mut self, flow: FlowId) {
        if self.flow_cookie(flow).is_some() {
            self.by_flow.remove(flow.key);
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
        // Window-limited otherwise: wait for a `sent` event to reissue.
        conn.writable = accepted == submitted_bytes;
    }
}

impl<H: LibixHandler + 'static> IxApp for Libix<H> {
    fn on_cycle(&mut self, ctx: &mut UserCtx) {
        // The per-cycle lists are walked with `drain` and handed back,
        // so each keeps its buffer from cycle to cycle — including
        // `ctx.events`, which the engine recycles into its shard.

        // Pair last cycle's `sendv` results, each at its call's index.
        let mut sends = std::mem::take(&mut self.submitted);
        for (index, cookie, bytes) in sends.drain(..) {
            let accepted = match ctx.results.get(index) {
                Some(SyscallResult::Sent(n)) => *n as usize,
                _ => 0,
            };
            self.apply_send_result(cookie, accepted, bytes);
        }
        // Sized for the batch just paired, like `UserCtx::load`'s pairs,
        // so the list reaches its high-water capacity with `results`.
        sends.reserve(ctx.results.len());
        self.submitted = sends;

        // Pacing hook.
        self.handler.on_tick(&mut LibixCtx {
            actions: &mut self.actions,
            now_ns: ctx.now_ns,
            charge_ns: &mut ctx.user_ns,
        });

        // Event dispatch.
        let mut events = std::mem::take(&mut ctx.events);
        for ev in events.drain(..) {
            match ev {
                EventCond::Knock { flow, .. } => {
                    self.accept(flow, ctx);
                }
                EventCond::Connected { flow, cookie, ok } => {
                    if ok {
                        self.note_flow(flow, cookie);
                    }
                    let found = self.callback(cookie, ctx, |h, c| {
                        c.conn.handle = flow;
                        h.on_connected(c, ok);
                    });
                    if found.is_some() {
                        if ok {
                            self.dirty.push(cookie);
                        } else {
                            self.remove_conn(cookie);
                        }
                    }
                }
                EventCond::Recv { cookie, flow, payload } => {
                    let cookie = match self.resolve(cookie, flow) {
                        Some(c) => c,
                        None => self.accept(flow, ctx),
                    };
                    let n = payload.len() as u32;
                    let handle = self.callback(cookie, ctx, |h, c| {
                        h.on_data(c, &payload);
                        c.conn.handle
                    });
                    // The libevent-compatible layer consumes the buffer
                    // when the callback returns: credit the window (the
                    // stack frees the mbuf when the credit covers it).
                    drop(payload);
                    if let Some(handle) = handle {
                        self.dirty.push(cookie);
                        ctx.syscall(Syscall::RecvDone { handle, bytes: n });
                    }
                }
                EventCond::Sent { cookie, flow, .. } => {
                    let Some(cookie) = self.resolve(cookie, flow) else {
                        continue; // Window update for a flow this app
                                  // never adopted; nothing to re-flush.
                    };
                    let found = self.callback(cookie, ctx, |h, c| {
                        c.conn.writable = true;
                        h.on_sent(c);
                    });
                    if found.is_some() {
                        self.dirty.push(cookie);
                    }
                }
                EventCond::Dead { cookie, flow, reason } => {
                    let Some(cookie) = self.resolve(cookie, flow) else {
                        continue; // Unknown (never-adopted) flow died.
                    };
                    self.forget_flow(flow);
                    let closing = self.callback(cookie, ctx, |h, c| {
                        h.on_dead(c, reason);
                        c.conn.closing
                    });
                    if let Some(handle) = self.remove_conn(cookie) {
                        if reason == DeadReason::PeerFin && closing == Some(false) {
                            // Default close-on-FIN for servers.
                            ctx.syscall(Syscall::Close { handle });
                        }
                    }
                }
            }
        }
        ctx.events = events;

        // Apply deferred actions.
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Close { cookie, rst } => {
                    if let Some(handle) = self.remove_conn(cookie) {
                        self.forget_flow(handle);
                        ctx.syscall(if rst {
                            Syscall::Abort { handle }
                        } else {
                            Syscall::Close { handle }
                        });
                    }
                }
                Action::Write { cookie, data } => {
                    if let Some(conn) = self.conns.get_mut(cookie) {
                        if conn.enqueue(&mut self.spare_pending, data) {
                            self.dirty.push(cookie);
                        }
                    }
                }
                Action::Connect { dst_ip, dst_port, user } => {
                    let cookie = self.open_conn(FlowId { key: 0, gen: 0 }, user);
                    ctx.syscall(Syscall::Connect { cookie, dst_ip, dst_port });
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
        f.debug_struct("Libix").field("conns", &self.conns.len()).finish()
    }
}
