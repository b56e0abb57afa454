//! The §5.3 echo microbenchmark (also used by MegaPipe and mTCP).
//!
//! "18 clients connect to a single server listening on a single port,
//! send a remote request of size s bytes, and wait for an echo of a
//! message of the same size. ... the server holds off its echo response
//! until the message has been entirely received. Each client performs
//! this synchronous remote procedure call n times before closing the
//! connection. ... clients close the connection using a reset (TCP RST)
//! to avoid exhausting ephemeral ports."

use std::cell::RefCell;
use std::rc::Rc;

use ix_testkit::Bytes;
use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_sim::Histogram;
use ix_tcp::FlowMap;

/// The echo server: buffers until a full `msg_size` request arrives,
/// then echoes it back ("the server holds off its echo response until
/// the message has been entirely received").
pub struct EchoServer {
    /// Request/response size in bytes.
    pub msg_size: usize,
    /// Application CPU per fully received request (request parsing and
    /// response construction).
    pub service_ns: u64,
    /// Bytes received so far per connection (keyed by libix cookie;
    /// open-addressed — this is touched on every delivered segment, so
    /// at 250k connections it is hot-path state like the flow table).
    partial: FlowMap<usize>,
    /// The zero-filled response, allocated once and cloned per echo
    /// (O(1) refcount bump). Downstream, `sendv` slices this same block
    /// into the retransmit queue, so steady-state echo traffic allocates
    /// no payload storage at all.
    template: Bytes,
}

impl EchoServer {
    /// Creates a server for `msg_size`-byte messages.
    pub fn new(msg_size: usize, service_ns: u64) -> EchoServer {
        EchoServer {
            msg_size,
            service_ns,
            partial: FlowMap::new(),
            template: Bytes::new(),
        }
    }
}

/// Returns a shared clone of `template`, (re)building it if `msg_size`
/// changed since the last call — the handlers expose `msg_size` as a
/// public field, so the cache revalidates rather than trusting it.
fn response(template: &mut Bytes, msg_size: usize) -> Bytes {
    if template.len() != msg_size {
        *template = Bytes::from(vec![0u8; msg_size]);
    }
    template.clone()
}

impl LibixHandler for EchoServer {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let got = self.partial.get_or_insert_default(ctx.conn.cookie);
        *got += data.len();
        while *got >= self.msg_size {
            *got -= self.msg_size;
            ctx.charge(self.service_ns);
            let rsp = response(&mut self.template, self.msg_size);
            ctx.write(rsp);
        }
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, _reason: ix_tcp::DeadReason) {
        self.partial.remove(ctx.conn.cookie);
    }
}

/// Shared measurement sink for echo clients.
#[derive(Debug)]
pub struct EchoBenchStats {
    /// Round-trip latencies (recorded only inside the measurement
    /// window).
    pub rtt: Histogram,
    /// Completed messages inside the window.
    pub messages: u64,
    /// Completed messages overall.
    pub messages_total: u64,
    /// Connections fully completed (n round trips + close).
    pub conns_closed: u64,
    /// Measurement window start (ns); zero disables gating.
    pub window_start_ns: u64,
    /// Measurement window end (ns); `u64::MAX` leaves it open.
    pub window_end_ns: u64,
}

impl EchoBenchStats {
    /// Creates a sink measuring inside `[start, end)`.
    pub fn new(window_start_ns: u64, window_end_ns: u64) -> Rc<RefCell<EchoBenchStats>> {
        Rc::new(RefCell::new(EchoBenchStats {
            rtt: Histogram::new(),
            messages: 0,
            messages_total: 0,
            conns_closed: 0,
            window_start_ns,
            window_end_ns,
        }))
    }

    fn record(&mut self, now_ns: u64, rtt_ns: u64) {
        self.messages_total += 1;
        if now_ns >= self.window_start_ns && now_ns < self.window_end_ns {
            self.messages += 1;
            self.rtt.record(ix_sim::Nanos(rtt_ns));
        }
    }
}

/// Per-connection client state.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    received: usize,
    done_msgs: usize,
    sent_at: u64,
}

/// The closed-loop echo client: keeps `conns` connections busy, each
/// performing `n` round trips of `msg_size` bytes before an RST close
/// and (optionally) a fresh connection — the §5.3 churn pattern.
pub struct EchoClient {
    /// Server address.
    pub server: ix_net::Ipv4Addr,
    /// Server port.
    pub port: u16,
    /// Message size `s`.
    pub msg_size: usize,
    /// Round trips per connection `n`.
    pub n_per_conn: usize,
    /// Concurrent connections to maintain.
    pub conns: usize,
    /// Whether to reopen after closing (sustained churn) or stop.
    pub reopen: bool,
    stats: Rc<RefCell<EchoBenchStats>>,
    states: FlowMap<ConnState>,
    opened: usize,
    live: usize,
    next_user: u64,
    /// Stop issuing new work after this instant (lets the run drain).
    pub stop_at_ns: u64,
    /// Shared zero-filled request block (see [`EchoServer::template`]).
    template: Bytes,
}

impl EchoClient {
    /// Creates a client handler feeding `stats`.
    pub fn new(
        server: ix_net::Ipv4Addr,
        port: u16,
        msg_size: usize,
        n_per_conn: usize,
        conns: usize,
        reopen: bool,
        stats: Rc<RefCell<EchoBenchStats>>,
    ) -> EchoClient {
        EchoClient {
            server,
            port,
            msg_size,
            n_per_conn,
            conns,
            reopen,
            stats,
            states: FlowMap::with_capacity(conns),
            opened: 0,
            live: 0,
            next_user: 0,
            stop_at_ns: u64::MAX,
            template: Bytes::new(),
        }
    }

    fn fire(&mut self, ctx: &mut ConnCtx<'_>) {
        let st = self.states.get_mut(ctx.conn.user).expect("tracked");
        st.sent_at = ctx.now_ns;
        let req = response(&mut self.template, self.msg_size);
        ctx.write(req);
    }
}

impl LibixHandler for EchoClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        while self.live < self.conns && ctx.now_ns < self.stop_at_ns {
            let user = self.next_user;
            self.next_user += 1;
            self.states.insert(
                user,
                ConnState { received: 0, done_msgs: 0, sent_at: 0 },
            );
            ctx.connect(self.server, self.port, user);
            self.opened += 1;
            self.live += 1;
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if !ok {
            self.live -= 1;
            self.states.remove(ctx.conn.user);
            return;
        }
        self.fire(ctx);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user;
        let now = ctx.now_ns;
        let Some(st) = self.states.get_mut(user) else { return };
        st.received += data.len();
        if st.received < self.msg_size {
            return;
        }
        st.received -= self.msg_size;
        st.done_msgs += 1;
        let rtt = now - st.sent_at;
        self.stats.borrow_mut().record(now, rtt);
        if st.done_msgs >= self.n_per_conn || now >= self.stop_at_ns {
            // RST close, per the benchmark definition.
            ctx.abort();
            self.states.remove(user);
            self.live -= 1;
            self.stats.borrow_mut().conns_closed += 1;
            // on_tick reopens if configured.
        } else {
            self.fire(ctx);
        }
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, _reason: ix_tcp::DeadReason) {
        if self.states.remove(ctx.conn.user).is_some() {
            self.live -= 1;
        }
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        (self.reopen || self.opened < self.conns) && self.live < self.conns && now_ns < self.stop_at_ns
    }
}

/// A cyclic ready-set over dense connection ids: a bitmap with a
/// rotating cursor, so "fire the next idle connection round-robin" is
/// a find-first-set-bit over 64-id words instead of a probe loop over
/// every connection. At 250k connections per client fleet the old
/// `for _ in 0..conns` scan in [`RotatingEchoClient`] was the
/// quadratic term in ramp and rotation.
#[derive(Debug)]
pub struct ReadyRing {
    /// One bit per connection id; set = idle (no RPC outstanding).
    words: Vec<u64>,
    /// Number of valid ids (bits above this are never set).
    len: usize,
    /// Next id to consider, advancing past each fired id — the same
    /// rotation the scanning cursor produced.
    cursor: usize,
    ready: usize,
    /// Cumulative 64-bit words examined across all `take_next` calls
    /// (the probe-cost meter the regression test asserts on).
    probes: u64,
}

impl ReadyRing {
    /// A ring over ids `0..len`, all initially not ready.
    pub fn new(len: usize) -> ReadyRing {
        ReadyRing { words: vec![0; len.div_ceil(64)], len, cursor: 0, ready: 0, probes: 0 }
    }

    /// Marks `id` ready (idempotent).
    pub fn set(&mut self, id: usize) {
        assert!(id < self.len, "id {} out of ring bounds {}", id, self.len);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.ready += 1;
        }
    }

    /// Marks `id` not ready (idempotent).
    pub fn clear(&mut self, id: usize) {
        assert!(id < self.len, "id {} out of ring bounds {}", id, self.len);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        if self.words[w] & b != 0 {
            self.words[w] &= !b;
            self.ready -= 1;
        }
    }

    /// Number of ready ids.
    pub fn ready(&self) -> usize {
        self.ready
    }

    /// Cumulative words examined by [`ReadyRing::take_next`].
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Returns the first ready id at or cyclically after the cursor and
    /// advances the cursor past it, clearing nothing — the caller
    /// decides whether firing consumes readiness. Returns `None` (with
    /// the cursor unmoved) when nothing is ready.
    pub fn take_next(&mut self) -> Option<usize> {
        if self.ready == 0 {
            return None;
        }
        let found = self
            .scan(self.cursor, self.len)
            .or_else(|| self.scan(0, self.cursor))
            .expect("ready count nonzero");
        self.cursor = if found + 1 >= self.len { 0 } else { found + 1 };
        Some(found)
    }

    /// First set bit in `[from, to)`, counting examined words.
    fn scan(&mut self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let (first_w, last_w) = (from / 64, (to - 1) / 64);
        for w in first_w..=last_w {
            self.probes += 1;
            let mut word = self.words[w];
            if w == first_w {
                word &= !0u64 << (from % 64);
            }
            if w == last_w && (to - 1) % 64 != 63 {
                word &= (1u64 << ((to - 1) % 64 + 1)) - 1;
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Per-connection bookkeeping for [`RotatingEchoClient`], slab-indexed
/// by the dense user id (`0..conns`).
#[derive(Debug, Clone, Copy)]
struct ClientSlot {
    cookie: u64,
    partial: usize,
    /// Fire timestamp of the outstanding RPC; 0 = idle.
    sent_at: u64,
}

/// The §5.4 connection-scalability client (Fig 4): each thread holds a
/// large set of established connections and rotates a small number of
/// outstanding RPCs across them round-robin, so every connection stays
/// live while total concurrency stays bounded ("18 client machines run n
/// threads, each thread repeatedly performing a 64B RPC to the server
/// with a variable number of active connections").
pub struct RotatingEchoClient {
    /// Server address.
    pub server: ix_net::Ipv4Addr,
    /// Server port.
    pub port: u16,
    /// Message size.
    pub msg_size: usize,
    /// Total connections this thread maintains.
    pub conns: usize,
    /// Concurrent outstanding RPCs.
    pub outstanding: usize,
    /// Connections opened per ramp round (avoids SYN floods).
    pub ramp_batch: usize,
    stats: Rc<RefCell<EchoBenchStats>>,
    /// Slab of per-connection state, indexed by user id (`None` until
    /// that connection establishes).
    slots: Vec<Option<ClientSlot>>,
    /// Bit set ⇔ slot exists and `sent_at == 0` (idle, fireable).
    ring: ReadyRing,
    opened: usize,
    connected: usize,
    rotating: bool,
    /// Do not begin dialing before this instant. Harnesses stagger
    /// this across client threads to turn a synchronized 250k-SYN
    /// storm into amortized dial waves the server's accept path can
    /// absorb without drops.
    pub dial_at_ns: u64,
    /// Start rotating no later than this instant, even if some
    /// connections failed to establish (robustness at 250k-connection
    /// scale).
    pub start_at_ns: u64,
    /// Stop issuing new RPCs after this instant.
    pub stop_at_ns: u64,
    /// Shared zero-filled request block (see [`EchoServer::template`]).
    template: Bytes,
}

impl RotatingEchoClient {
    /// Creates a rotating client.
    pub fn new(
        server: ix_net::Ipv4Addr,
        port: u16,
        msg_size: usize,
        conns: usize,
        outstanding: usize,
        stats: Rc<RefCell<EchoBenchStats>>,
    ) -> RotatingEchoClient {
        RotatingEchoClient {
            server,
            port,
            msg_size,
            conns,
            outstanding,
            ramp_batch: 64,
            stats,
            slots: vec![None; conns],
            ring: ReadyRing::new(conns),
            opened: 0,
            connected: 0,
            rotating: false,
            dial_at_ns: 0,
            start_at_ns: 0,
            stop_at_ns: u64::MAX,
            template: Bytes::new(),
        }
    }

    /// Fires an RPC on the next idle connection in rotation via a
    /// deferred write (we are outside that connection's callback).
    /// O(ready-ring word scan), not O(conns): the ring hands back the
    /// first idle id at or after the rotation cursor.
    fn fire_next(&mut self, now_ns: u64, mut write: impl FnMut(u64, Bytes)) {
        if now_ns >= self.stop_at_ns || self.connected == 0 {
            return;
        }
        let Some(user) = self.ring.take_next() else { return };
        let slot = self.slots[user].as_mut().expect("ready bit implies live slot");
        debug_assert_eq!(slot.sent_at, 0, "ready bit implies idle");
        slot.sent_at = now_ns;
        if now_ns != 0 {
            // `sent_at == 0` doubles as the idle sentinel, so a fire at
            // t=0 leaves the slot fireable — same as the scan it replaces.
            self.ring.clear(user);
        }
        let c = slot.cookie;
        let req = response(&mut self.template, self.msg_size);
        write(c, req);
    }
}

impl LibixHandler for RotatingEchoClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if ctx.now_ns < self.dial_at_ns {
            return;
        }
        // Ramp: open connections in bounded batches.
        while self.opened < self.conns && self.opened < self.connected + self.ramp_batch {
            ctx.connect(self.server, self.port, self.opened as u64);
            self.opened += 1;
        }
        // Deadline start: rotate over whatever is established.
        if !self.rotating && ctx.now_ns >= self.start_at_ns && self.connected > 0 {
            self.rotating = true;
            for _ in 0..self.outstanding {
                let now = ctx.now_ns;
                self.fire_next(now, |cookie, data| ctx.write_to(cookie, data));
            }
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "rotating client connect failed");
        let user = ctx.conn.user as usize;
        self.slots[user] = Some(ClientSlot { cookie: ctx.conn.cookie, partial: 0, sent_at: 0 });
        self.ring.set(user);
        self.connected += 1;
        if self.connected == self.conns && !self.rotating {
            // Everything established: start the rotation.
            self.rotating = true;
            for _ in 0..self.outstanding {
                let now = ctx.now_ns;
                self.fire_next(now, |cookie, data| {
                    if cookie == ctx.conn.cookie {
                        ctx.write(data);
                    } else {
                        ctx.write_to(cookie, data);
                    }
                });
            }
        }
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user as usize;
        let now = ctx.now_ns;
        let full = {
            let Some(slot) = self.slots.get_mut(user).and_then(Option::as_mut) else { return };
            slot.partial += data.len();
            if slot.partial < self.msg_size {
                false
            } else {
                slot.partial -= self.msg_size;
                let rtt = now - slot.sent_at;
                slot.sent_at = 0;
                self.ring.set(user);
                self.stats.borrow_mut().record(now, rtt);
                true
            }
        };
        if full {
            self.fire_next(now, |cookie, d| {
                if cookie == ctx.conn.cookie {
                    ctx.write(d);
                } else {
                    ctx.write_to(cookie, d);
                }
            });
        }
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        self.opened < self.conns || (!self.rotating && now_ns >= self.start_at_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        if self.rotating {
            None
        } else if self.opened == 0 && self.dial_at_ns > 0 {
            // Waiting for our dial wave.
            Some(self.dial_at_ns)
        } else {
            Some(self.start_at_ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_echoes_only_complete_messages() {
        // Drive the handler directly with a fake ConnCtx via libix is
        // heavyweight; instead verify the partial-buffer arithmetic.
        let mut s = EchoServer::new(100, 0);
        assert_eq!(*s.partial.get_or_insert_default(1), 0);
        // Simulate accumulation logic.
        let got = s.partial.get_mut(1).unwrap();
        *got += 60;
        assert!(*got < s.msg_size);
        *got += 50;
        assert!(*got >= s.msg_size);
        *got -= s.msg_size;
        assert_eq!(*got, 10);
    }

    /// The old `fire_next` probe loop, kept as the behavioural
    /// reference: scan up to `n` user slots from a monotonically
    /// advancing cursor, returning the first ready one.
    struct ScanRef {
        ready: Vec<bool>,
        cursor: u64,
    }

    impl ScanRef {
        fn take_next(&mut self) -> Option<usize> {
            let n = self.ready.len() as u64;
            for _ in 0..n {
                let user = (self.cursor % n) as usize;
                self.cursor += 1;
                if self.ready[user] {
                    return Some(user);
                }
            }
            None
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Differential: the ready-ring fires exactly the ids, in exactly
    /// the order, the old O(conns) cursor scan fired, under randomized
    /// set/clear/fire interleavings (including empty-ring fires).
    #[test]
    fn ready_ring_matches_cursor_scan_reference() {
        for &n in &[1usize, 7, 63, 64, 65, 200, 1000] {
            let mut rng = 0x1234_5678_9abc_def0u64 ^ (n as u64);
            let mut ring = ReadyRing::new(n);
            let mut reference = ScanRef { ready: vec![false; n], cursor: 0 };
            for _ in 0..4_000 {
                match splitmix(&mut rng) % 4 {
                    0 | 1 => {
                        let id = (splitmix(&mut rng) as usize) % n;
                        ring.set(id);
                        reference.ready[id] = true;
                    }
                    2 => {
                        let id = (splitmix(&mut rng) as usize) % n;
                        ring.clear(id);
                        reference.ready[id] = false;
                    }
                    _ => {
                        let got = ring.take_next();
                        let want = reference.take_next();
                        assert_eq!(got, want, "ring diverged from scan (n={n})");
                        // Firing consumes readiness in both models.
                        if let Some(id) = got {
                            ring.clear(id);
                            reference.ready[id] = false;
                        }
                    }
                }
            }
        }
    }

    /// The probe-cost regression the satellite task demands: firing
    /// from a dense 250k-connection ring touches ONE word per fire —
    /// not 250k slots — and even the adversarial sparse case is
    /// bounded by the word count, 64× below the old scan.
    #[test]
    fn ready_ring_fire_cost_is_words_not_conns() {
        let n = 250_000;
        let mut ring = ReadyRing::new(n);
        for i in 0..n {
            ring.set(i);
        }
        let before = ring.probes();
        for _ in 0..1_000 {
            let id = ring.take_next().expect("dense ring");
            // Simulate instant completion: the slot stays ready, as in
            // steady-state rotation where most connections are idle.
            ring.clear(id);
            ring.set(id);
        }
        assert_eq!(ring.probes() - before, 1_000, "dense fires must cost one word each");

        // Adversarial: only the id just *behind* the cursor is ready,
        // forcing a full cyclic scan — still word-granular.
        let mut sparse = ReadyRing::new(n);
        sparse.set(0);
        let _ = sparse.take_next(); // cursor now at 1, nothing ready at/after it
        sparse.clear(0);
        sparse.set(0);
        let before = sparse.probes();
        assert_eq!(sparse.take_next(), Some(0));
        let words = (n as u64).div_ceil(64);
        assert!(
            sparse.probes() - before <= words + 1,
            "worst-case fire probed {} words (bound {})",
            sparse.probes() - before,
            words + 1
        );
    }

    #[test]
    fn stats_window_gating() {
        let stats = EchoBenchStats::new(1_000, 2_000);
        stats.borrow_mut().record(500, 10);
        stats.borrow_mut().record(1_500, 10);
        stats.borrow_mut().record(2_500, 10);
        let s = stats.borrow();
        assert_eq!(s.messages_total, 3);
        assert_eq!(s.messages, 1);
        assert_eq!(s.rtt.count(), 1);
    }
}
