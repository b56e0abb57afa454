//! The mutilate-style load generator (§5.5).
//!
//! "We use the mutilate load-generator to place a selected load on the
//! server in terms of requests per second (RPS) and measure response
//! latency. mutilate coordinates a large number of client threads across
//! multiple machines to generate the desired RPS load, while a separate
//! unloaded client measures latency by issuing one request at the time.
//! ... clients are permitted to pipeline up to four requests per
//! connection if needed to keep up with their target request rate."
//!
//! [`MutilateClient`] is one coordinated load thread: open-loop Poisson
//! arrivals at a per-thread target rate, spread over its connections
//! with a pipeline bound of four. [`MutilateAgent`] is the unloaded
//! latency sampler. Both feed a shared [`LoadStats`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_mempool::Blocks;
use ix_sim::{Histogram, Nanos, SimRng, Simulator};
use ix_testkit::Bytes;

use crate::workload::{proto, Workload};

/// Requests a load thread may have outstanding on one connection (the
/// paper: four).
const PIPELINE: usize = 4;
/// Arrivals a load thread queues for pipeline capacity; later ones are
/// shed.
const BACKLOG_CAP: usize = 4096;
/// The agent's pause between latency samples.
const AGENT_GAP_NS: u64 = 50_000;

/// Per-window latency series — the time-resolved view the elastic
/// controller experiments need (a single whole-run histogram hides
/// exactly the transient the spike is about).
#[derive(Debug)]
pub struct LoadSeries {
    /// Series start (virtual time).
    pub start_ns: u64,
    /// Window width.
    pub window_ns: u64,
    /// One open-loop latency histogram per window.
    pub windows: Vec<Histogram>,
    /// Completions per window.
    pub counts: Vec<u64>,
}

impl LoadSeries {
    fn record(&mut self, now_ns: u64, latency_ns: u64) {
        if now_ns < self.start_ns {
            return;
        }
        let idx = ((now_ns - self.start_ns) / self.window_ns) as usize;
        if let Some(h) = self.windows.get_mut(idx) {
            h.record(Nanos(latency_ns));
            self.counts[idx] += 1;
        }
    }
}

/// Shared measurement sink for a memcached experiment.
#[derive(Debug)]
pub struct LoadStats {
    /// Latency across all load-generator requests (windowed).
    pub latency: Histogram,
    /// Wire+server portion only (issue to response), for diagnostics.
    pub net_latency: Histogram,
    /// Latency from the unloaded agent (windowed) — the paper's
    /// reported metric.
    pub agent_latency: Histogram,
    /// Requests completed inside the window.
    pub completed: u64,
    /// Requests completed overall.
    pub completed_total: u64,
    /// Requests dropped because the client backlog exceeded its bound
    /// (the generator has fallen hopelessly behind its target).
    pub shed: u64,
    /// Measurement window start.
    pub window_start_ns: u64,
    /// Measurement window end.
    pub window_end_ns: u64,
    /// Optional per-window latency series (off by default; enabling it
    /// changes no RNG draw and no packet, only bookkeeping).
    pub series: Option<LoadSeries>,
}

impl LoadStats {
    /// Creates a sink for the given measurement window.
    pub fn new(window_start_ns: u64, window_end_ns: u64) -> Rc<RefCell<LoadStats>> {
        Rc::new(RefCell::new(LoadStats {
            latency: Histogram::new(),
            net_latency: Histogram::new(),
            agent_latency: Histogram::new(),
            completed: 0,
            completed_total: 0,
            shed: 0,
            window_start_ns,
            window_end_ns,
            series: None,
        }))
    }

    /// Turns on the per-window latency series covering
    /// `[start_ns, end_ns)` in `window_ns` slices.
    pub fn enable_series(&mut self, start_ns: u64, end_ns: u64, window_ns: u64) {
        let n = (end_ns.saturating_sub(start_ns)).div_ceil(window_ns) as usize;
        self.series = Some(LoadSeries {
            start_ns,
            window_ns,
            windows: (0..n).map(|_| Histogram::new()).collect(),
            counts: vec![0; n],
        });
    }

    fn in_window(&self, now_ns: u64) -> bool {
        now_ns >= self.window_start_ns && now_ns < self.window_end_ns
    }
}

/// An in-flight request awaiting its response on a connection.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    seq: u64,
    /// Arrival time of the *intent* (for open-loop latency accounting,
    /// which includes client-side queueing).
    arrived_at: u64,
    /// When the request was actually written to the connection.
    issued_at: u64,
}

#[derive(Debug, Default)]
struct ConnIo {
    rx: Vec<u8>,
    fifo: VecDeque<Outstanding>,
    /// libix cookie, filled at on_connected.
    cookie: u64,
}

/// Draws the next operation and writes its request, numbered `seq`, in
/// place into one of `blocks`: the key from the key index, a SET's
/// value as filler (a GET names the length it expects and sends none).
pub fn build_request(
    blocks: &mut Blocks,
    workload: &Workload,
    rng: &mut SimRng,
    seq: u64,
) -> Bytes {
    let op = workload.next_op(rng);
    let opcode = if op.is_get { proto::OP_GET } else { proto::OP_SET };
    blocks.build(proto::request_len(opcode, op.key_len, op.val_len), |buf| {
        let (key, val) = proto::write_request(buf, opcode, seq, op.key_len, op.val_len);
        Workload::write_key(op.key, key);
        val.fill(b'w');
    })
}

/// One coordinated load-generation thread.
pub struct MutilateClient {
    server: ix_net::Ipv4Addr,
    port: u16,
    /// Connections this thread maintains.
    pub conns: usize,
    /// Target request rate for this thread, requests/second.
    pub rate_rps: f64,
    workload: Workload,
    rng: SimRng,
    stats: Rc<RefCell<LoadStats>>,
    /// Request blocks, written in place and lent to TCP until acked.
    blocks: Blocks,
    /// Per-connection state, indexed by `Conn::user` (dense: this
    /// thread numbers its connections `0..conns`).
    io: Vec<ConnIo>,
    ready: Vec<u64>,
    rr: usize,
    opened: usize,
    next_seq: u64,
    next_arrival_ns: u64,
    /// Arrivals waiting for pipeline capacity.
    backlog: VecDeque<u64>,
    started: bool,
    /// Stop issuing at this time.
    pub stop_at_ns: u64,
    /// MMPP burst modulation: while the shared flag is set, arrivals
    /// come at the second element's rate instead of `rate_rps`. One
    /// flag drives the whole fleet so a spike hits every client in the
    /// same virtual instant. `None` leaves the arrival process (and its
    /// RNG draw sequence) exactly as before.
    pub burst: Option<(Rc<Cell<bool>>, f64)>,
}

impl MutilateClient {
    /// Creates a load thread.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        server: ix_net::Ipv4Addr,
        port: u16,
        conns: usize,
        rate_rps: f64,
        workload: Workload,
        rng: SimRng,
        stats: Rc<RefCell<LoadStats>>,
    ) -> MutilateClient {
        MutilateClient {
            server,
            port,
            conns,
            rate_rps,
            workload,
            rng,
            stats,
            blocks: Blocks::new(),
            io: Vec::new(),
            ready: Vec::new(),
            rr: 0,
            opened: 0,
            next_seq: 1,
            next_arrival_ns: 0,
            backlog: VecDeque::new(),
            started: false,
            stop_at_ns: u64::MAX,
            burst: None,
        }
    }

    /// The pool this thread's requests are built in.
    pub fn blocks(&self) -> &Blocks {
        &self.blocks
    }

    /// Drains the backlog onto connections with pipeline capacity,
    /// round-robin; `write` sends bytes to a cookie.
    fn drain_backlog(&mut self, now_ns: u64, mut write: impl FnMut(u64, Bytes)) {
        if self.ready.is_empty() {
            return;
        }
        'outer: while let Some(&arrived) = self.backlog.front() {
            // Find a connection with room, starting at the RR cursor.
            for probe in 0..self.ready.len() {
                let idx = (self.rr + probe) % self.ready.len();
                let io = &mut self.io[self.ready[idx] as usize];
                if io.fifo.len() < PIPELINE {
                    self.rr = (idx + 1) % self.ready.len();
                    self.backlog.pop_front();
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    io.fifo.push_back(Outstanding { seq, arrived_at: arrived, issued_at: now_ns });
                    let req = build_request(&mut self.blocks, &self.workload, &mut self.rng, seq);
                    write(io.cookie, req);
                    continue 'outer;
                }
            }
            break; // Everything is pipeline-full.
        }
    }
}

impl LibixHandler for MutilateClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            // Let the connection ramp complete before the open loop
            // starts (mutilate's own warmup behaviour).
            self.next_arrival_ns = ctx.now_ns
                + 2_000_000
                + self.rng.exponential(1e9 / self.rate_rps.max(1.0)) as u64;
            self.io.resize_with(self.conns, ConnIo::default);
            for user in 0..self.conns as u64 {
                ctx.connect(self.server, self.port, user);
                self.opened += 1;
            }
        }
        // Open-loop arrivals since the last tick. The modulating state
        // (MMPP) is read per arrival: a flag flip mid-backlog changes
        // the rate of every gap drawn after it.
        while self.next_arrival_ns <= ctx.now_ns && ctx.now_ns < self.stop_at_ns {
            let rate = match &self.burst {
                Some((flag, hi_rps)) if flag.get() => *hi_rps,
                _ => self.rate_rps,
            };
            let gap = self.rng.exponential(1e9 / rate.max(1.0)) as u64;
            let arrived = self.next_arrival_ns;
            self.next_arrival_ns += gap.max(1);
            if self.backlog.len() >= BACKLOG_CAP {
                self.stats.borrow_mut().shed += 1;
                continue;
            }
            self.backlog.push_back(arrived);
        }
        // Issue onto idle connections right away (open loop).
        ctx.charge(120);
        let now = ctx.now_ns;
        self.drain_backlog(now, |cookie, req| ctx.write_to(cookie, req));
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "mutilate connect failed");
        self.ready.push(ctx.conn.user);
        self.io[ctx.conn.user as usize].cookie = ctx.conn.cookie;
        let me = ctx.conn.cookie;
        let now = ctx.now_ns;
        self.drain_backlog(now, |cookie, req| {
            if cookie == me {
                // Writing to the own conn directly avoids a deferred
                // action round trip.
                ctx.write(req);
            } else {
                ctx.write_to(cookie, req);
            }
        });
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        let user = ctx.conn.user;
        let now = ctx.now_ns;
        let Some(io) = self.io.get_mut(user as usize) else { return };
        // Contiguous fast path: nothing buffered for this connection, so
        // responses parse directly from the delivered view — in place,
        // zero staging copies. Only a genuine straddle spills into the
        // per-connection reassembly buffer.
        let spilled = !io.rx.is_empty();
        if spilled {
            io.rx.extend_from_slice(data);
        }
        let mut consumed = 0usize;
        let mut completed = 0u32;
        loop {
            let (seq, total) = {
                let rest = if spilled { &io.rx[consumed..] } else { &data[consumed..] };
                let Some(h) = proto::decode_response_header(rest) else { break };
                if rest.len() < h.total_len() {
                    break;
                }
                (h.seq, h.total_len())
            };
            let out = io.fifo.pop_front().expect("response matches a request");
            debug_assert_eq!(out.seq, seq, "responses must be in order");
            consumed += total;
            completed += 1;
            let mut st = self.stats.borrow_mut();
            st.completed_total += 1;
            // Gate on the request's arrival instant so ramp-up backlogs
            // cannot leak giant latencies into the window.
            if st.in_window(out.arrived_at) {
                st.completed += 1;
                // Open-loop latency includes client-side queueing.
                st.latency.record(ix_sim::Nanos(now - out.arrived_at));
                st.net_latency.record(ix_sim::Nanos(now - out.issued_at));
            }
            if let Some(series) = st.series.as_mut() {
                series.record(now, now - out.arrived_at);
            }
        }
        if spilled {
            if consumed > 0 {
                io.rx.drain(..consumed);
            }
        } else if consumed < data.len() {
            io.rx.extend_from_slice(&data[consumed..]);
        }
        ctx.charge(250 * completed as u64);
        // Capacity freed: pull from the backlog.
        let me = ctx.conn.cookie;
        let now2 = ctx.now_ns;
        self.drain_backlog(now2, |cookie, req| {
            if cookie == me {
                ctx.write(req);
            } else {
                ctx.write_to(cookie, req);
            }
        });
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: ix_tcp::DeadReason) {
        panic!("mutilate connection died mid-run: {reason:?} (user {})", ctx.conn.user);
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        !self.started || (self.next_arrival_ns <= now_ns && now_ns < self.stop_at_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        if self.started && self.next_arrival_ns < self.stop_at_ns {
            Some(self.next_arrival_ns)
        } else {
            None
        }
    }
}

/// The unloaded latency-measuring client: one connection, one request
/// outstanding at a time, paced slowly.
pub struct MutilateAgent {
    server: ix_net::Ipv4Addr,
    port: u16,
    workload: Workload,
    rng: SimRng,
    stats: Rc<RefCell<LoadStats>>,
    /// Request blocks, written in place and lent to TCP until acked.
    blocks: Blocks,
    started: bool,
    rx: Vec<u8>,
    sent_at: u64,
    next_fire_ns: u64,
    awaiting: Option<u64>,
    next_seq: u64,
    cookie: Option<u64>,
    /// Stop sampling at this time.
    pub stop_at_ns: u64,
}

impl MutilateAgent {
    /// Creates the sampling agent.
    pub fn new(
        server: ix_net::Ipv4Addr,
        port: u16,
        workload: Workload,
        rng: SimRng,
        stats: Rc<RefCell<LoadStats>>,
    ) -> MutilateAgent {
        MutilateAgent {
            server,
            port,
            workload,
            rng,
            stats,
            blocks: Blocks::new(),
            started: false,
            rx: Vec::new(),
            sent_at: 0,
            next_fire_ns: 0,
            awaiting: None,
            next_seq: 1,
            cookie: None,
            stop_at_ns: u64::MAX,
        }
    }

    /// Builds the next request and marks it outstanding.
    fn build_request(&mut self, now_ns: u64) -> Bytes {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at = now_ns;
        self.awaiting = Some(seq);
        build_request(&mut self.blocks, &self.workload, &mut self.rng, seq)
    }
}

impl LibixHandler for MutilateAgent {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, self.port, 0);
            return;
        }
        // Timer-paced sampling between responses.
        if let Some(cookie) = self.cookie {
            if self.awaiting.is_none() && self.next_fire_ns <= ctx.now_ns && ctx.now_ns < self.stop_at_ns
            {
                let req = self.build_request(ctx.now_ns);
                ctx.write_to(cookie, req);
            }
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok, "agent connect failed");
        self.cookie = Some(ctx.conn.cookie);
        let req = self.build_request(ctx.now_ns);
        ctx.write(req);
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        // Contiguous fast path: the agent keeps one request in flight, so
        // the response almost always arrives whole — parse the delivered
        // view in place; only a genuine straddle spills into `rx`.
        let seq = if self.rx.is_empty() {
            match proto::decode_response_header(data) {
                Some(h) if data.len() >= h.total_len() => {
                    if data.len() > h.total_len() {
                        self.rx.extend_from_slice(&data[h.total_len()..]);
                    }
                    h.seq
                }
                _ => {
                    self.rx.extend_from_slice(data);
                    return;
                }
            }
        } else {
            self.rx.extend_from_slice(data);
            let Some(h) = proto::decode_response_header(&self.rx) else { return };
            if self.rx.len() < h.total_len() {
                return;
            }
            self.rx.drain(..h.total_len());
            h.seq
        };
        debug_assert_eq!(Some(seq), self.awaiting);
        self.awaiting = None;
        let now = ctx.now_ns;
        {
            let mut st = self.stats.borrow_mut();
            if st.in_window(now) {
                st.agent_latency.record(ix_sim::Nanos(now - self.sent_at));
            }
        }
        if now < self.stop_at_ns {
            // Pause, then sample again from on_tick at the deadline.
            self.next_fire_ns = now + AGENT_GAP_NS;
        }
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        !self.started
            || (self.awaiting.is_none() && self.next_fire_ns <= now_ns && now_ns < self.stop_at_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        if self.started && self.awaiting.is_none() && self.next_fire_ns < self.stop_at_ns {
            Some(self.next_fire_ns)
        } else {
            None
        }
    }
}

/// Transition log of an MMPP modulator: `(virtual time, burst on)`.
pub type MmppLog = Rc<RefCell<Vec<(u64, bool)>>>;

/// Drives the two-state MMPP modulation of a mutilate fleet: the shared
/// `flag` turns on at `start_ns`, stays up for an exponential dwell of
/// mean `mean_on_ns`, drops for an exponential dwell of mean
/// `mean_off_ns`, and repeats until `stop_ns` (where it is forced off).
/// All clients sharing the flag switch rates in the same virtual
/// instant — the fleet-wide load spike. The FIRST on/off cycle is
/// pinned to exactly its means (not sampled) so a time-to-absorb metric
/// is always measured against a full-length spike followed by a real
/// calm interval; an exponential draw can land at a few thousandths of
/// the mean and leave nothing to absorb (or no calm to consolidate in).
/// Later dwells are exponential. Returns the transition log.
pub fn start_mmpp(
    sim: &mut Simulator,
    flag: Rc<Cell<bool>>,
    rng: SimRng,
    start_ns: u64,
    mean_on_ns: u64,
    mean_off_ns: u64,
    stop_ns: u64,
) -> MmppLog {
    struct Mmpp {
        flag: Rc<Cell<bool>>,
        rng: SimRng,
        mean_on_ns: u64,
        mean_off_ns: u64,
        stop_ns: u64,
        pinned: u8,
        log: MmppLog,
    }
    fn flip(sim: &mut Simulator, mut m: Mmpp, on: bool) {
        let now = sim.now().as_nanos();
        if now >= m.stop_ns {
            if m.flag.get() {
                m.flag.set(false);
                m.log.borrow_mut().push((now, false));
            }
            return;
        }
        m.flag.set(on);
        m.log.borrow_mut().push((now, on));
        let mean = if on { m.mean_on_ns } else { m.mean_off_ns };
        let dwell = if m.pinned > 0 {
            m.pinned -= 1;
            mean
        } else {
            m.rng.exponential(mean as f64) as u64
        }
        .clamp(1, m.stop_ns - now);
        sim.schedule_in(Nanos(dwell), move |sim| flip(sim, m, !on));
    }
    let log: MmppLog = Rc::new(RefCell::new(Vec::new()));
    let m = Mmpp {
        flag,
        rng,
        mean_on_ns,
        mean_off_ns,
        stop_ns,
        pinned: 2,
        log: log.clone(),
    };
    sim.schedule_in(Nanos(start_ns), move |sim| flip(sim, m, true));
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_window() {
        let st = LoadStats::new(100, 200);
        assert!(!st.borrow().in_window(50));
        assert!(st.borrow().in_window(150));
        assert!(!st.borrow().in_window(200));
    }

    #[test]
    fn outstanding_fifo_order() {
        let mut io = ConnIo::default();
        io.fifo.push_back(Outstanding { seq: 1, arrived_at: 0, issued_at: 0 });
        io.fifo.push_back(Outstanding { seq: 2, arrived_at: 0, issued_at: 0 });
        assert_eq!(io.fifo.pop_front().unwrap().seq, 1);
        assert_eq!(io.fifo.pop_front().unwrap().seq, 2);
    }
}
