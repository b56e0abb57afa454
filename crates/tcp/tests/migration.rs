//! Flow-group migration correctness (§4.4) — the property and golden
//! suites behind the elastic control loop.
//!
//! A client shard talks to a two-shard server "host"; a routing switch
//! models the NIC redirection table, delivering each client frame to the
//! shard that currently owns the flow. Tests migrate the flow between
//! the server shards mid-transfer — with retransmit queues, held receive
//! buffers, out-of-order segments, and armed timers in flight — and
//! assert the transfer is indistinguishable from one that never
//! migrated: zero resets, zero payload divergence, zero leaked pool
//! mbufs.

use std::cell::Cell;
use std::rc::Rc;

pub mod common;

use common::{events, mac, outbound, Wire, A_IP, B_IP};
use ix_mempool::Mbuf;
use ix_net::rss::RSS_BUCKETS;
use ix_tcp::{AckPolicy, DeadReason, FlowId, StackConfig, StackStats, TcpEvent, TcpShard};
use ix_testkit::prelude::*;
use ix_testkit::Bytes;

/// One client shard + a two-shard server host behind a redirection
/// "switch": frames to the server land on whichever shard currently
/// owns the flow group (the drain-then-reprogram protocol of
/// `set_active_threads` means in-flight frames follow the new table).
struct Cluster {
    c: TcpShard,
    s: [TcpShard; 2],
    owner: usize,
    now: u64,
    /// Drop every server->client frame while set (scripted blackouts).
    cut_s2c: Rc<Cell<bool>>,
    /// Drop every client->server frame while set.
    cut_c2s: Rc<Cell<bool>>,
}

impl Cluster {
    fn new(ccfg: StackConfig, scfg: StackConfig) -> Cluster {
        let mut c = TcpShard::new(ccfg, A_IP, mac(1));
        let mut s0 = TcpShard::new(scfg.clone(), B_IP, mac(2));
        let mut s1 = TcpShard::new(scfg, B_IP, mac(2));
        c.arp_seed(B_IP, mac(2));
        s0.arp_seed(A_IP, mac(1));
        s1.arp_seed(A_IP, mac(1));
        s0.listen(80);
        s1.listen(80);
        Cluster {
            c,
            s: [s0, s1],
            owner: 0,
            now: 0,
            cut_s2c: Rc::new(Cell::new(false)),
            cut_c2s: Rc::new(Cell::new(false)),
        }
    }

    /// Moves the flow group to the other server shard — the §4.4
    /// extract/absorb pair the control plane drives.
    fn migrate(&mut self) {
        let from = self.owner;
        let to = 1 - from;
        let mut flows = Vec::new();
        (0..RSS_BUCKETS as u16).for_each(|b| self.s[from].extract_bucket_into(b, &mut flows));
        self.s[to].absorb_flows(self.now, flows);
        self.owner = to;
    }

    /// One clean pump round: advance time, move frames, run cycle ends
    /// and timers on every shard.
    fn pump_round(&mut self, step_ns: u64) {
        self.now += step_ns;
        let from_c = outbound(&mut self.c);
        let from_s0 = outbound(&mut self.s[0]);
        let from_s1 = outbound(&mut self.s[1]);
        for f in from_c {
            if !self.cut_c2s.get() {
                self.s[self.owner].input(self.now, f);
            }
        }
        for f in from_s0.into_iter().chain(from_s1) {
            if !self.cut_s2c.get() {
                self.c.input(self.now, f);
            }
        }
        let now = self.now;
        self.c.end_cycle(now);
        self.s[0].end_cycle(now);
        self.s[1].end_cycle(now);
        self.c.advance_timers(now);
        self.s[0].advance_timers(now);
        self.s[1].advance_timers(now);
    }

    /// Pumps until idle (bounded), like [`common::Pair::pump`].
    fn pump(&mut self, step_ns: u64, max_rounds: usize) {
        for _ in 0..max_rounds {
            self.pump_round(step_ns);
            if self.c.tx_len() == 0 && self.s[0].tx_len() == 0 && self.s[1].tx_len() == 0 {
                break;
            }
        }
    }

    fn establish(&mut self) -> (FlowId, FlowId) {
        let cf = self.c.connect(self.now, B_IP, 80, 0xC).expect("connect");
        self.pump(100_000, 64);
        let mut ok = false;
        for e in events(&mut self.c) {
            if let TcpEvent::Connected { ok: o, .. } = e {
                ok = o;
            }
        }
        assert!(ok, "handshake failed");
        let mut sf = None;
        for e in events(&mut self.s[self.owner]) {
            if let TcpEvent::Knock { flow, .. } = e {
                self.s[self.owner].accept(flow, 0x5).unwrap();
                sf = Some(flow);
            }
        }
        (cf, sf.expect("knock"))
    }

    fn summed_stats(&self) -> StackStats {
        let mut sum = StackStats::default();
        sum.absorb(&self.s[0].stats);
        sum.absorb(&self.s[1].stats);
        sum
    }
}

fn low_lat_cfg() -> StackConfig {
    StackConfig {
        syn_rto_ns: 1_000_000,
        ..StackConfig::low_latency()
    }
}

// ---------------------------------------------------------------------
// Satellite: persist-timer migration. Pre-fix, `absorb_flows` silently
// dropped an armed zero-window probe timer — a migrated flow whose
// window-update ACK was lost then deadlocked forever.
// ---------------------------------------------------------------------

#[test]
fn persist_timer_rearms_on_destination_shard() {
    let mut cl = Cluster::new(low_lat_cfg(), low_lat_cfg());
    let (cf, sf) = cl.establish();

    // Server floods until the client's 64 KiB window is full; the client
    // application credits nothing, so the advertised window closes and
    // the server's persist timer arms.
    let blob = Bytes::from(vec![0x7u8; 1460]);
    let mut pushed = 0usize;
    for _ in 0..200 {
        if let Ok(n) = cl.s[cl.owner].send_bytes(cl.now, sf, &blob) {
            pushed += n;
        }
        cl.pump_round(100_000);
    }
    cl.pump(100_000, 256);
    assert!(pushed >= 65_535, "window never filled ({pushed})");
    // Hold the delivered payloads alive like a slow application would.
    let mut held: Vec<ix_testkit::Bytes> = Vec::new();
    let mut got = 0usize;
    for e in events(&mut cl.c) {
        if let TcpEvent::Recv { payload, .. } = e {
            got += payload.len();
            held.push(payload);
        }
    }
    assert!(got >= 65_000, "client should have a full window buffered ({got})");

    // Migrate while the persist timer is armed, then lose the window
    // update: the client credits everything while the wire is cut, so
    // the reopening ACK never arrives. Only a zero-window probe — fired
    // from the *destination* wheel — can discover the open window.
    cl.migrate();
    cl.cut_s2c.set(true); // ACK-only direction is irrelevant here…
    cl.cut_c2s.set(true); // …the credit-driven window update is this way.
    held.clear();
    cl.c.recv_done(cl.now, cf, got as u32).unwrap();
    cl.pump(100_000, 8);
    cl.cut_c2s.set(false);
    cl.cut_s2c.set(false);

    // Default persist interval is 200 ms; run 600 ms of probes.
    for _ in 0..6_000 {
        cl.pump_round(100_000);
        if events(&mut cl.c).iter().any(|e| matches!(e, TcpEvent::Recv { .. })) {
            break;
        }
    }
    assert!(
        cl.s[cl.owner].stats.persist_probes >= 1,
        "destination shard never probed the zero window"
    );
    assert_eq!(cl.s[1 - cl.owner].stats.persist_probes, 0);
    // Probe answered -> window rediscovered -> the stream moves again.
    let before = cl.c.stats.bytes_rx;
    if let Ok(n) = cl.s[cl.owner].send_bytes(cl.now, sf, &blob) {
        assert!(n > 0, "send window still closed after probe");
    }
    cl.pump(100_000, 256);
    assert!(cl.c.stats.bytes_rx > before, "stream did not resume after probe");
}

// ---------------------------------------------------------------------
// Satellite: delayed-ACK migration. Pre-fix the armed delack timer was
// dropped, so the ACK waited for the peer's RTO retransmission.
// ---------------------------------------------------------------------

#[test]
fn delack_timer_rearms_on_destination_shard() {
    // Server shards model a delayed-ACK stack (the Linux/mTCP profile).
    // The client keeps the default 200 ms RTO floor so the 40 ms delack
    // is the *only* thing that can acknowledge within the observation
    // window — a dropped timer shows up as an RTO retransmission.
    let scfg = StackConfig {
        ack_policy: AckPolicy::Delayed(40_000_000),
        ..StackConfig::default()
    };
    let mut cl = Cluster::new(StackConfig::default(), scfg);
    let (cf, sf) = cl.establish();
    let _ = (cf, sf);

    // One lone segment arms the delayed-ACK timer (first-segment branch).
    cl.c.send_bytes(cl.now, cf, &Bytes::from(vec![0x42u8; 100])).unwrap();
    cl.pump_round(1_000);
    cl.pump_round(1_000);
    assert_eq!(cl.s[cl.owner].stats.bytes_rx, 100);

    // Migrate with the delack pending, then just let time pass: the
    // destination wheel must emit the ACK. The client's RTO (1 ms floor)
    // would eventually force it, so the discriminating assertion is that
    // zero retransmissions were needed.
    cl.migrate();
    for _ in 0..600 {
        cl.pump_round(100_000); // 60 ms >> the 40 ms delack.
    }
    assert_eq!(cl.c.stats.retransmits, 0, "ACK was recovered only by RTO");
    assert_eq!(cl.c.stats.rto_fires, 0);
    let snd_acked = events(&mut cl.c)
        .iter()
        .filter_map(|e| match e {
            TcpEvent::Sent { bytes_acked, .. } => Some(*bytes_acked as usize),
            _ => None,
        })
        .sum::<usize>();
    assert_eq!(snd_acked, 100, "delayed ACK never arrived from the destination shard");
}

// ---------------------------------------------------------------------
// Satellite: StackStats / gauge conservation. Summed over the shards,
// nothing changes when flows move — counters stay with the shard that
// counted them, gauges follow their flows.
// ---------------------------------------------------------------------

#[test]
fn stats_and_gauges_conserve_across_migration() {
    let scfg = StackConfig {
        syn_backlog: 1,
        ..low_lat_cfg()
    };
    let mut cl = Cluster::new(low_lat_cfg(), scfg);
    let (cf, _sf) = cl.establish();

    // Uncredited in-order data: the server holds rx_held buffers.
    cl.c.send_bytes(cl.now, cf, &Bytes::from(vec![0x11u8; 2000])).unwrap();
    cl.pump(100_000, 16);
    // An out-of-order segment: drop one frame, pass the next.
    cl.cut_c2s.set(true);
    cl.c.send_bytes(cl.now, cf, &Bytes::from(vec![0x22u8; 1000])).unwrap();
    cl.pump_round(1_000);
    cl.cut_c2s.set(false);
    cl.c.send_bytes(cl.now, cf, &Bytes::from(vec![0x33u8; 1000])).unwrap();
    cl.pump_round(1_000);
    cl.pump_round(1_000);

    // Half-open backlog: cut the return path so a second connection's
    // SYN-ACK is lost (the server parks in SynRcvd), and a third SYN
    // overflows the one-deep backlog.
    cl.cut_s2c.set(true);
    cl.c.connect(cl.now, B_IP, 80, 0xB1).unwrap();
    cl.pump_round(1_000);
    cl.c.connect(cl.now, B_IP, 80, 0xB2).unwrap();
    cl.pump_round(1_000);

    let shard_stats = cl.summed_stats();
    let synrcvd: usize = cl.s.iter().map(|s| s.synrcvd_len()).sum();
    let flows: usize = cl.s.iter().map(|s| s.flow_count()).sum();
    assert!(shard_stats.rx_pool_outstanding > 0, "no held buffers to migrate");
    assert_eq!(synrcvd, 1);
    assert_eq!(shard_stats.synrcvd_overflow_drops, 1);

    // Migrate everything, twice (there and back), checking the sums
    // after each hop.
    for _ in 0..2 {
        cl.migrate();
        assert_eq!(cl.summed_stats(), shard_stats, "summed counters drifted");
        let after: usize = cl.s.iter().map(|s| s.synrcvd_len()).sum();
        assert_eq!(after, synrcvd, "SynRcvd gauge drifted");
        let f: usize = cl.s.iter().map(|s| s.flow_count()).sum();
        assert_eq!(f, flows, "flow count drifted");
    }
    // And the source shard is really empty.
    assert_eq!(cl.s[1 - cl.owner].flow_count(), 0);
    assert_eq!(cl.s[1 - cl.owner].synrcvd_len(), 0);
    assert_eq!(cl.s[1 - cl.owner].stats.rx_pool_outstanding, 0);
}

// ---------------------------------------------------------------------
// Lent storage (DESIGN.md §13). A flow's queue buffers are on loan from
// its shard's spare stacks and its timer residuals ride in its cold
// block: both leave inside the TCB, and what was borrowed on one shard
// is handed back on the other.
// ---------------------------------------------------------------------

/// Two flows move together: A with unacknowledged data in its `rtq` (RTO
/// armed, the ACK path cut) and uncredited data in its `rx_held`; B with
/// its peer's window closed and the persist timer armed. Returns the
/// instants at which the server then retransmitted and probed.
fn loaded_flows_timeline(migrate: bool) -> Vec<(u64, &'static str)> {
    let ccfg = StackConfig { recv_window: 4096, ..low_lat_cfg() };
    let mut cl = Cluster::new(ccfg, low_lat_cfg());
    let (cfa, sfa) = cl.establish();
    let (cfb, sfb) = cl.establish();
    let blob = Bytes::from(vec![0x7u8; 1460]);

    // A: 2000 bytes in, delivered and never credited.
    cl.c.send_bytes(cl.now, cfa, &Bytes::from(vec![0x11u8; 2000])).unwrap();
    cl.pump(100_000, 16);
    // B: the server fills the client's 4 KiB window; the client credits
    // nothing, its ACK closes the window, the next send arms the probe.
    while cl.s[0].send_bytes(cl.now, sfb, &blob).unwrap() > 0 {}
    cl.pump(100_000, 16);
    assert_eq!(cl.s[0].send_bytes(cl.now, sfb, &blob).unwrap(), 0, "window still open");
    // A: 3000 bytes out with the way back cut, so they stay queued.
    cl.cut_c2s.set(true);
    assert_eq!(cl.s[0].send_bytes(cl.now, sfa, &Bytes::from(vec![0x22u8; 3000])).unwrap(), 3000);
    cl.pump_round(100_000);
    drop((events(&mut cl.c), events(&mut cl.s[0])));

    let bytes = |views: Vec<ix_testkit::Bytes>| views.concat();
    if migrate {
        let (rtq, held) = (cl.s[0].rtq_payloads(sfa), cl.s[0].rx_held_payloads(sfa));
        assert_eq!((rtq.len(), bytes(held.clone()).len()), (3, 2000));
        let source = cl.s[0].lent_queues();
        assert_eq!(source.map(|l| (l.busy, l.spare)), [(1, 1); 2], "A holds one of two buffers");
        let until_timer = cl.s[0].next_timer_ns();

        cl.migrate();

        // Same bytes in the same storage; same time to the next timer.
        let (rtq1, held1) = (cl.s[1].rtq_payloads(sfa), cl.s[1].rx_held_payloads(sfa));
        assert_eq!(bytes(rtq1.clone()), bytes(rtq.clone()));
        assert!(rtq.iter().zip(&rtq1).all(|(a, b)| a.ptr_eq(b)), "rtq storage was copied");
        assert!(held.iter().zip(&held1).all(|(a, b)| a.ptr_eq(b)), "held buffers were copied");
        assert_eq!(cl.s[1].next_timer_ns(), until_timer);
        // The buffers left inside the flow: the source's stacks are as
        // they were, the destination's are still empty.
        let source1 = cl.s[0].lent_queues();
        assert_eq!(source1.map(|l| (l.busy, l.spare, l.list)), source.map(|l| (0, l.spare, l.list)));
        assert_eq!(cl.s[1].lent_queues().map(|l| (l.busy, l.spare)), [(1, 0); 2]);
        // The held receive buffers are the client pool's, wherever the
        // flow that holds them lives (the rest of what that pool has out
        // is the ACK waiting for the cut wire).
        assert_eq!(
            cl.c.pool_stats().outstanding,
            cl.s[1].stats.rx_pool_outstanding + cl.c.tx_len() as u64
        );
        assert_eq!(cl.s[0].stats.rx_pool_outstanding, 0);
    }

    // A quarter of a second with the ACK path still cut: the RTO backs
    // off from its residual, the probe fires 200 ms after it was armed.
    let mut timeline = Vec::new();
    let mut seen = cl.summed_stats();
    for _ in 0..2_500 {
        cl.pump_round(100_000);
        let s = cl.summed_stats();
        if s.retransmits > seen.retransmits {
            timeline.push((cl.now, "retransmit"));
        }
        if s.persist_probes > seen.persist_probes {
            timeline.push((cl.now, "probe"));
        }
        seen = s;
    }

    // Everything drains: the client acknowledges and credits, the server
    // application credits A.
    cl.cut_c2s.set(false);
    cl.pump(100_000, 64);
    cl.c.recv_done(cl.now, cfa, 3000).unwrap();
    cl.c.recv_done(cl.now, cfb, 4096).unwrap();
    cl.s[cl.owner].recv_done(cl.now, sfa, 2000).unwrap();
    cl.pump(100_000, 64);
    drop((events(&mut cl.c), events(&mut cl.s[0]), events(&mut cl.s[1])));
    if migrate {
        // Borrowed on shard 0, handed back on shard 1 — which has made
        // no buffer of its own.
        assert_eq!(cl.s[1].lent_queues().map(|l| (l.busy, l.idle_capacity, l.spare)), [(0, 0, 1); 2]);
    }
    for (who, shard) in [("client", &cl.c), ("shard 0", &cl.s[0]), ("shard 1", &cl.s[1])] {
        let pool = shard.pool_stats();
        assert_eq!(pool.outstanding, 0, "{who} leaked mbufs: {pool:?}");
    }
    assert_eq!(cl.summed_stats().rx_pool_outstanding, 0);
    timeline
}

#[test]
fn borrowed_buffers_and_timer_residuals_travel_with_the_flow() {
    let moved = loaded_flows_timeline(true);
    assert!(moved.iter().filter(|e| e.1 == "retransmit").count() >= 5, "{moved:?}");
    assert_eq!(moved.iter().filter(|e| e.1 == "probe").count(), 1, "{moved:?}");
    // Same residual delays: to the tick, what never migrating does.
    assert_eq!(moved, loaded_flows_timeline(false));
}

// ---------------------------------------------------------------------
// Golden migration trace: a scripted blackout forces an RTO across a
// migration; the exact recovery sequence — who fires, when, and how the
// stream completes — is pinned.
// ---------------------------------------------------------------------

#[test]
fn golden_rto_sequence_across_migration() {
    let mut cl = Cluster::new(low_lat_cfg(), low_lat_cfg());
    let (_cf, sf) = cl.establish();
    let mut trace: Vec<String> = Vec::new();
    let t0 = cl.now;

    // Server queues two segments; the wire eats both.
    cl.cut_s2c.set(true);
    let n = cl.s[0].send_bytes(cl.now, sf, &Bytes::from(vec![0x5Au8; 2920])).unwrap();
    trace.push(format!("+{}us send {} rtq={}", (cl.now - t0) / 1_000, n, cl.s[0].rtq_payloads(sf).len()));
    cl.pump_round(100_000);
    cl.pump_round(100_000);
    cl.cut_s2c.set(false);

    // Migrate mid-recovery: the retransmit queue and the armed RTO move.
    cl.migrate();
    trace.push(format!(
        "+{}us migrate rtq={} timer={}",
        (cl.now - t0) / 1_000,
        cl.s[1].rtq_payloads(sf).len(),
        cl.s[1].next_timer_ns().is_some(),
    ));

    // Observe recovery round by round.
    let (mut rto1, mut retx1) = (0u64, 0u64);
    let mut got = 0usize;
    for _ in 0..200 {
        cl.pump_round(100_000);
        let s = &cl.s[1].stats;
        if s.rto_fires > rto1 {
            rto1 = s.rto_fires;
            trace.push(format!("+{}us rto_fire#{} on dst", (cl.now - t0) / 1_000, rto1));
        }
        if s.retransmits > retx1 {
            retx1 = s.retransmits;
            trace.push(format!("+{}us retransmit#{} on dst", (cl.now - t0) / 1_000, retx1));
        }
        for e in events(&mut cl.c) {
            if let TcpEvent::Recv { payload, .. } = e {
                got += payload.len();
            }
        }
        if got == 2920 {
            trace.push(format!("+{}us client complete {}", (cl.now - t0) / 1_000, got));
            break;
        }
    }
    // The source shard saw none of the recovery.
    assert_eq!(cl.s[0].stats.rto_fires, 0);
    assert_eq!(cl.s[0].stats.retransmits, 0);

    // Pinned: the RTO re-arms at its full interval from the absorb
    // instant (+200 µs), so the first fire lands one wheel tick past
    // +200 µs + rto_ns; NewReno's cwnd collapse means the two segments
    // recover through two RTO cycles, and the stream completes right
    // after the second retransmission round-trips.
    let expected = vec![
        "+0us send 2920 rtq=2".to_string(),
        "+200us migrate rtq=2 timer=true".to_string(),
        "+1000us rto_fire#1 on dst".to_string(),
        "+1000us retransmit#1 on dst".to_string(),
        "+3100us rto_fire#2 on dst".to_string(),
        "+3100us retransmit#2 on dst".to_string(),
        "+3200us client complete 2920".to_string(),
    ];
    assert_eq!(trace, expected);
}

// ---------------------------------------------------------------------
// Differential property: migrate mid-transfer vs never migrate, over a
// hostile wire, with concurrent streams in both directions. Both runs
// must deliver identical byte streams with zero resets and zero leaked
// pool mbufs.
// ---------------------------------------------------------------------

struct TransferOutcome {
    c2s: Vec<u8>,
    s2c: Vec<u8>,
    resets: u64,
    abnormal_deaths: usize,
    leaked_mbufs: u64,
    migrations: usize,
}

fn run_transfer(
    c2s_data: &Bytes,
    s2c_data: &Bytes,
    seed: u64,
    drop_pct: u64,
    migrate_every: Option<usize>,
) -> TransferOutcome {
    let mut cl = Cluster::new(low_lat_cfg(), low_lat_cfg());
    let (cf, sf) = cl.establish();
    let mut wire = Wire { seed, drop_pct, dup_pct: 8, delay_pct: 12, counter: 0 };
    let mut holding: Vec<(bool, Mbuf)> = Vec::new();

    let mut c_sent = 0usize;
    let mut s_sent = 0usize;
    let mut c2s = Vec::new();
    let mut s2c = Vec::new();
    let mut abnormal_deaths = 0usize;
    let mut migrations = 0usize;
    let mut c_closed = false;
    let mut c_dead = false;
    let mut s_dead = false;

    let mut rounds = 0usize;
    let max_rounds = 120_000;
    while rounds < max_rounds {
        rounds += 1;
        cl.now += 100_000;
        let now = cl.now;

        if let Some(k) = migrate_every {
            // Round 1 always migrates so even transfers short enough to
            // finish before the first period still move once.
            if (rounds == 1 || rounds.is_multiple_of(k)) && !s_dead {
                cl.migrate();
                migrations += 1;
            }
        }

        // Wire: route every frame through drop/dup/delay, then deliver
        // to the flow's *current* owner.
        let mut moving: Vec<(bool, Mbuf)> = std::mem::take(&mut holding);
        moving.extend(outbound(&mut cl.c).into_iter().map(|f| (true, f)));
        moving.extend(outbound(&mut cl.s[0]).into_iter().map(|f| (false, f)));
        moving.extend(outbound(&mut cl.s[1]).into_iter().map(|f| (false, f)));
        for (to_s, f) in moving {
            let (drop, dup, delay) = wire.decide();
            if drop {
                continue;
            }
            if delay {
                holding.push((to_s, f));
                continue;
            }
            if dup {
                let c = f.clone();
                if to_s {
                    cl.s[cl.owner].input(now, c);
                } else {
                    cl.c.input(now, c);
                }
            }
            if to_s {
                cl.s[cl.owner].input(now, f);
            } else {
                cl.c.input(now, f);
            }
        }

        // Applications: both sides consume immediately; the test body is
        // the data source on both sides, so migration never strands
        // app-level state.
        for e in events(&mut cl.c) {
            match e {
                TcpEvent::Recv { payload, .. } => {
                    s2c.extend_from_slice(&payload[..]);
                    let n = payload.len() as u32;
                    drop(payload);
                    cl.c.recv_done(now, cf, n).unwrap();
                }
                TcpEvent::Dead { reason, .. } => {
                    if !matches!(reason, DeadReason::PeerFin | DeadReason::LocalClose) {
                        abnormal_deaths += 1;
                    }
                    c_dead = true;
                }
                _ => {}
            }
        }
        for si in 0..2 {
            for e in events(&mut cl.s[si]) {
                match e {
                    TcpEvent::Recv { payload, .. } => {
                        c2s.extend_from_slice(&payload[..]);
                        let n = payload.len() as u32;
                        drop(payload);
                        cl.s[si].recv_done(now, sf, n).unwrap();
                    }
                    TcpEvent::Dead { reason, .. } => {
                        if !matches!(reason, DeadReason::PeerFin | DeadReason::LocalClose) {
                            abnormal_deaths += 1;
                        }
                        // Half-close: the peer finished sending; close
                        // our side once our stream is fully pushed.
                        s_dead = true;
                    }
                    _ => {}
                }
            }
        }

        // Senders push as windows allow.
        if c_sent < c2s_data.len() {
            if let Ok(n) = cl.c.send_bytes(now, cf, &c2s_data.slice(c_sent..)) {
                c_sent += n;
            }
        }
        if s_sent < s2c_data.len() && !s_dead {
            if let Ok(n) = cl.s[cl.owner].send_bytes(now, sf, &s2c_data.slice(s_sent..)) {
                s_sent += n;
            }
        }

        // Graceful teardown once both streams are fully delivered. The
        // hostile wire covered the transfer and every migration; the
        // close handshake runs clean so stray duplicates of torn-down
        // flows (ordinary RFC 793 RSTs, migration or not) cannot muddy
        // the zero-resets assertion.
        if !c_closed && c2s.len() == c2s_data.len() && s2c.len() == s2c_data.len() {
            wire.drop_pct = 0;
            wire.dup_pct = 0;
            wire.delay_pct = 0;
            cl.c.close(now, cf).unwrap();
            c_closed = true;
        }
        if s_dead && cl.s[cl.owner].flow_count() > 0 {
            // Ignore BadState if the close raced a prior close.
            let _ = cl.s[cl.owner].close(now, sf);
            s_dead = false; // Only attempt once.
        }

        cl.c.end_cycle(now);
        cl.s[0].end_cycle(now);
        cl.s[1].end_cycle(now);
        cl.c.advance_timers(now);
        cl.s[0].advance_timers(now);
        cl.s[1].advance_timers(now);

        if c_closed
            && c_dead
            && holding.is_empty()
            && cl.c.tx_len() == 0
            && cl.s[0].tx_len() == 0
            && cl.s[1].tx_len() == 0
        {
            break;
        }
    }
    drop(holding);

    // Every mbuf any pool ever lent out must be home again: data and
    // ACK frames consumed by `input`, held RX buffers credited back,
    // retransmit storage reaped. (TIME_WAIT PCBs may still exist but
    // hold no buffers.)
    let leaked_mbufs = cl.c.pool_stats().outstanding
        + cl.s[0].pool_stats().outstanding
        + cl.s[1].pool_stats().outstanding;
    let resets = cl.c.stats.rst_tx
        + cl.c.stats.rst_rx
        + cl.summed_stats().rst_tx
        + cl.summed_stats().rst_rx;
    TransferOutcome { c2s, s2c, resets, abnormal_deaths, leaked_mbufs, migrations }
}

fn pattern(len: usize, salt: u32) -> Bytes {
    let bytes: Vec<u8> = (0..len)
        .map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(salt).to_le_bytes()[1])
        .collect();
    Bytes::from(bytes)
}

/// Migrating mid-transfer is invisible: same delivered bytes as the
/// never-migrate run, no resets, no abnormal deaths, no leaked pool
/// mbufs — under loss, duplication, and reordering.
fn assert_migration_is_invisible(len: usize, seed: u64, drop_pct: u64, every: usize) {
    let c2s = pattern(len, 0xAA);
    let s2c = pattern(len / 2 + 64, 0x55);
    let never = run_transfer(&c2s, &s2c, seed, drop_pct, None);
    let moved = run_transfer(&c2s, &s2c, seed, drop_pct, Some(every));
    assert!(moved.migrations > 0);
    // Zero payload divergence, in both directions, for both runs.
    assert_eq!(never.c2s, &c2s[..]);
    assert_eq!(never.s2c, &s2c[..]);
    assert_eq!(moved.c2s, &c2s[..]);
    assert_eq!(moved.s2c, &s2c[..]);
    // Zero resets.
    assert_eq!(never.resets, 0);
    assert_eq!(moved.resets, 0);
    assert_eq!(never.abnormal_deaths, 0);
    assert_eq!(moved.abnormal_deaths, 0);
    // Zero leaked pool mbufs.
    assert_eq!(never.leaked_mbufs, 0);
    assert_eq!(moved.leaked_mbufs, 0);
}

/// The property's shrunk failure at 300 cases. A frame duplicated on the
/// wire made the client's TIME_WAIT answer the server's last bare ACK;
/// that ACK reached the server after LAST_ACK had destroyed the flow,
/// and the listener reset it. TIME_WAIT now acknowledges only a
/// retransmitted FIN or an unacceptable segment (RFC 793 p. 73).
#[test]
fn time_wait_does_not_ack_a_bare_ack() {
    assert_migration_is_invisible(1692, 3507294753661601564, 0, 30);
}

props! {
    #[test]
    fn migrate_mid_transfer_is_equivalent_to_never_migrating(
        len in 1usize..9_000,
        seed in any::<u64>(),
        drop_pct in 0u64..22,
        every in 3usize..48,
    ) {
        assert_migration_is_invisible(len, seed, drop_pct, every);
    }
}
