//! Fig 7 — fault injection and recovery (beyond the paper's evaluation;
//! ROADMAP "failure scenarios"). Continuous 64 B echo load against an
//! IX server while the fault plane injects link loss, link flaps, and a
//! NIC RX-queue hang; reports the goodput dip, 99th-percentile latency,
//! and time-to-recover per scenario, plus the TCP recovery counters and
//! — for the hang — the IXCP watchdog's re-steer counters.
//!
//! Expected shape: Bernoulli loss up to 5% costs goodput but never
//! stalls (RTO + fast retransmit repair every hole); a flap dips
//! goodput to near zero for its duration and recovers within a few RTO
//! backoffs of the link returning; a permanently hung queue strands its
//! RSS flow groups until the queue-hang watchdog re-steers them to
//! healthy queues, after which goodput returns above 80% of baseline.

use ix_apps::harness::{run, EngineTuning, Scenario};
use ix_faults::{FaultPlan, LinkFaults, NicFaults};
use ix_sim::Nanos;
use ix_tcp::StackConfig;

/// One sweep row: what to inject on the server's cable/NIC.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// No faults: the reference point every dip is relative to.
    None,
    /// Independent per-frame loss at this rate, both directions.
    Loss(f64),
    /// One link flap of this many milliseconds starting at 10 ms.
    FlapMs(u64),
    /// RX queue 0 hangs at 10 ms and never recovers by itself; the
    /// IXCP watchdog (1 ms period) must re-steer its flow groups.
    Hang,
}

impl Case {
    fn name(self) -> String {
        match self {
            Case::None => "baseline".into(),
            Case::Loss(p) => format!("loss {:.1}%", p * 100.0),
            Case::FlapMs(ms) => format!("flap {ms} ms"),
            Case::Hang => "queue hang + watchdog".into(),
        }
    }

    fn plan(self, server_port: u16) -> FaultPlan {
        const FAULT_FROM_NS: u64 = 10_000_000;
        match self {
            Case::None => FaultPlan::none(),
            Case::Loss(p) => FaultPlan::new(0xf7)
                .with_link(server_port, LinkFaults { loss: p, ..LinkFaults::default() }),
            Case::FlapMs(ms) => FaultPlan::new(0xf7).with_link(
                server_port,
                LinkFaults {
                    down_windows: vec![(FAULT_FROM_NS, FAULT_FROM_NS + ms * 1_000_000)],
                    ..LinkFaults::default()
                },
            ),
            Case::Hang => {
                let mut nic = NicFaults::default();
                nic.rx_hangs.insert(0, vec![(FAULT_FROM_NS, u64::MAX)]);
                FaultPlan::new(0xf7).with_nic(server_port, nic)
            }
        }
    }
}

fn main() {
    ix_bench::banner(
        "Figure 7",
        "echo goodput dip and time-to-recover under injected faults (IX, 4 cores)",
    );
    let cases: &[Case] = if ix_bench::sweep::quick() {
        &[Case::None, Case::Loss(0.01), Case::Hang]
    } else {
        &[
            Case::None,
            Case::Loss(0.001),
            Case::Loss(0.01),
            Case::Loss(0.05),
            Case::FlapMs(1),
            Case::FlapMs(4),
            Case::Hang,
        ]
    };
    let outcome = ix_bench::sweep::run(cases, |&case| {
        let base = Scenario::fault_recovery();
        run(&Scenario {
            // Millisecond RTO floor: recovery timescales must fit the
            // 40 ms window (the default 200 ms floor would not).
            tuning: EngineTuning {
                stack: StackConfig::low_latency(),
                ..EngineTuning::default()
            },
            faults: case.plan(base.server_port()),
            watchdog: match case {
                Case::Hang => Some(Nanos::from_millis(1)),
                _ => None,
            },
            // Bernoulli loss has no onset: it degrades the whole run,
            // so there is no clean pre-fault baseline and the dip /
            // time-to-recover metrics do not apply (goodput and p99
            // against the fault-free scenario are the measurements).
            fault_from: match case {
                Case::Loss(_) => Some(Nanos(0)),
                _ => base.fault_from,
            },
            ..base
        })
    });

    println!(
        "{:<22} {:>9} {:>9} {:>6} {:>11} {:>8} {:>6} {:>8} {:>8}",
        "scenario", "Kmsg/s", "p99(us)", "dip", "recover", "drops", "retx", "rto", "fastrtx"
    );
    for (case, r) in cases.iter().zip(outcome.results.iter()) {
        let continuous = matches!(case, Case::Loss(_));
        let recover = match (continuous, r.stalled, r.recover_ns) {
            (true, ..) => "cont.".to_string(),
            (_, true, _) => "STALLED".to_string(),
            (_, false, Some(ns)) => format!("{:.1} ms", ns as f64 / 1e6),
            (_, false, None) => "no dip".to_string(),
        };
        println!(
            "{:<22} {:>9.0} {:>9.1} {:>6} {:>11} {:>8} {:>6} {:>8} {:>8}",
            case.name(),
            r.msgs_per_sec / 1e3,
            r.p99_ns as f64 / 1e3,
            if continuous { "-".to_string() } else { format!("{:.2}", r.dip_frac) },
            recover,
            r.faults.dropped_total(),
            r.tcp.retransmits,
            r.tcp.rto_fires,
            r.tcp.fast_retransmits,
        );
        if let Some(w) = r.watchdog {
            println!(
                "{:<22} watchdog: {} scans, {} hangs, {} buckets re-steered, {} flows migrated, {} frames discarded",
                "", w.scans, w.hangs_detected, w.buckets_resteered, w.flows_migrated, w.frames_discarded
            );
        }
    }

    // Headline claims the acceptance gate checks: nothing stalls at
    // ≤5% loss, and the watchdog restores the hung queue's traffic.
    // A scenario counts as stalled if it never returned above the 80%
    // recovery threshold, or if its final window moved no bytes at all
    // (continuous-loss scenarios have no threshold; dead silence is
    // their stall signal).
    let stalled: Vec<String> = cases
        .iter()
        .zip(outcome.results.iter())
        .filter(|(_, r)| r.stalled || r.rx_windows.last().copied().unwrap_or(0) == 0)
        .map(|(case, _)| case.name())
        .collect();
    if stalled.is_empty() {
        println!("\nall scenarios recovered (no permanently stalled connections)");
    } else {
        println!("\nSTALLED scenarios: {}", stalled.join(", "));
    }

    ix_bench::sweep::record("fig7_faults", &outcome);
}
