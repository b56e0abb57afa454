//! Fig 8 — legitimate goodput and tail latency under adversarial traffic
//! (beyond the paper's evaluation; ROADMAP "adversarial traffic").
//! A fixed memcached USR load runs against the server while an attacker
//! host floods it with raw spoofed frames at a multiple of the
//! legitimate packet rate; rows compare IX with the pre-stack filter
//! (subnet drop rule + SYN challenge on the service port), IX without
//! it, and the Linux baseline model.
//!
//! Expected shape: unfiltered systems collapse as the flood grows —
//! every SYN costs a TCB + SYN-ACK + an ARP-parked reply, rings
//! tail-drop legitimate frames, and 200 ms RTO stalls eat the window.
//! Filtered IX drops the flood at the RX ring before any buffer is
//! allocated, keeping goodput within a few percent of the no-attack
//! baseline; its TCB slab never grows with the attack because SYN
//! cookies defer all connection state to a valid third ACK.

use ix_apps::attack::AttackKind;
use ix_apps::harness::{run, App, Scenario, System};
use ix_apps::workload::WorkloadKind;

/// Aggregate legitimate load, requests/second.
const LEGIT_RPS: f64 = 300_000.0;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct Case {
    system: System,
    filtered: bool,
    attack: Option<AttackKind>,
    /// Attack packet rate as a multiple of the legitimate request rate.
    ratio: f64,
}

impl Case {
    fn name(self) -> String {
        let sys = if self.filtered {
            format!("{}+filter", self.system.name())
        } else {
            self.system.name().to_string()
        };
        match self.attack {
            None => format!("{sys} / no attack"),
            Some(k) => format!("{sys} / {} {}x", k.name(), self.ratio),
        }
    }
}

const S: fn(System, bool, Option<AttackKind>, f64) -> Case =
    |system, filtered, attack, ratio| Case { system, filtered, attack, ratio };

fn main() {
    ix_bench::banner(
        "Figure 8",
        "legitimate memcached goodput and p99 under flood attack: \
         IX+filter vs IX vs Linux (6 cores, USR)",
    );
    let syn = Some(AttackKind::SynFlood);
    let cases: Vec<Case> = if ix_bench::sweep::quick() {
        vec![
            S(System::Ix, true, None, 0.0),
            S(System::Ix, true, syn, 4.0),
            S(System::Ix, false, syn, 4.0),
            S(System::Ix, false, Some(AttackKind::UdpBlast), 4.0),
        ]
    } else {
        vec![
            // No-attack baselines every retention number is relative to.
            S(System::Ix, true, None, 0.0),
            S(System::Ix, false, None, 0.0),
            S(System::Linux, false, None, 0.0),
            // SYN flood sweep: the headline comparison.
            S(System::Ix, true, syn, 1.0),
            S(System::Ix, false, syn, 1.0),
            S(System::Linux, false, syn, 1.0),
            S(System::Ix, true, syn, 4.0),
            S(System::Ix, false, syn, 4.0),
            S(System::Linux, false, syn, 4.0),
            S(System::Ix, true, syn, 8.0),
            S(System::Ix, false, syn, 8.0),
            S(System::Linux, false, syn, 8.0),
            S(System::Ix, true, syn, 32.0),
            S(System::Ix, false, syn, 32.0),
            S(System::Linux, false, syn, 32.0),
            // Other shapes at 4x: stateless storms and off-port UDP.
            S(System::Ix, true, Some(AttackKind::AckStorm), 4.0),
            S(System::Ix, false, Some(AttackKind::AckStorm), 4.0),
            S(System::Ix, true, Some(AttackKind::UdpBlast), 4.0),
            S(System::Ix, false, Some(AttackKind::UdpBlast), 4.0),
        ]
    };

    // The fig5 fleet at half size, without the unloaded agent: the
    // attacker takes the late host. Legitimate handshakes complete during
    // the warmup; the attack runs for the whole measurement window.
    let outcome = ix_bench::sweep::run(&cases, |&case| {
        run(&Scenario {
            system: case.system,
            filtered: case.filtered,
            attack: case.attack.map(|k| (k, case.ratio * LEGIT_RPS)),
            app: App::Kv { workload: WorkloadKind::Usr, rps: LEGIT_RPS },
            n_clients: 12,
            conns_per_thread: 8,
            agent: false,
            seed: 11,
            ..Scenario::kv()
        })
    });

    println!(
        "{:<26} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>7}",
        "scenario", "Krps", "p99(us)", "atk-sent", "filtered", "ring-drop", "cookies", "slab"
    );
    let mut baselines: Vec<(String, f64)> = Vec::new();
    for (case, r) in cases.iter().zip(outcome.results.iter()) {
        println!(
            "{:<26} {:>8.0} {:>9.1} {:>9} {:>9} {:>10} {:>9} {:>7}",
            case.name(),
            r.msgs_per_sec / 1e3,
            r.p99_ns as f64 / 1e3,
            r.attack_sent,
            r.filter.drops,
            r.nic_ring_drops,
            r.tcp.syn_cookies_accepted,
            r.flows.slab_slots,
        );
        let sys_key = format!("{}{}", case.system.name(), if case.filtered { "+filter" } else { "" });
        if case.attack.is_none() {
            baselines.push((sys_key.clone(), r.msgs_per_sec));
        }
    }

    // Headline: filtered-IX goodput retention at the heaviest flood,
    // relative to its own no-attack baseline (the acceptance criterion),
    // and the zero-allocation invariant for every dropped frame.
    let retention = |key: &str| -> Option<f64> {
        let base = baselines.iter().find(|(k, _)| k == key)?.1;
        let worst = cases
            .iter()
            .zip(outcome.results.iter())
            .filter(|(case, _)| {
                case.attack == Some(AttackKind::SynFlood)
                    && format!("{}{}", case.system.name(), if case.filtered { "+filter" } else { "" })
                        == key
            })
            .map(|(_, r)| r.msgs_per_sec)
            .fold(f64::INFINITY, f64::min);
        (worst.is_finite() && base > 0.0).then(|| worst / base)
    };
    if let Some(f) = retention("IX+filter") {
        println!("\nfiltered IX worst-case goodput retention under SYN flood: {:.1}%", f * 100.0);
    }
    let drop_allocs: u64 = outcome.results.iter().map(|r| r.filter.drop_allocs).sum();
    let drops: u64 = outcome.results.iter().map(|r| r.filter.drops).sum();
    println!("filter drops: {drops} frames, {drop_allocs} pool allocations (invariant: 0)");
    assert_eq!(drop_allocs, 0, "dropped frames must never touch the mbuf pool");

    ix_bench::sweep::record("fig8_adversarial", &outcome);
}
