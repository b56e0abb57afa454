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
use ix_apps::harness::{run_adversarial, AdversarialConfig, System};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    system: System,
    filtered: bool,
    attack: Option<AttackKind>,
    /// Attack packet rate as a multiple of the legitimate request rate.
    ratio: f64,
}

impl Scenario {
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

const S: fn(System, bool, Option<AttackKind>, f64) -> Scenario =
    |system, filtered, attack, ratio| Scenario { system, filtered, attack, ratio };

fn main() {
    ix_bench::banner(
        "Figure 8",
        "legitimate memcached goodput and p99 under flood attack: \
         IX+filter vs IX vs Linux (6 cores, USR)",
    );
    let syn = Some(AttackKind::SynFlood);
    let scenarios: Vec<Scenario> = if ix_bench::sweep::quick() {
        vec![
            S(System::Ix, true, None, 0.0),
            S(System::Ix, true, syn, 4.0),
            S(System::Ix, false, syn, 4.0),
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

    let base = AdversarialConfig::default();
    let outcome = ix_bench::sweep::run(&scenarios, |&sc| {
        run_adversarial(&AdversarialConfig {
            system: sc.system,
            filtered: sc.filtered,
            attack: sc.attack.map(|k| (k, sc.ratio * base.target_rps)),
            ..AdversarialConfig::default()
        })
    });

    println!(
        "{:<26} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>7}",
        "scenario", "Krps", "p99(us)", "atk-sent", "filtered", "ring-drop", "cookies", "slab"
    );
    let mut baselines: Vec<(String, f64)> = Vec::new();
    for (sc, r) in scenarios.iter().zip(outcome.results.iter()) {
        println!(
            "{:<26} {:>8.0} {:>9.1} {:>9} {:>9} {:>10} {:>9} {:>7}",
            sc.name(),
            r.rps / 1e3,
            r.p99_ns as f64 / 1e3,
            r.attack_sent,
            r.filter.0,
            r.nic_ring_drops,
            r.tcp.syn_cookies_accepted,
            r.slab_high_water,
        );
        let sys_key = format!("{}{}", sc.system.name(), if sc.filtered { "+filter" } else { "" });
        if sc.attack.is_none() {
            baselines.push((sys_key.clone(), r.rps));
        }
    }

    // Headline: filtered-IX goodput retention at the heaviest flood,
    // relative to its own no-attack baseline (the acceptance criterion),
    // and the zero-allocation invariant for every dropped frame.
    let retention = |key: &str| -> Option<f64> {
        let base = baselines.iter().find(|(k, _)| k == key)?.1;
        let worst = scenarios
            .iter()
            .zip(outcome.results.iter())
            .filter(|(sc, _)| {
                sc.attack == Some(AttackKind::SynFlood)
                    && format!("{}{}", sc.system.name(), if sc.filtered { "+filter" } else { "" })
                        == key
            })
            .map(|(_, r)| r.rps)
            .fold(f64::INFINITY, f64::min);
        (worst.is_finite() && base > 0.0).then(|| worst / base)
    };
    if let Some(f) = retention("IX+filter") {
        println!("\nfiltered IX worst-case goodput retention under SYN flood: {:.1}%", f * 100.0);
    }
    let drop_allocs: u64 = outcome.results.iter().map(|r| r.filter.3).sum();
    let drops: u64 = outcome.results.iter().map(|r| r.filter.0).sum();
    println!("filter drops: {drops} frames, {drop_allocs} pool allocations (invariant: 0)");
    assert_eq!(drop_allocs, 0, "dropped frames must never touch the mbuf pool");

    ix_bench::sweep::record("fig8_adversarial", &outcome);
}
