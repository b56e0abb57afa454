//! # ix-faults — the scripted fault plane
//!
//! A deterministic fault injector for the simulated machine room. A
//! [`FaultPlan`] scripts what goes wrong and when — per-link Bernoulli
//! loss, Gilbert–Elliott burst loss, link flaps (down/up windows on
//! simulated time), frame corruption, bounded reordering, and NIC queue
//! hangs (an RX queue that stops draining, a TX path that stalls, a
//! doorbell write that is lost). The NIC/switch layer consults the plan
//! at its injection points; the plan answers with a [`LinkVerdict`] or a
//! hang decision and counts what it did.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** All randomness comes from one [`SimRng`] seeded at
//!   plan construction, drawn in simulation-event order, so a faulted
//!   run replays byte-identically from `(configuration, seed)` — the
//!   same contract the rest of the workspace honors.
//! * **Zero cost when absent.** Hook sites hold an `Option<FaultsRef>`;
//!   with no plan installed they draw no randomness and schedule no
//!   events, so every fault-free run is byte-identical to a build
//!   without this crate.
//!
//! Links are identified by switch port (each port is one host↔switch
//! cable; a link's faults apply to both directions of that cable).
//! Queues are identified by `(switch_port, queue_id)`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ix_sim::SimRng;

/// A two-state Markov (Gilbert–Elliott) burst-loss model. Each frame
/// first moves the chain (good→bad with `p_g2b`, bad→good with
/// `p_b2g`), then drops with the state's loss probability. Mean burst
/// length is `1/p_b2g` frames; stationary bad-state occupancy is
/// `p_g2b / (p_g2b + p_b2g)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame transition probability good → bad.
    pub p_g2b: f64,
    /// Per-frame transition probability bad → good.
    pub p_b2g: f64,
    /// Loss probability while in the good state (usually 0).
    pub loss_good: f64,
    /// Loss probability while in the bad state (usually near 1).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A classic bursty profile: rare entry into a bad state that lasts
    /// ~`burst_len` frames and loses almost everything while it holds.
    pub fn bursty(p_enter: f64, burst_len: f64) -> GilbertElliott {
        GilbertElliott {
            p_g2b: p_enter,
            p_b2g: 1.0 / burst_len.max(1.0),
            loss_good: 0.0,
            loss_bad: 0.9,
        }
    }
}

/// Fault script for one link (one switch port's cable), applied to every
/// frame crossing it in either direction.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    /// Independent per-frame drop probability.
    pub loss: f64,
    /// Burst-loss chain, layered on top of `loss`.
    pub burst: Option<GilbertElliott>,
    /// Per-frame probability of a single-byte corruption. Only IPv4
    /// frames are corrupted (past the Ethernet header), so every
    /// corruption is detectable by the IP/TCP/UDP checksums — the hook
    /// site enforces this; non-IPv4 frames (ARP) pass clean.
    pub corrupt: f64,
    /// Per-frame probability of an extra delivery delay (which lets
    /// later frames overtake this one).
    pub reorder: f64,
    /// Upper bound on the extra reordering delay, ns.
    pub reorder_window_ns: u64,
    /// Down windows `[start, end)` in simulated ns: the link drops
    /// everything while down (a flap is one such window).
    pub down_windows: Vec<(u64, u64)>,
    /// Scripted drops by per-link frame index (0-based, counted over
    /// all frames crossing this link). Exact, RNG-free loss — used by
    /// golden-trace tests to force a specific recovery sequence.
    pub scripted_drops: Vec<u64>,
}

impl LinkFaults {
    /// True when this script can never affect a frame.
    fn is_inert(&self) -> bool {
        self.loss == 0.0
            && self.burst.is_none()
            && self.corrupt == 0.0
            && self.reorder == 0.0
            && self.down_windows.is_empty()
            && self.scripted_drops.is_empty()
    }
}

/// Fault script for one NIC port (keyed by its switch port).
#[derive(Debug, Clone, Default)]
pub struct NicFaults {
    /// Per-RX-queue hang windows `[start, end)`: while one holds, the
    /// host stops draining that queue (frames still arrive and the ring
    /// overflows, exactly like a stuck DMA consumer).
    pub rx_hangs: BTreeMap<usize, Vec<(u64, u64)>>,
    /// TX hang windows `[start, end)`: the wire-drain engine stalls and
    /// resumes when the window closes.
    pub tx_hangs: Vec<(u64, u64)>,
    /// Probability that a TX doorbell write is lost: the kick is
    /// ignored and frames sit in the ring until the next doorbell.
    pub doorbell_loss: f64,
}

/// The full fault script for a fabric: per-link and per-NIC entries plus
/// the seed of the dedicated fault RNG.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Link scripts by switch port.
    pub links: BTreeMap<u16, LinkFaults>,
    /// NIC scripts by switch port.
    pub nics: BTreeMap<u16, NicFaults>,
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan: injects nothing, counts nothing. Installing it is
    /// behaviorally identical to installing no plan at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given fault-RNG seed and no faults yet.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Sets the script for the link on `port`, replacing any previous
    /// script, and returns `self` for chaining.
    pub fn with_link(mut self, port: u16, faults: LinkFaults) -> FaultPlan {
        self.links.insert(port, faults);
        self
    }

    /// Sets the script for the NIC on `port` and returns `self`.
    pub fn with_nic(mut self, port: u16, faults: NicFaults) -> FaultPlan {
        self.nics.insert(port, faults);
        self
    }

    /// True when the plan can never affect anything.
    pub fn is_none(&self) -> bool {
        self.links.values().all(LinkFaults::is_inert)
            && self.nics.values().all(|n| {
                n.rx_hangs.values().all(Vec::is_empty)
                    && n.tx_hangs.is_empty()
                    && n.doorbell_loss == 0.0
            })
    }
}

/// What the fault plane decided for one frame crossing a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver untouched.
    Deliver,
    /// Drop the frame (loss, burst, flap, or scripted).
    Drop,
    /// Flip one byte; the operand is raw randomness the hook site maps
    /// to a checksum-protected offset.
    Corrupt(u64),
    /// Deliver after this many extra nanoseconds (reordering).
    Delay(u64),
}

/// Per-link fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames that crossed this link (post-verdict frames included).
    pub frames: u64,
    /// Dropped by independent Bernoulli loss.
    pub dropped_loss: u64,
    /// Dropped by the Gilbert–Elliott chain.
    pub dropped_burst: u64,
    /// Dropped because the link was down (flap window).
    pub dropped_flap: u64,
    /// Dropped by a scripted frame index.
    pub dropped_scripted: u64,
    /// Corrupted in flight.
    pub corrupted: u64,
    /// Delayed for reordering.
    pub reordered: u64,
}

impl LinkCounters {
    /// Total frames removed from the wire by this link's faults.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_loss + self.dropped_burst + self.dropped_flap + self.dropped_scripted
    }
}

/// Per-NIC (and per-queue) fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// RX poll attempts suppressed by a hang window.
    pub rx_hang_skips: u64,
    /// TX drain steps deferred to the end of a hang window.
    pub tx_hang_defers: u64,
    /// Doorbell writes lost.
    pub doorbells_lost: u64,
}

/// A deterministic snapshot of every fault counter, suitable for
/// equality assertions in determinism tests and for report output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSnapshot {
    /// Per-link counters, keyed by switch port.
    pub links: BTreeMap<u16, LinkCounters>,
    /// Per-NIC counters, keyed by switch port.
    pub nics: BTreeMap<u16, NicCounters>,
}

impl FaultSnapshot {
    /// Sum of frames dropped on the wire across all links.
    pub fn dropped_total(&self) -> u64 {
        self.links.values().map(LinkCounters::dropped_total).sum()
    }
}

/// Per-link mutable runtime state.
#[derive(Debug, Default)]
struct LinkRuntime {
    /// Gilbert–Elliott chain state (true = bad).
    ge_bad: bool,
    counters: LinkCounters,
}

/// The live fault plane: the plan plus its RNG and counters. One shared
/// instance is installed into the switch and every NIC of a fabric.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    links: BTreeMap<u16, LinkRuntime>,
    nics: BTreeMap<u16, NicCounters>,
}

/// Shared handle to the fault plane, as held by hook sites.
pub type FaultsRef = Rc<RefCell<FaultState>>;

impl FaultState {
    /// Builds the live fault plane from a plan. The RNG stream is
    /// derived from the plan seed alone, independent of the simulator's
    /// workload RNG, so adding faults never perturbs workload jitter.
    pub fn new(plan: FaultPlan) -> FaultState {
        let rng = SimRng::new(plan.seed ^ 0xfau64.rotate_left(56));
        let links = plan.links.keys().map(|&p| (p, LinkRuntime::default())).collect();
        let nics = plan.nics.keys().map(|&p| (p, NicCounters::default())).collect();
        FaultState { plan, rng, links, nics }
    }

    /// Wraps a plan in the shared handle hook sites hold.
    pub fn shared(plan: FaultPlan) -> FaultsRef {
        Rc::new(RefCell::new(FaultState::new(plan)))
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one frame crossing the link on `port` at
    /// `now_ns`. `corruptible` says whether the frame carries end-to-end
    /// checksums (IPv4); corruption is only ever applied to such frames,
    /// so an injected flip can never be silently delivered. Draws from
    /// the fault RNG only for the checks the link's script actually
    /// enables, keeping unrelated links' streams stable.
    pub fn link_verdict(&mut self, port: u16, now_ns: u64, corruptible: bool) -> LinkVerdict {
        let Some(cfg) = self.plan.links.get(&port) else {
            return LinkVerdict::Deliver;
        };
        let rt = self.links.entry(port).or_default();
        let idx = rt.counters.frames;
        rt.counters.frames += 1;
        if cfg.scripted_drops.contains(&idx) {
            rt.counters.dropped_scripted += 1;
            return LinkVerdict::Drop;
        }
        if cfg.down_windows.iter().any(|&(s, e)| now_ns >= s && now_ns < e) {
            rt.counters.dropped_flap += 1;
            return LinkVerdict::Drop;
        }
        if let Some(ge) = cfg.burst {
            let flip = if rt.ge_bad { ge.p_b2g } else { ge.p_g2b };
            if self.rng.chance(flip) {
                rt.ge_bad = !rt.ge_bad;
            }
            let p = if rt.ge_bad { ge.loss_bad } else { ge.loss_good };
            if p > 0.0 && self.rng.chance(p) {
                rt.counters.dropped_burst += 1;
                return LinkVerdict::Drop;
            }
        }
        if cfg.loss > 0.0 && self.rng.chance(cfg.loss) {
            rt.counters.dropped_loss += 1;
            return LinkVerdict::Drop;
        }
        if corruptible && cfg.corrupt > 0.0 && self.rng.chance(cfg.corrupt) {
            rt.counters.corrupted += 1;
            return LinkVerdict::Corrupt(self.rng.next_u64());
        }
        if cfg.reorder > 0.0 && cfg.reorder_window_ns > 0 && self.rng.chance(cfg.reorder) {
            rt.counters.reordered += 1;
            return LinkVerdict::Delay(1 + self.rng.below(cfg.reorder_window_ns));
        }
        LinkVerdict::Deliver
    }

    /// True when RX queue `q` of the NIC on `port` is inside a hang
    /// window at `now_ns` (the host must skip draining it). Counts each
    /// suppressed poll attempt.
    pub fn rx_queue_hung(&mut self, port: u16, q: usize, now_ns: u64) -> bool {
        let Some(cfg) = self.plan.nics.get(&port) else { return false };
        let Some(windows) = cfg.rx_hangs.get(&q) else { return false };
        if windows.iter().any(|&(s, e)| now_ns >= s && now_ns < e) {
            self.nics.entry(port).or_default().rx_hang_skips += 1;
            return true;
        }
        false
    }

    /// If the NIC on `port` is inside a TX hang window at `now_ns`,
    /// returns the window's end (when draining may resume).
    pub fn tx_hang_until(&mut self, port: u16, now_ns: u64) -> Option<u64> {
        let cfg = self.plan.nics.get(&port)?;
        let end = cfg
            .tx_hangs
            .iter()
            .find(|&&(s, e)| now_ns >= s && now_ns < e)
            .map(|&(_, e)| e)?;
        self.nics.entry(port).or_default().tx_hang_defers += 1;
        Some(end)
    }

    /// Decides whether a TX doorbell write on `port` is lost.
    pub fn doorbell_lost(&mut self, port: u16) -> bool {
        let Some(cfg) = self.plan.nics.get(&port) else { return false };
        if cfg.doorbell_loss > 0.0 && self.rng.chance(cfg.doorbell_loss) {
            self.nics.entry(port).or_default().doorbells_lost += 1;
            return true;
        }
        false
    }

    /// Snapshots every counter.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            links: self.links.iter().map(|(&p, rt)| (p, rt.counters)).collect(),
            nics: self.nics.iter().map(|(&p, &c)| (p, c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64) -> FaultPlan {
        FaultPlan::new(42).with_link(3, LinkFaults { loss: p, ..LinkFaults::default() })
    }

    #[test]
    fn empty_plan_is_none_and_delivers() {
        assert!(FaultPlan::none().is_none());
        let mut st = FaultState::new(FaultPlan::none());
        for t in 0..100 {
            assert_eq!(st.link_verdict(0, t, true), LinkVerdict::Deliver);
            assert!(!st.rx_queue_hung(0, 0, t));
            assert!(st.tx_hang_until(0, t).is_none());
            assert!(!st.doorbell_lost(0));
        }
        assert_eq!(st.snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn bernoulli_loss_rate_is_plausible_and_counted() {
        let mut st = FaultState::new(lossy(0.1));
        let n = 20_000;
        let mut dropped = 0;
        for i in 0..n {
            if st.link_verdict(3, i, true) == LinkVerdict::Drop {
                dropped += 1;
            }
        }
        let snap = st.snapshot();
        assert_eq!(snap.links[&3].dropped_loss, dropped);
        assert_eq!(snap.links[&3].frames, n);
        let rate = dropped as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "loss rate {rate}");
        // Unconfigured links are untouched and draw no RNG state.
        assert!(!snap.links.contains_key(&4));
    }

    #[test]
    fn verdicts_replay_from_seed() {
        let plan = FaultPlan::new(7).with_link(
            1,
            LinkFaults {
                loss: 0.05,
                corrupt: 0.05,
                reorder: 0.05,
                reorder_window_ns: 4_000,
                burst: Some(GilbertElliott::bursty(0.01, 8.0)),
                ..LinkFaults::default()
            },
        );
        let run = |plan: FaultPlan| {
            let mut st = FaultState::new(plan);
            (0..5_000).map(|i| st.link_verdict(1, i * 100, true)).collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn flap_window_drops_everything_inside_only() {
        let plan = FaultPlan::new(1).with_link(
            2,
            LinkFaults { down_windows: vec![(1_000, 2_000)], ..LinkFaults::default() },
        );
        let mut st = FaultState::new(plan);
        assert_eq!(st.link_verdict(2, 999, true), LinkVerdict::Deliver);
        assert_eq!(st.link_verdict(2, 1_000, true), LinkVerdict::Drop);
        assert_eq!(st.link_verdict(2, 1_999, true), LinkVerdict::Drop);
        assert_eq!(st.link_verdict(2, 2_000, true), LinkVerdict::Deliver);
        assert_eq!(st.snapshot().links[&2].dropped_flap, 2);
    }

    #[test]
    fn gilbert_elliott_losses_cluster() {
        let plan = FaultPlan::new(3).with_link(
            1,
            LinkFaults {
                burst: Some(GilbertElliott {
                    p_g2b: 0.02,
                    p_b2g: 0.2,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
                ..LinkFaults::default()
            },
        );
        let mut st = FaultState::new(plan);
        let verdicts: Vec<bool> =
            (0..50_000).map(|i| st.link_verdict(1, i, true) == LinkVerdict::Drop).collect();
        let losses = verdicts.iter().filter(|&&d| d).count();
        // Stationary loss ≈ 0.02/(0.02+0.2) ≈ 9%.
        let rate = losses as f64 / verdicts.len() as f64;
        assert!((0.05..0.14).contains(&rate), "burst loss rate {rate}");
        // Burstiness: the chance a loss follows a loss must far exceed
        // the marginal rate (that's what makes it a burst model).
        let mut after_loss = 0;
        let mut after_loss_lost = 0;
        for w in verdicts.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let cond = after_loss_lost as f64 / after_loss as f64;
        assert!(cond > 2.0 * rate, "not bursty: P(loss|loss)={cond:.3} vs {rate:.3}");
    }

    #[test]
    fn scripted_drops_hit_exact_frames() {
        let plan = FaultPlan::new(0).with_link(
            5,
            LinkFaults { scripted_drops: vec![0, 3], ..LinkFaults::default() },
        );
        let mut st = FaultState::new(plan);
        let v: Vec<LinkVerdict> = (0..5).map(|i| st.link_verdict(5, i, true)).collect();
        assert_eq!(
            v,
            vec![
                LinkVerdict::Drop,
                LinkVerdict::Deliver,
                LinkVerdict::Deliver,
                LinkVerdict::Drop,
                LinkVerdict::Deliver,
            ]
        );
        assert_eq!(st.snapshot().links[&5].dropped_scripted, 2);
    }

    #[test]
    fn queue_hangs_and_doorbells() {
        let mut nf = NicFaults { doorbell_loss: 0.5, ..NicFaults::default() };
        nf.rx_hangs.insert(2, vec![(100, 200)]);
        nf.tx_hangs.push((500, 900));
        let plan = FaultPlan::new(9).with_nic(7, nf);
        let mut st = FaultState::new(plan);
        assert!(!st.rx_queue_hung(7, 2, 99));
        assert!(st.rx_queue_hung(7, 2, 150));
        assert!(!st.rx_queue_hung(7, 1, 150), "other queues unaffected");
        assert!(!st.rx_queue_hung(7, 2, 200));
        assert_eq!(st.tx_hang_until(7, 600), Some(900));
        assert_eq!(st.tx_hang_until(7, 900), None);
        let lost = (0..1_000).filter(|_| st.doorbell_lost(7)).count();
        assert!((400..600).contains(&lost), "doorbell loss {lost}");
        let snap = st.snapshot();
        assert_eq!(snap.nics[&7].rx_hang_skips, 1);
        assert_eq!(snap.nics[&7].tx_hang_defers, 1);
        assert_eq!(snap.nics[&7].doorbells_lost, lost as u64);
    }

    #[test]
    fn reorder_delay_is_bounded() {
        let plan = FaultPlan::new(11).with_link(
            1,
            LinkFaults { reorder: 1.0, reorder_window_ns: 500, ..LinkFaults::default() },
        );
        let mut st = FaultState::new(plan);
        for i in 0..1_000 {
            match st.link_verdict(1, i, true) {
                LinkVerdict::Delay(d) => assert!((1..=500).contains(&d), "delay {d}"),
                v => panic!("expected delay, got {v:?}"),
            }
        }
    }
}
