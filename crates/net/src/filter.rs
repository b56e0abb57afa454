//! Pre-stack RX filtering: an O(1) ACL/rate-policy table consulted at RX
//! ring drain, *before* a frame is copied into a pool mbuf.
//!
//! The full RX path pays per-frame costs a hostile sender never earns:
//! the DMA copy into a receive-pool mbuf, full header validation with
//! checksums, a flow-table probe, and — for any SYN to a listened port —
//! a TCB allocation. This module is the XDP-style "drop before you
//! allocate" stage: it reads only what [`crate::peek::pre_parse`] peeked
//! for RSS (the tuple and the TCP flags, no checksum, no option walk),
//! and [`FilterPolicy::classify`] resolves a verdict with at most
//! three probes of an open-addressing rule table using the same
//! splitmix64 finisher as the per-shard flow table. Dropped frames never
//! touch a pool; the NIC layer pins that as `filter_drop_allocs == 0`.
//!
//! The policy object is an immutable snapshot: the control plane builds
//! a new [`FilterPolicy`], publishes it through `ix-core`'s RCU cell,
//! and the hot path keeps dereferencing whatever snapshot it holds —
//! rule updates never touch per-packet state. (Token-bucket rate rules
//! carry interior-mutable counters; the simulation is single-threaded,
//! so `Cell` reproduces the per-queue counter a real NIC filter keeps.)

use std::cell::Cell;

use crate::ip::{IpProto, Ipv4Addr};
use crate::peek::PreParsed;

/// Result of classifying one frame against the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the frame normally.
    Pass,
    /// Discard the frame before any buffer is allocated.
    Drop,
    /// Deliver the frame, but the TCP stack must answer a SYN with a
    /// stateless SYN-cookie SYN-ACK instead of allocating a TCB.
    SynChallenge,
}

/// The action a matched rule applies.
#[derive(Debug, Clone)]
pub enum RuleAction {
    /// Explicitly admit (overrides later, coarser matches).
    Pass,
    /// Discard unconditionally.
    Drop,
    /// SYN segments get the cookie treatment; everything else passes.
    SynChallenge,
    /// Connection-opening SYNs are discarded; established traffic
    /// passes. This is the control plane's admission gate: when every
    /// core is saturated, shedding *new* connections at the NIC edge
    /// keeps established-flow latency bounded instead of letting the
    /// whole service collapse (graceful overload degradation).
    DropSyn,
    /// Admit up to the token bucket's rate; drop the excess.
    RateLimit(RateLimit),
}

/// A deterministic token bucket: `pps` tokens per second, capacity
/// `burst` packets. Refill is computed from virtual-time deltas, so the
/// admit/drop sequence is a pure function of arrival times.
#[derive(Debug, Clone)]
pub struct RateLimit {
    pps: u64,
    burst: u64,
    /// Tokens scaled by [`TOKEN_SCALE`] so sub-packet refill fractions
    /// are never lost to integer division.
    tokens: Cell<u64>,
    last_ns: Cell<u64>,
}

/// One token, in scaled units (1 token = 1e9 scaled units, so refill is
/// simply `elapsed_ns * pps`).
const TOKEN_SCALE: u64 = 1_000_000_000;

impl RateLimit {
    /// A bucket admitting `pps` packets per second with `burst` capacity
    /// (starts full).
    pub fn new(pps: u64, burst: u64) -> RateLimit {
        RateLimit {
            pps,
            burst: burst.max(1),
            tokens: Cell::new(burst.max(1) * TOKEN_SCALE),
            last_ns: Cell::new(0),
        }
    }

    /// Charges one packet at `now_ns`; true to admit, false to drop.
    fn admit(&self, now_ns: u64) -> bool {
        let dt = now_ns.saturating_sub(self.last_ns.get());
        self.last_ns.set(now_ns);
        let refilled = self
            .tokens
            .get()
            .saturating_add(dt.saturating_mul(self.pps))
            .min(self.burst * TOKEN_SCALE);
        if refilled >= TOKEN_SCALE {
            self.tokens.set(refilled - TOKEN_SCALE);
            true
        } else {
            self.tokens.set(refilled);
            false
        }
    }
}

/// One installed rule.
#[derive(Debug, Clone)]
pub struct FilterRule {
    /// What to do with matching frames.
    pub action: RuleAction,
}

/// The splitmix64 finisher (the flow table's hash): one multiply chain
/// per probe instead of SipHash rounds.
#[inline]
fn mix(key: u64) -> u64 {
    let mut x = key;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Rule-key kind tags, kept in the top nibble so the three key spaces
/// (exact source, /16 source prefix, protocol/destination-port) never
/// collide.
const KIND_SRC: u64 = 1 << 60;
const KIND_NET16: u64 = 2 << 60;
const KIND_PORT: u64 = 3 << 60;

fn key_src(ip: Ipv4Addr) -> u64 {
    KIND_SRC | ip.0 as u64
}

fn key_net16(ip: Ipv4Addr) -> u64 {
    KIND_NET16 | (ip.0 >> 16) as u64
}

fn key_port(proto: IpProto, port: u16) -> u64 {
    KIND_PORT | (proto.to_u8() as u64) << 16 | port as u64
}

/// Slot-index vacancy sentinel.
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    idx: u32,
}

const VACANT: Slot = Slot { key: 0, idx: EMPTY };

/// An immutable ACL/rate-policy snapshot: an open-addressing table over
/// packed rule keys (exact source IP, source /16, protocol+destination
/// port) with a default action. Lookup precedence is most-specific
/// first: exact source, then source prefix, then port, then default —
/// at most three probes, each one splitmix64 mix plus a short linear
/// chain.
#[derive(Debug, Clone)]
pub struct FilterPolicy {
    slots: Vec<Slot>,
    mask: usize,
    rules: Vec<FilterRule>,
    /// Applied when no rule matches.
    pub default_action: RuleAction,
}

impl FilterPolicy {
    /// An empty policy that passes everything.
    pub fn new() -> FilterPolicy {
        FilterPolicy {
            slots: Vec::new(),
            mask: 0,
            rules: Vec::new(),
            default_action: RuleAction::Pass,
        }
    }

    /// Installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn insert(&mut self, key: u64, rule: FilterRule) {
        let idx = self.rules.len() as u32;
        self.rules.push(rule);
        if self.slots.is_empty() || (self.rules.len()) * 8 > self.slots.len() * 7 {
            let want = (self.rules.len().saturating_mul(8).div_ceil(7).max(8)).next_power_of_two();
            self.rebuild(want);
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let s = self.slots[i];
            if s.idx == EMPTY {
                self.slots[i] = Slot { key, idx };
                return;
            }
            if s.key == key {
                // Last writer wins: replace the rule body in place.
                self.slots[i].idx = idx;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn rebuild(&mut self, new_slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_slots]);
        self.mask = new_slots - 1;
        for s in old.into_iter().filter(|s| s.idx != EMPTY) {
            let mut i = (mix(s.key) as usize) & self.mask;
            while self.slots[i].idx != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<&FilterRule> {
        if self.rules.is_empty() {
            return None;
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let s = self.slots[i];
            if s.idx == EMPTY {
                return None;
            }
            if s.key == key {
                return Some(&self.rules[s.idx as usize]);
            }
            i = (i + 1) & self.mask;
        }
    }

    // --- Builder surface (control-plane side) ---

    /// Adds an exact-source-IP rule.
    pub fn rule_src(mut self, ip: Ipv4Addr, action: RuleAction) -> FilterPolicy {
        self.insert(key_src(ip), FilterRule { action });
        self
    }

    /// Adds a source /16 prefix rule (the coarse knob for spoofed-range
    /// floods).
    pub fn rule_net16(mut self, ip_in_net: Ipv4Addr, action: RuleAction) -> FilterPolicy {
        self.insert(key_net16(ip_in_net), FilterRule { action });
        self
    }

    /// Adds a (protocol, destination port) rule.
    pub fn rule_port(mut self, proto: IpProto, port: u16, action: RuleAction) -> FilterPolicy {
        self.insert(key_port(proto, port), FilterRule { action });
        self
    }

    // --- Hot path ---

    /// Resolves the verdict for one pre-parsed frame.
    #[inline]
    pub fn classify(&self, p: &PreParsed, now_ns: u64) -> Verdict {
        if let Some(r) = self.lookup(key_src(p.src_ip)) {
            return self.apply(r, p, now_ns);
        }
        if let Some(r) = self.lookup(key_net16(p.src_ip)) {
            return self.apply(r, p, now_ns);
        }
        if let Some(r) = self.lookup(key_port(p.proto, p.dst_port)) {
            return self.apply(r, p, now_ns);
        }
        let d = self.default_action.clone();
        self.apply(&FilterRule { action: d }, p, now_ns)
    }

    #[inline]
    fn apply(&self, rule: &FilterRule, p: &PreParsed, now_ns: u64) -> Verdict {
        match &rule.action {
            RuleAction::Pass => Verdict::Pass,
            RuleAction::Drop => Verdict::Drop,
            RuleAction::SynChallenge => {
                if p.proto == IpProto::Tcp && p.is_syn_only() {
                    Verdict::SynChallenge
                } else {
                    Verdict::Pass
                }
            }
            RuleAction::DropSyn => {
                if p.proto == IpProto::Tcp && p.is_syn_only() {
                    Verdict::Drop
                } else {
                    Verdict::Pass
                }
            }
            RuleAction::RateLimit(rl) => {
                if rl.admit(now_ns) {
                    Verdict::Pass
                } else {
                    Verdict::Drop
                }
            }
        }
    }

    /// True when a SYN from `src_ip` to local `dst_port` would be
    /// challenged — the TCP stack consults this on the passive-open path
    /// so the NIC and stack agree on which listeners run cookies.
    pub fn syn_challenged(&self, src_ip: Ipv4Addr, dst_port: u16) -> bool {
        let rule = self
            .lookup(key_src(src_ip))
            .or_else(|| self.lookup(key_net16(src_ip)))
            .or_else(|| self.lookup(key_port(IpProto::Tcp, dst_port)));
        match rule {
            Some(r) => matches!(r.action, RuleAction::SynChallenge),
            None => matches!(self.default_action, RuleAction::SynChallenge),
        }
    }
}

impl Default for FilterPolicy {
    fn default() -> FilterPolicy {
        FilterPolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_src_over_net_over_port_over_default() {
        let good = Ipv4Addr::new(10, 9, 0, 7);
        let bad_net = Ipv4Addr::new(10, 9, 3, 3);
        let other = Ipv4Addr::new(10, 1, 0, 1);
        let p = FilterPolicy::new()
            .rule_src(good, RuleAction::Pass)
            .rule_net16(Ipv4Addr::new(10, 9, 0, 0), RuleAction::Drop)
            .rule_port(IpProto::Tcp, 80, RuleAction::Drop);
        let mk = |ip, dp| PreParsed {
            proto: IpProto::Tcp,
            src_ip: ip,
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5,
            dst_port: dp,
            tcp_flags: 0x10,
        };
        // Exact source wins even inside the dropped /16 and to port 80.
        assert_eq!(p.classify(&mk(good, 80), 0), Verdict::Pass);
        // /16 drop beats the port rule and the default.
        assert_eq!(p.classify(&mk(bad_net, 9999), 0), Verdict::Drop);
        // Port rule fires for hosts outside the prefix.
        assert_eq!(p.classify(&mk(other, 80), 0), Verdict::Drop);
        // Default is pass.
        assert_eq!(p.classify(&mk(other, 81), 0), Verdict::Pass);
    }

    #[test]
    fn syn_challenge_only_bites_syns() {
        let p = FilterPolicy::new().rule_port(IpProto::Tcp, 11211, RuleAction::SynChallenge);
        let mut pp = PreParsed {
            proto: IpProto::Tcp,
            src_ip: Ipv4Addr::new(10, 0, 0, 9),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5,
            dst_port: 11211,
            tcp_flags: 0x02,
        };
        assert_eq!(p.classify(&pp, 0), Verdict::SynChallenge);
        assert!(p.syn_challenged(pp.src_ip, 11211));
        assert!(!p.syn_challenged(pp.src_ip, 80));
        pp.tcp_flags = 0x10; // ACK: passes.
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        pp.tcp_flags = 0x12; // SYN-ACK: passes.
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
    }

    #[test]
    fn drop_syn_sheds_only_connection_opens() {
        let p = FilterPolicy::new().rule_port(IpProto::Tcp, 11211, RuleAction::DropSyn);
        let mut pp = PreParsed {
            proto: IpProto::Tcp,
            src_ip: Ipv4Addr::new(10, 0, 0, 9),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5,
            dst_port: 11211,
            tcp_flags: 0x02,
        };
        // A connection-opening SYN is shed at the NIC edge.
        assert_eq!(p.classify(&pp, 0), Verdict::Drop);
        // Established traffic (plain ACK, data, FIN) keeps flowing.
        pp.tcp_flags = 0x10;
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        pp.tcp_flags = 0x18; // PSH|ACK
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        pp.tcp_flags = 0x12; // SYN-ACK: not a connection open towards us.
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        // Other ports are untouched.
        pp.tcp_flags = 0x02;
        pp.dst_port = 80;
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        // The gate is not a cookie rule: the stack's cookie path stays off.
        assert!(!p.syn_challenged(pp.src_ip, 11211));
    }

    #[test]
    fn rate_limit_is_deterministic() {
        let p = FilterPolicy::new()
            .rule_src(Ipv4Addr::new(10, 0, 0, 9), RuleAction::RateLimit(RateLimit::new(1000, 2)));
        let pp = PreParsed {
            proto: IpProto::Udp,
            src_ip: Ipv4Addr::new(10, 0, 0, 9),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5,
            dst_port: 53,
            tcp_flags: 0,
        };
        // Burst of 2 admits, then drops until refill (1000 pps = 1/ms).
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
        assert_eq!(p.classify(&pp, 0), Verdict::Drop);
        assert_eq!(p.classify(&pp, 500_000), Verdict::Drop);
        assert_eq!(p.classify(&pp, 1_000_000), Verdict::Pass);
        assert_eq!(p.classify(&pp, 1_000_001), Verdict::Drop);
    }

    #[test]
    fn many_rules_resolve_exactly() {
        let mut p = FilterPolicy::new();
        for i in 0..2000u32 {
            let ip = Ipv4Addr(0x0a09_0000 | i);
            p = p.rule_src(
                ip,
                if i % 2 == 0 { RuleAction::Drop } else { RuleAction::Pass },
            );
        }
        assert_eq!(p.rule_count(), 2000);
        for i in 0..2000u32 {
            let pp = PreParsed {
                proto: IpProto::Tcp,
                src_ip: Ipv4Addr(0x0a09_0000 | i),
                dst_ip: Ipv4Addr::new(10, 0, 0, 1),
                src_port: 1,
                dst_port: 2,
                tcp_flags: 0x10,
            };
            let want = if i % 2 == 0 { Verdict::Drop } else { Verdict::Pass };
            assert_eq!(p.classify(&pp, 0), want, "rule {i}");
        }
        // A miss falls through to the default.
        let pp = PreParsed {
            proto: IpProto::Tcp,
            src_ip: Ipv4Addr::new(10, 1, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 1,
            dst_port: 2,
            tcp_flags: 0x10,
        };
        assert_eq!(p.classify(&pp, 0), Verdict::Pass);
    }
}
