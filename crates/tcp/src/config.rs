//! Stack tuning parameters.

/// When acknowledgments are generated.
///
/// IX generates ACKs at the end of the run-to-completion cycle, after the
/// application has consumed events and issued `recv_done` — so ACKs (and
/// window updates) reflect actual application progress (§3). A commodity
/// kernel ACKs from softirq context immediately, independent of the
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// ACK before the input call that accepted the data returns
    /// (quickack behaviour): per frame through `input`, at most one per
    /// flow per batch through `input_batch`.
    Immediate,
    /// Defer ACKs to the end of the processing cycle (IX model); the
    /// engine must call [`crate::TcpShard::end_cycle`].
    EndOfCycle,
    /// Classic delayed ACKs (Linux/mTCP models), applied once per input
    /// call: ACK at once if an earlier ACK is still pending, otherwise
    /// wait up to the given delay for a data segment to piggyback on —
    /// fed frame by frame, every second segment is ACKed immediately.
    Delayed(u64),
}

/// Maximum retransmission attempts before the connection is killed.
pub const MAX_RETRIES: u32 = 15;

/// TIME_WAIT hold time, ns. Abbreviated from 2*MSL: the evaluation
/// workloads close with RST precisely to avoid TIME_WAIT state
/// accumulation (§5.3), so only correctness tests observe this.
pub const TIME_WAIT_NS: u64 = 1_000_000_000;

/// How many ephemeral ports to probe for RSS-aligned outbound
/// connections before giving up and taking the last candidate.
pub const RSS_PROBE_LIMIT: u32 = 512;

/// Width of the SYN-cookie timestamp bucket, ns: a cookie validates in
/// its mint bucket and the next one, so this is half the minimum
/// handshake-completion deadline.
pub const SYN_COOKIE_BUCKET_NS: u64 = 1_000_000_000;

/// Configuration for one [`crate::TcpShard`].
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Maximum segment size advertised and used (1460 for standard MTU).
    pub mss: u32,
    /// Per-connection receive buffer / maximum advertised window, bytes.
    /// Values above 65535 require a nonzero `window_scale`.
    pub recv_window: u32,
    /// Window-scale shift to offer on SYN segments (RFC 7323); 0
    /// disables scaling (the paper-era lwIP behaviour, IX's default).
    /// Effective only when both ends offer the option.
    pub window_scale: u8,
    /// Initial congestion window in segments (RFC 6928 IW10 was not yet
    /// standard practice on the 3.16 kernel era; 10 is used by all modern
    /// stacks and keeps the echo experiments out of slow-start artifacts).
    pub initial_cwnd_segs: u32,
    /// Minimum retransmission timeout, ns. The paper highlights support
    /// for timeouts as low as 16 µs for incast (§4.2); the default here
    /// is the classic 200 ms datacenter-untuned floor.
    pub min_rto_ns: u64,
    /// Maximum retransmission timeout, ns.
    pub max_rto_ns: u64,
    /// SYN retransmission timeout, ns.
    pub syn_rto_ns: u64,
    /// Zero-window probe interval, ns.
    pub persist_ns: u64,
    /// ACK generation policy.
    pub ack_policy: AckPolicy,
    /// Capacity of the shard's mbuf pool (transmit-side allocation).
    pub mbuf_pool: usize,
    /// When true, every passive open answers with a stateless SYN-cookie
    /// SYN-ACK and the TCB is allocated only on a validated cookie ACK
    /// (the filter policy's syn-challenge verdict enables the same path
    /// per-rule without this global switch). Default off: the classic
    /// three-way handshake with a `SynRcvd` TCB.
    pub syn_cookies: bool,
    /// Upper bound on simultaneously half-open (`SynRcvd`) connections
    /// per shard when cookies are off; SYNs beyond it are silently
    /// dropped (`synrcvd_overflow_drops`) instead of pinning TCB-slab
    /// slots. Generous by default so connection-scale sweeps (which
    /// legitimately burst handshakes) never see it.
    pub syn_backlog: usize,
}

impl Default for StackConfig {
    fn default() -> StackConfig {
        StackConfig {
            mss: 1460,
            recv_window: 65_535,
            window_scale: 0,
            initial_cwnd_segs: 10,
            min_rto_ns: 200_000_000,
            max_rto_ns: 120_000_000_000,
            syn_rto_ns: 500_000_000,
            persist_ns: 200_000_000,
            ack_policy: AckPolicy::EndOfCycle,
            mbuf_pool: 8192,
            syn_cookies: false,
            syn_backlog: 65_536,
        }
    }
}

impl StackConfig {
    /// A configuration with microsecond-scale retransmission floors, as
    /// the paper's incast discussion proposes (16 µs resolution timers).
    pub fn low_latency() -> StackConfig {
        StackConfig {
            min_rto_ns: 1_000_000,     // 1 ms floor.
            max_rto_ns: 1_000_000_000, // Cap backoff at 1 s.
            ..StackConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = StackConfig::default();
        assert_eq!(c.mss, 1460);
        assert!(c.recv_window <= 65_535);
        assert!(c.min_rto_ns < c.max_rto_ns);
    }

    #[test]
    fn low_latency_profile() {
        let c = StackConfig::low_latency();
        assert!(c.min_rto_ns <= 1_000_000);
    }
}
