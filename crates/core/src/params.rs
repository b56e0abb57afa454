//! The IX dataplane CPU cost model.
//!
//! These constants replace the testbed's Xeon E5-2665 @ 2.4 GHz. They are
//! calibrated so the headline shapes of §5 reproduce:
//!
//! * IX-to-IX unloaded one-way latency ≈ 5.7 µs at 64 B (Fig 2): the
//!   fabric contributes ≈ 2.6 µs (see `ix_nic::params`), leaving ≈ 1.5 µs
//!   of processing per side.
//! * 64 B echo saturates 10GbE (8.8 M msgs/s) with a handful of cores
//!   (Fig 3a/3b): per-message dataplane work of well under 1 µs-core
//!   once batching amortizes fixed costs.
//! * The kernel/user CPU split for memcached lands at < 10% dataplane
//!   time (§5.5) because the dataplane path is short.

/// CPU costs (in nanoseconds of a nominal full-speed core) for dataplane
/// operations.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Fixed cost of one run-to-completion iteration: polling the RX
    /// descriptor rings (Fig 1b step 1), even when empty.
    pub poll_ns: u64,
    /// Protocol processing per received packet (Fig 1b step 2): driver
    /// demultiplex + TCP/IP state machine.
    pub rx_pkt_ns: u64,
    /// Additional per-byte receive cost (checksum verify is modeled as
    /// NIC-offloaded; this covers cache-line touches of the payload).
    pub rx_byte_ns_x1000: u64,
    /// One protection-domain crossing in VMX non-root mode (§6: "on the
    /// order of a single L3 cache miss"). Charged twice per cycle with
    /// user work (steps 3 entry and exit).
    pub vmx_transition_ns: u64,
    /// Delivering one event condition to user space (array write +
    /// cookie-based dispatch).
    pub event_ns: u64,
    /// Validating and executing one batched system call (step 4),
    /// excluding per-packet transmit work it triggers.
    pub syscall_ns: u64,
    /// Running the timer wheel (step 5) per iteration.
    pub timer_pass_ns: u64,
    /// Transmit path per packet (step 6): descriptor write + bookkeeping.
    pub tx_pkt_ns: u64,
    /// Additional per-byte transmit cost ×1000 (zero-copy: no payload
    /// copy, only segmentation bookkeeping; nonzero to bound the 8 KB
    /// message results of Fig 3c).
    pub tx_byte_ns_x1000: u64,
    /// One PCIe doorbell write (§6: coalescing these on the RX replenish
    /// path was required to scale).
    pub pcie_doorbell_ns: u64,
    /// Replenish descriptors in batches of at least this many to coalesce
    /// doorbell writes (§6: 32). Setting it to 1 reproduces the §6
    /// bottleneck for the ablation bench.
    pub rx_replenish_batch: usize,
    /// Upper bound B on packets processed per iteration (§5.1: B = 64
    /// maximizes microbenchmark throughput; Fig 6 sweeps it).
    pub batch_bound: usize,
    /// Cold-batch penalty: per-packet work in a batch of `b` costs
    /// `(1 + cold_batch_penalty / b)×` the warm cost, modeling the
    /// instruction-cache, prefetch, and branch-predictor warmup the
    /// paper credits batching with (§3: "batching improves packet rate
    /// because it amortizes system call transition overheads and
    /// improves instruction cache locality, prefetching effectiveness,
    /// and branch prediction accuracy").
    pub cold_batch_penalty: f64,
    /// Ablation: disable the zero-copy API and charge a user-copy per
    /// byte in both directions (what a POSIX read/write interface would
    /// cost, §3/§6).
    pub copy_api: bool,
    /// Copy cost per byte × 1000 when `copy_api` is set.
    pub copy_byte_ns_x1000: u64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            poll_ns: 60,
            rx_pkt_ns: 300,
            rx_byte_ns_x1000: 150, // 0.15 ns/byte.
            vmx_transition_ns: 40,
            event_ns: 25,
            syscall_ns: 60,
            timer_pass_ns: 40,
            tx_pkt_ns: 220,
            tx_byte_ns_x1000: 150,
            pcie_doorbell_ns: 250,
            rx_replenish_batch: 32,
            batch_bound: 64,
            cold_batch_penalty: 0.42,
            copy_api: false,
            copy_byte_ns_x1000: 350,
        }
    }
}

impl CostParams {
    /// Receive-side cost for one packet of `len` payload-carrying bytes.
    pub fn rx_cost(&self, len: usize) -> u64 {
        let copy = if self.copy_api {
            (len as u64 * self.copy_byte_ns_x1000) / 1000
        } else {
            0
        };
        self.rx_pkt_ns + (len as u64 * self.rx_byte_ns_x1000) / 1000 + copy
    }

    /// Transmit-side cost for one packet of `len` bytes.
    pub fn tx_cost(&self, len: usize) -> u64 {
        let copy = if self.copy_api {
            (len as u64 * self.copy_byte_ns_x1000) / 1000
        } else {
            0
        };
        self.tx_pkt_ns + (len as u64 * self.tx_byte_ns_x1000) / 1000 + copy
    }

    /// A cost profile with the given batch bound (Fig 6's B sweep).
    pub fn with_batch_bound(b: usize) -> CostParams {
        CostParams {
            batch_bound: b,
            ..CostParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_message_cost_supports_line_rate() {
        // A 64B echo costs roughly rx + tx + syscall + event + its share
        // of fixed costs. With B=64 batching the fixed costs amortize;
        // the per-message marginal cost must stay below ~1 µs-core so a
        // few cores can drive 8.8M msgs/s (Fig 3a/3b).
        let p = CostParams::default();
        let per_msg = p.rx_cost(64) + p.tx_cost(64) + p.syscall_ns + p.event_ns;
        assert!(per_msg < 1_000, "per-message cost {per_msg} ns too high");
    }

    #[test]
    fn unloaded_side_cost_matches_fig2() {
        // One unloaded message: full fixed costs, batch of 1.
        let p = CostParams::default();
        let side = p.poll_ns
            + p.rx_cost(64)
            + 2 * p.vmx_transition_ns
            + p.event_ns
            + p.syscall_ns
            + p.timer_pass_ns
            + p.tx_cost(64)
            + p.pcie_doorbell_ns;
        // Each side contributes ~1-1.6 µs; with the ~2.6 µs fabric and
        // the application's own work this lands near the paper's 5.7 µs
        // one-way figure.
        assert!(side > 800 && side < 1_800, "side cost {side}");
    }

    #[test]
    fn helpers_scale_with_bytes() {
        let p = CostParams::default();
        assert!(p.rx_cost(1460) > p.rx_cost(64));
        assert_eq!(p.rx_cost(0), p.rx_pkt_ns);
        assert!(p.tx_cost(8192) > p.tx_cost(64) + 1_000);
    }
}
