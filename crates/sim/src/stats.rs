//! Measurement utility: the latency histogram.
//!
//! The paper reports average and 99th-percentile latency (Figs 5, 6,
//! Table 2) and throughput in messages per second. `Histogram` is an
//! HdrHistogram-style log-linear histogram tuned for microsecond-scale
//! request latencies.

use crate::time::Nanos;

/// A log-linear histogram of durations.
///
/// Buckets are arranged in power-of-two "tiers" each split into 32 linear
/// sub-buckets, giving a worst-case quantile error of ~3% — more than
/// enough to reproduce the paper's latency curves.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[tier][sub]` counts samples in that range.
    buckets: Vec<[u64; Histogram::SUBS]>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Histogram {
    const SUBS: usize = 32;
    const SUB_BITS: u32 = 5;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![[0; Histogram::SUBS]; 40],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn index(value: u64) -> (usize, usize) {
        if value < Histogram::SUBS as u64 {
            return (0, value as usize);
        }
        let top = 63 - value.leading_zeros();
        let tier = (top - (Histogram::SUB_BITS - 1)) as usize;
        // Sub-bucket: the SUB_BITS bits immediately below the leading one.
        let sub = ((value >> (top - Histogram::SUB_BITS)) & (Histogram::SUBS as u64 - 1)) as usize;
        (tier, sub)
    }

    fn bucket_low(tier: usize, sub: usize) -> u64 {
        if tier == 0 {
            return sub as u64;
        }
        let top = tier as u32 + Histogram::SUB_BITS - 1;
        (1u64 << top) | ((sub as u64) << (top - Histogram::SUB_BITS))
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: Nanos) {
        let v = d.as_nanos();
        let (tier, sub) = Histogram::index(v);
        if tier >= self.buckets.len() {
            self.buckets.resize(tier + 1, [0; Histogram::SUBS]);
        }
        self.buckets[tier][sub] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples; zero if empty.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos((self.sum / self.count as u128) as u64)
    }

    /// Largest recorded sample; zero if empty.
    pub fn max(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.max)
        }
    }

    /// Smallest recorded sample; zero if empty.
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.min)
        }
    }

    /// Returns the value at quantile `q` (e.g. 0.99), approximated by the
    /// lower edge of the containing bucket. Zero if empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (tier, subs) in self.buckets.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= target && c > 0 {
                    // The bucket's lower edge can undershoot the exact
                    // observed minimum (or overshoot the maximum in the
                    // top bucket); clamp so quantiles stay within the
                    // recorded sample range.
                    return Nanos(Histogram::bucket_low(tier, sub).clamp(self.min, self.max));
                }
            }
        }
        Nanos(self.max)
    }

    /// The 99th percentile, the paper's headline tail-latency metric.
    pub fn p99(&self) -> Nanos {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), [0; Histogram::SUBS]);
        }
        for (tier, subs) in other.buckets.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                self.buckets[tier][sub] += c;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        for subs in &mut self.buckets {
            *subs = [0; Histogram::SUBS];
        }
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(Nanos(v));
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), Nanos(0));
        assert_eq!(h.max(), Nanos(31));
        // ceil(32 * 0.5) = 16th sample (1-indexed) is the value 15.
        assert_eq!(h.quantile(0.5), Nanos(15));
    }

    #[test]
    fn histogram_quantile_accuracy() {
        let mut h = Histogram::new();
        // 1..=10_000 ns uniformly.
        for v in 1..=10_000u64 {
            h.record(Nanos(v));
        }
        let p50 = h.quantile(0.5).as_nanos() as f64;
        let p99 = h.p99().as_nanos() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 {p99}");
        let mean = h.mean().as_nanos() as f64;
        assert!((mean - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(Nanos(v));
            b.record(Nanos(v + 1_000));
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), Nanos(1_099));
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.99), Nanos::ZERO);
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        h.record(Nanos::from_secs(2));
        assert!(h.quantile(0.5).as_nanos() >= 1_900_000_000);
        assert!(h.quantile(0.5).as_nanos() <= 2_000_000_000);
    }

    #[test]
    fn bucket_low_is_monotone() {
        let mut prev = 0u64;
        let mut first = true;
        for tier in 0..20 {
            for sub in 0..Histogram::SUBS {
                let lo = Histogram::bucket_low(tier, sub);
                if tier > 0 && sub == 0 && lo == prev {
                    // Tier boundaries may coincide; allowed.
                    continue;
                }
                if !first {
                    assert!(lo >= prev, "tier {tier} sub {sub}: {lo} < {prev}");
                }
                prev = lo;
                first = false;
            }
        }
    }

    #[test]
    fn index_maps_value_to_containing_bucket() {
        for &v in &[0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, 10_000_000] {
            let (tier, sub) = Histogram::index(v);
            let lo = Histogram::bucket_low(tier, sub);
            assert!(lo <= v, "v={v} tier={tier} sub={sub} lo={lo}");
            // Upper edge: next bucket's low (or beyond).
            let hi = if sub + 1 < Histogram::SUBS {
                Histogram::bucket_low(tier, sub + 1)
            } else {
                Histogram::bucket_low(tier + 1, 0)
            };
            assert!(v < hi, "v={v} hi={hi}");
        }
    }
}
