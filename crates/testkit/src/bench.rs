//! A minimal wall-clock benchmark runner, replacing the external
//! `criterion` crate.
//!
//! The runner auto-calibrates iteration counts until a target measuring
//! window is filled, then reports ns/iter and throughput. It is
//! deliberately simple: no statistics engine, no HTML reports — the
//! figure-level numbers this repo publishes come from the deterministic
//! simulation, and these microbenches only track relative regressions in
//! the hot data structures.
//!
//! Usage (in a `harness = false` bench target):
//!
//! ```no_run
//! use ix_testkit::bench::BenchRunner;
//!
//! let mut r = BenchRunner::from_args();
//! r.bench("rss/toeplitz", |b| b.iter(|| 2 + 2));
//! r.finish();
//! ```
//!
//! `IX_BENCH_QUICK=1` shortens the measuring window to a smoke-test
//! length (used by `ci.sh` so benches stay compiled *and* runnable
//! without burning CI minutes).

use std::time::{Duration, Instant};

/// Per-iteration measurement state handed to the bench closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the calibrated number of iterations, timing the
    /// whole batch. Call exactly once per invocation of the closure
    /// passed to [`BenchRunner::bench`].
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Like [`Bencher::iter`], but `f` reports the time spent in the
    /// measured region itself. Use when each iteration must restore
    /// state (e.g. undo a migration) that should not count against the
    /// operation under test.
    pub fn iter_timed(&mut self, mut f: impl FnMut() -> Duration) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            total += f();
        }
        self.elapsed = total;
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/case` by convention).
    pub name: String,
    /// Nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations in the final measured batch.
    pub iters: u64,
}

/// Runs registered benchmarks, with substring filtering from argv like
/// the libtest/criterion harnesses.
pub struct BenchRunner {
    filter: Option<String>,
    target: Duration,
    results: Vec<BenchResult>,
}

impl BenchRunner {
    /// Builds a runner configured from `std::env::args`: the first
    /// non-flag argument is a substring filter (flags such as `--bench`
    /// that cargo passes are ignored).
    pub fn from_args() -> BenchRunner {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let target = if std::env::var("IX_BENCH_QUICK").is_ok_and(|v| v == "1") {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(250)
        };
        BenchRunner {
            filter,
            target,
            results: Vec::new(),
        }
    }

    /// Measures one benchmark; `f` must call [`Bencher::iter`] once.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        // Calibration: grow the batch until it fills the target window.
        loop {
            f(&mut b);
            if b.elapsed >= self.target || b.iters >= 1 << 40 {
                break;
            }
            let grow = if b.elapsed.is_zero() {
                100
            } else {
                // Aim ~20% past the target to converge in few rounds.
                let needed = self.target.as_nanos() as f64 / b.elapsed.as_nanos() as f64;
                (needed * 1.2).clamp(2.0, 100.0) as u64
            };
            b.iters = b.iters.saturating_mul(grow);
        }
        let ns = b.elapsed.as_nanos() as f64 / b.iters as f64;
        let rate = if ns > 0.0 { 1e9 / ns } else { f64::INFINITY };
        println!("{name:<44} {ns:>14.1} ns/iter {:>14.3} Mops/s  ({} iters)", rate / 1e6, b.iters);
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter: ns,
            iters: b.iters,
        });
    }

    /// Completed measurements so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing summary line.
    pub fn finish(self) {
        println!("\n{} benchmark(s) run.", self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_and_reports() {
        std::env::set_var("IX_BENCH_QUICK", "1");
        let mut r = BenchRunner::from_args();
        let mut acc = 0u64;
        r.bench("selftest/add", |b| {
            b.iter(|| {
                acc = acc.wrapping_add(1);
                acc
            })
        });
        assert_eq!(r.results().len(), 1);
        assert!(r.results()[0].ns_per_iter > 0.0);
        assert!(r.results()[0].iters >= 1);
    }
}
