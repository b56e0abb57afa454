//! Benchmark harness for the IX reproduction.
//!
//! One binary per paper table/figure (see `src/bin/`): each regenerates
//! the corresponding rows/series. Shared output formatting lives here,
//! alongside the parallel [`sweep`] runner the figure binaries farm
//! their points out with. A binary's stdout is a pure function of its
//! seed; the one host timing it takes goes to stderr. Per-layer host
//! costs are timed by the standalone `benchmark/` crate.

pub mod sweep;

/// Prints a figure/table header with the paper reference.
pub fn banner(id: &str, caption: &str) {
    println!("==========================================================");
    println!("{id} — {caption}");
    println!("==========================================================");
}

/// Formats a nanosecond latency as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting() {
        assert_eq!(super::us(5_700), "5.70");
    }
}
