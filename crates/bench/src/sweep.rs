//! Parallel sweep runner for the figure binaries.
//!
//! Every figure in the suite is a sweep over independent simulation
//! points: each point builds its own `Simulator`, runs to completion,
//! and returns a plain-data result row. Nothing is shared between
//! points, so they farm out across cores with `std::thread::scope` —
//! no crates.io dependency, no unsafe, no channels-of-channels.
//!
//! Determinism: workers pull point *indices* from an atomic counter and
//! write results back into an index-addressed slot vector, so the
//! reassembled output is byte-identical to a serial run no matter how
//! the OS schedules the workers. `IX_SWEEP_THREADS=1` forces the serial
//! path (used by the determinism CI check on single-core hosts).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker count: `IX_SWEEP_THREADS` override, else the host parallelism.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("IX_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True when `IX_SWEEP_QUICK=1`: figure binaries shrink their sweeps to a
/// smoke-sized subset so CI can bound wall-clock.
pub fn quick() -> bool {
    std::env::var("IX_SWEEP_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The result of a sweep: rows in point order plus timing metadata.
pub struct SweepOutcome<R> {
    /// One result per input point, in input order.
    pub results: Vec<R>,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Maps `f` over `points` in parallel and reassembles results in input
/// order. `f` must be self-contained per point (the figure harnesses
/// construct their whole simulated testbed inside the closure).
pub fn run<P, R, F>(points: &[P], f: F) -> SweepOutcome<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = threads().min(points.len()).max(1);
    let start = Instant::now();
    let results: Vec<R> = if n == 1 {
        points.iter().map(&f).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let r = f(&points[i]);
                    *slots[i].lock().unwrap() = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every sweep point produces a result")
            })
            .collect()
    };
    SweepOutcome {
        results,
        wall: start.elapsed(),
        threads: n,
    }
}

/// Prints the sweep's wall clock as one `[sweep]` line on stderr: host
/// time never reaches a figure's stdout, which stays byte-reproducible.
pub fn record<R>(figure: &str, outcome: &SweepOutcome<R>) {
    eprintln!(
        "[sweep] {figure}: {} points in {:.1} ms on {} thread(s)",
        outcome.results.len(),
        outcome.wall.as_secs_f64() * 1e3,
        outcome.threads
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..257).collect();
        let out = run(&points, |&p| p * 3 + 1);
        assert_eq!(out.results.len(), points.len());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let out = run(&[] as &[u32], |&p| p);
        assert!(out.results.is_empty());
        assert_eq!(out.threads, 1);
        let out = run(&[7u32], |&p| p + 1);
        assert_eq!(out.results, vec![8]);
    }

    #[test]
    fn thread_env_override_forces_serial() {
        // The serial path must produce identical output to the parallel
        // path; exercise it directly rather than via the env var (tests
        // share a process, so setting env vars here would race).
        let points: Vec<u32> = (0..64).collect();
        let serial: Vec<u32> = points.iter().map(|&p| p ^ 0xa5).collect();
        let par = run(&points, |&p| p ^ 0xa5);
        assert_eq!(par.results, serial);
    }
}
