//! Shared helpers for the benchmark harness.
//!
//! The harness times; it does not decide what the paper's claims mean.  Each
//! of the six benches in `benches/` runs Criterion groups and writes one
//! `BENCH_*.json` trajectory at the workspace root, asserting before it
//! writes only what needs the full trajectory: timing ratios (dispatch,
//! filter, scale growth) and the deterministic bounds that exist only at
//! the largest tiers.  The deterministic contracts at smaller sizes (reuse,
//! replicas, placement locality, Chord hops, sketch accuracy, chaos
//! conservation) are tests in `cargo test`, over the same
//! `p2pmon_workloads::runners` and `p2pmon_workloads::chaos` runs the
//! benches record.

use criterion::Criterion;
use std::time::Duration;

/// The single knob for fast-vs-full benchmark runs.
///
/// By default this returns a Criterion instance tuned for the
/// simulation-heavy groups: few samples, short measurement windows, no plots
/// — quick enough that `cargo bench -p p2pmon-bench` finishes in a couple of
/// minutes and is usable as a smoke run. Set `P2PMON_BENCH_FULL=1` to get a
/// full-fidelity configuration (more samples, longer windows) when producing
/// numbers meant for BENCH_*.json trajectories or cross-PR comparisons.
pub fn quick_criterion() -> Criterion {
    if full_run_requested() {
        Criterion::default()
            .sample_size(50)
            .warm_up_time(Duration::from_secs(1))
            .measurement_time(Duration::from_secs(3))
            .without_plots()
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(800))
            .without_plots()
    }
}

/// True when the environment asks for the full-fidelity configuration
/// (`P2PMON_BENCH_FULL` set to anything but `0`/empty).
pub fn full_run_requested() -> bool {
    std::env::var("P2PMON_BENCH_FULL")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::full_run_requested;

    #[test]
    fn quick_is_the_default() {
        // The knob must only flip when the variable is explicitly set; the
        // test environment does not set it.
        if std::env::var("P2PMON_BENCH_FULL").is_err() {
            assert!(!full_run_requested());
        }
    }
}
