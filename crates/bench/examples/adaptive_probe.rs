//! Calibration probe for the adaptive filter engine: prints per-mode
//! wall-clock cost and the cost-model inputs at several subscription counts.
//! The constants it calibrates are the private ones at the top of
//! `crates/filter/src/engine.rs` (no caller can set them); run with
//! `cargo run --release -p p2pmon-bench --example adaptive_probe`.

use std::time::Instant;

use p2pmon_filter::{EngineMode, FilterEngine, NaiveFilter};
use p2pmon_workloads::SubscriptionWorkload;

fn best_ns(repeats: usize, docs: usize, mut run: impl FnMut() -> usize) -> f64 {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run());
            start.elapsed().as_nanos() as f64 / docs as f64
        })
        .min_by(f64::total_cmp)
        .unwrap()
}

fn main() {
    let n_docs = 64;
    let repeats = 5;
    for &subs in &[100usize, 300, 1_000, 3_000, 10_000] {
        let mut workload = SubscriptionWorkload::new(42);
        let subscriptions = workload.subscriptions(subs);
        let documents = workload.documents(n_docs, 4, 3);

        let mut staged = FilterEngine::from_subscriptions(subscriptions.clone());
        let mut naive = NaiveFilter::from_subscriptions(subscriptions.clone());
        // The memoized scan in isolation: no engine promotes before its 8th
        // document, so copies of a fresh adaptive engine are timed over 7;
        // the original then takes the same 7 to show its cost-model inputs.
        let scan_docs = &documents[..7];
        let mut memo = FilterEngine::adaptive();
        memo.add_all(subscriptions.clone());
        let memo_ns = (0..repeats)
            .map(|_| {
                let mut fresh = memo.clone();
                best_ns(1, scan_docs.len(), || {
                    scan_docs
                        .iter()
                        .map(|d| fresh.process(d).matched.len())
                        .sum()
                })
            })
            .min_by(f64::total_cmp)
            .unwrap();
        for d in scan_docs {
            memo.process(d);
        }
        assert_eq!(memo.mode(), EngineMode::Naive);
        // Default adaptive engine, warmed until its mode settles; a
        // promotion is one build of the staged index, timed here.
        let mut adaptive = FilterEngine::adaptive();
        adaptive.add_all(subscriptions);
        let mut promotion_us = 0.0;
        for _ in 0..3 {
            for d in &documents {
                let before = adaptive.stats.promotions;
                let start = Instant::now();
                adaptive.process(d);
                if adaptive.stats.promotions > before {
                    promotion_us = start.elapsed().as_nanos() as f64 / 1e3;
                }
            }
        }

        let staged_ns = best_ns(repeats, n_docs, || {
            documents
                .iter()
                .map(|d| staged.process(d).matched.len())
                .sum()
        });
        let naive_ns = best_ns(repeats, n_docs, || {
            documents.iter().map(|d| naive.matching(d).len()).sum()
        });
        let adaptive_ns = best_ns(repeats, n_docs, || {
            documents
                .iter()
                .map(|d| adaptive.process(d).matched.len())
                .sum()
        });
        println!(
            "subs={subs:>6} naive={naive_ns:>9.0} memo={memo_ns:>9.0} staged={staged_ns:>9.0} \
             adaptive={adaptive_ns:>9.0} ns/doc | memo_speedup={:.2}x staged_speedup={:.2}x \
             adaptive_speedup={:.2}x | mode={} ewma={:.1} staged_est={:.1} promos={} \
             promotion={promotion_us:.0}us ({:.2}us/sub)",
            naive_ns / memo_ns,
            naive_ns / staged_ns,
            naive_ns / adaptive_ns,
            adaptive.mode(),
            memo.naive_cost_ewma(),
            memo.staged_estimate(),
            adaptive.stats.promotions,
            promotion_us / subs as f64,
        );
    }
}
