//! Experiments E2 and E3: the Filter (Section 4).
//!
//! * **E2** — throughput of the two-stage FilterEngine vs. the naive
//!   evaluate-everything baseline, as the number of subscriptions grows.
//! * **E3** — the AES hash-tree vs. a linear scan over the subscriptions'
//!   simple conditions.
//!
//! Besides the Criterion groups, this bench writes the `BENCH_filter.json`
//! trajectory to the workspace root (preFilter probes and AES hash-tree sizes
//! for E2 and E3).  Before it writes the file it asserts the axis's contract: the
//! engine is never slower than naive at any measured count, and ≥ 5.5x at
//! 10 000 subscriptions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_filter::{FilterEngine, NaiveFilter};
use p2pmon_workloads::SubscriptionWorkload;

fn e2_filter_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_filter_throughput");
    for &subs in &[100usize, 1_000, 10_000] {
        let mut workload = SubscriptionWorkload::new(42);
        let subscriptions = workload.subscriptions(subs);
        let documents = workload.documents(64, 4, 3);
        let mut engine = FilterEngine::from_subscriptions(subscriptions.clone());
        let mut naive = NaiveFilter::from_subscriptions(subscriptions);

        group.bench_with_input(BenchmarkId::new("two_stage", subs), &subs, |b, _| {
            b.iter(|| {
                let mut matched = 0usize;
                for doc in &documents {
                    matched += engine.process(black_box(doc)).matched.len();
                }
                matched
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", subs), &subs, |b, _| {
            b.iter(|| {
                let mut matched = 0usize;
                for doc in &documents {
                    matched += naive.matching(black_box(doc)).len();
                }
                matched
            })
        });
    }
    group.finish();
}

fn e3_aes_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_aes_scaling");
    for &subs in &[1_000usize, 10_000, 50_000] {
        let mut workload = SubscriptionWorkload::new(7);
        workload.complex_fraction = 0.0; // simple subscriptions only
        let subscriptions = workload.subscriptions(subs);
        let documents = workload.documents(64, 5, 0);
        let mut engine = FilterEngine::from_subscriptions(subscriptions.clone());
        eprintln!(
            "e3: {} subscriptions -> {} AES hash-tree nodes",
            subs,
            engine.aes_node_count()
        );
        let mut naive = NaiveFilter::from_subscriptions(subscriptions);

        group.bench_with_input(BenchmarkId::new("aes_hash_tree", subs), &subs, |b, _| {
            b.iter(|| {
                let mut matched = 0usize;
                for doc in &documents {
                    matched += engine.process(black_box(doc)).matched.len();
                }
                matched
            })
        });
        group.bench_with_input(BenchmarkId::new("linear_scan", subs), &subs, |b, _| {
            b.iter(|| {
                let mut matched = 0usize;
                for doc in &documents {
                    matched += naive.matching(black_box(doc)).len();
                }
                matched
            })
        });
    }
    group.finish();
}

/// Best-of-N wall-clock nanoseconds per document for a closure run over a
/// document set.
fn best_ns_per_doc(repeats: usize, docs: usize, mut run: impl FnMut() -> usize) -> f64 {
    (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(run());
            start.elapsed().as_nanos() as f64 / docs.max(1) as f64
        })
        .min_by(f64::total_cmp)
        .expect("at least one repeat")
}

/// Emits the BENCH_filter.json trajectory at the workspace root: the E2
/// engine-vs-naive shape per subscription count, the preFilter probes the
/// engine counted per document (deterministic, unlike the timings), the E3
/// AES hash-tree size per row.  Asserts the filter contract before writing.
fn emit_trajectory(_c: &mut Criterion) {
    let repeats = if full_run_requested() { 5 } else { 3 };
    let n_docs = if full_run_requested() { 128 } else { 64 };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &subs in &[100usize, 1_000, 10_000] {
        let mut workload = SubscriptionWorkload::new(42);
        let subscriptions = workload.subscriptions(subs);
        let documents = workload.documents(n_docs, 4, 3);
        let mut engine = FilterEngine::from_subscriptions(subscriptions.clone());
        let mut naive = NaiveFilter::from_subscriptions(subscriptions);
        let engine_ns = best_ns_per_doc(repeats, documents.len(), || {
            documents
                .iter()
                .map(|d| engine.process(d).matched.len())
                .sum()
        });
        let naive_ns = best_ns_per_doc(repeats, documents.len(), || {
            documents.iter().map(|d| naive.matching(d).len()).sum()
        });
        let stats = &engine.stats;
        let complex_per_doc = stats.complex_evaluations as f64 / stats.documents.max(1) as f64;
        let probes_per_doc = stats.condition_probes as f64 / stats.documents.max(1) as f64;
        let speedup = naive_ns / engine_ns;
        eprintln!(
            "filter [{subs} subs]: engine {engine_ns:.0} ns/doc vs naive {naive_ns:.0} ns/doc \
             (speedup {speedup:.2}x) at {probes_per_doc:.2} preFilter probes/doc; {} AES nodes, \
             {complex_per_doc:.1} complex evaluations/doc",
            engine.aes_node_count()
        );
        assert!(
            speedup >= 1.0,
            "filter engine is SLOWER than naive at {subs} subscriptions — the small-N \
             regression is back: {speedup:.3}x"
        );
        rows.push(format!(
            "    {{\"subscriptions\": {subs}, \"engine_ns_per_doc\": {engine_ns:.0}, \
             \"naive_ns_per_doc\": {naive_ns:.0}, \"speedup\": {speedup:.3}, \
             \"condition_probes_per_doc\": {probes_per_doc:.2}, \
             \"aes_nodes\": {}, \
             \"complex_evaluations_per_doc\": {complex_per_doc:.2}}}",
            engine.aes_node_count()
        ));
        speedups.push((subs, speedup));
    }
    let (_, ceiling) = speedups
        .into_iter()
        .find(|&(subs, _)| subs == 10_000)
        .expect("the trajectory has a row at 10000 subscriptions");
    assert!(
        ceiling >= 5.5,
        "filter speedup at 10000 subscriptions regressed below 5.5x: {ceiling:.3}x"
    );

    let json =
        format!(
        "{{\n  \"bench\": \"filter\",\n  \"mode\": \"{}\",\n  \"documents_per_run\": {n_docs},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if full_run_requested() { "full" } else { "quick" },
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_filter.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = e2_filter_throughput, e3_aes_scaling, emit_trajectory
}
criterion_main!(benches);
