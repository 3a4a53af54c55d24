//! The MassiveStorm scale trajectory: 1k / 4k / 10k zipf-skewed
//! subscriptions over a clustered hub topology that grows with the
//! subscription count (see `p2pmon_workloads::MassiveStorm`).
//!
//! The paper's scaling claim is peer-to-peer: more subscriptions come with
//! more monitored peers, so per-alert dispatch cost must stay near-flat
//! (sublinear in the subscription count) and definition lookups must stay
//! logarithmic in the peer count.  Besides the Criterion group, this bench
//! writes `BENCH_scale.json` to the workspace root, after asserting the
//! timing contract: per-alert growth from the 1k to the 10k tier under 3x.
//! The Chord hop bound on definition lookups is a deterministic contract,
//! asserted on the same runner at 1k by `crates/core/tests/bench_contracts.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_workloads::runners::{run_scale, ScaleRow};

/// The gated trajectory: per-alert cost at 10k must stay under 3x the 1k
/// tier while the subscription count grows 10x.
const TIERS: [usize; 3] = [1_000, 4_000, 10_000];

fn calls_per_run() -> usize {
    // The timed region must dwarf scheduler/timer noise: at ~10-25 us per
    // alert, 1000+ calls keeps every tier's measurement in the tens of
    // milliseconds.
    if full_run_requested() {
        2_000
    } else {
        1_000
    }
}

/// Criterion tracks the smallest tier end to end (deploy + dispatch); the
/// full trajectory lives in `BENCH_scale.json`.
fn massive_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_massive_storm");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("subs", TIERS[0]), |b| {
        b.iter(|| run_scale(1, black_box(TIERS[0]), 50).results_delivered)
    });
    group.finish();
}

/// Asserts the scale contract, then emits the BENCH_scale.json trajectory at
/// the workspace root.
fn emit_trajectory(_c: &mut Criterion) {
    let calls_n = calls_per_run();
    let repeats = 3;
    let mut rows = Vec::new();
    let mut tiers = Vec::new();
    for n_subs in TIERS {
        // Median-of-N on the timing (min would let one lucky 1k run inflate
        // the gated 10k/1k ratio); the structural quantities (hops, bytes,
        // operators) are identical across repeats of one seed.
        let mut runs: Vec<ScaleRow> = (0..repeats)
            .map(|_| run_scale(1, n_subs, calls_n))
            .collect();
        runs.sort_by(|a, b| a.ns_per_alert.total_cmp(&b.ns_per_alert));
        let row = runs.swap_remove(repeats / 2);
        eprintln!(
            "scale [{} subs over {} peers]: {:.0} ns/alert, {} results, \
             {} chord ops at {:.2} avg hops (log2 bound {:.2}), {} operators, \
             deploy {:.0} ms",
            row.subscriptions,
            row.peers,
            row.ns_per_alert,
            row.results_delivered,
            row.dht_operations,
            row.dht_avg_hops,
            row.hops_bound(),
            row.operators,
            row.deploy_ms,
        );
        rows.push(format!(
            "    {{\"subscriptions\": {}, \"peers\": {}, \"dht_nodes\": {}, \
             \"ns_per_alert\": {:.0}, \"alerts\": {}, \"results_delivered\": {}, \
             \"sink_clone_bytes\": {}, \"network_bytes\": {}, \
             \"dht_avg_hops\": {:.3}, \"dht_operations\": {}, \
             \"operators\": {}, \"deploy_ms\": {:.0}}}",
            row.subscriptions,
            row.peers,
            row.dht_nodes,
            row.ns_per_alert,
            row.alerts,
            row.results_delivered,
            row.sink_clone_bytes,
            row.network_bytes,
            row.dht_avg_hops,
            row.dht_operations,
            row.operators,
            row.deploy_ms,
        ));
        tiers.push(row);
    }
    let tier = |n_subs: usize| {
        tiers
            .iter()
            .find(|row| row.subscriptions == n_subs)
            .expect("the trajectory has a row at every gated tier")
    };
    let (base, top) = (tier(1_000), tier(10_000));
    assert!(
        base.ns_per_alert > 0.0,
        "degenerate base tier (ns_per_alert <= 0): {base:?}"
    );
    let growth = top.ns_per_alert / base.ns_per_alert;
    eprintln!("per-alert growth 1000 -> 10000 subscriptions: {growth:.2}x (bound 3x)");
    assert!(
        growth < 3.0,
        "per-alert cost at 10000 subscriptions grew {growth:.2}x over the 1000 tier \
         (bound 3x) — dispatch stopped scaling sublinearly: {top:?}"
    );
    // A tier that delivers nothing dispatches nothing: the ratio above would
    // pass vacuously.  `cargo test` runs no 10k tier.
    assert!(
        top.results_delivered > 0,
        "the 10000-subscription tier delivered nothing: {top:?}"
    );
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"mode\": \"{}\",\n  \"calls_per_run\": {calls_n},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if full_run_requested() {
            "full"
        } else {
            "quick"
        },
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

// The trajectory runs first: Criterion's repeated 1k-tier sampling would
// otherwise warm that tier's caches far beyond the others and skew the
// gated 10k/1k ratio.
criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = emit_trajectory, massive_storm
}
criterion_main!(benches);
