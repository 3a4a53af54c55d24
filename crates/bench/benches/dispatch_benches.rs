//! Dispatch scaling: engine-gated fan-out vs. naive linear fan-out as the
//! number of subscriptions hosted on one peer grows (16 / 64 / 256).
//!
//! The paper's Figure 5 claim: each peer runs *one* shared two-stage
//! filtering processor, so per-alert cost is sublinear in the number of
//! hosted subscriptions.  `naive_dispatch = true` reproduces the
//! pre-decomposition behaviour (every alert fans out to every consumer and
//! each Select re-evaluates its conditions linearly) as the baseline.
//!
//! Besides the Criterion groups, this bench writes the `BENCH_dispatch.json`
//! trajectory to the workspace root.  Before it writes the file it asserts
//! the axis's contract: the engine stays ≥ 3x over naive at 256
//! subscriptions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_workloads::SubscriptionStorm;

const SUBSCRIPTION_COUNTS: [usize; 3] = [16, 64, 256];
/// The subscription count whose speedup the contract bounds.
const GATED_SUBSCRIPTIONS: usize = 256;

fn storm_monitor(naive_dispatch: bool, n_subs: usize) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        naive_dispatch,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "hub.net", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = SubscriptionStorm::new(1);
    let handles = storm
        .subscriptions(n_subs)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    (monitor, handles)
}

fn calls_per_run() -> usize {
    if full_run_requested() {
        1_000
    } else {
        200
    }
}

fn dispatch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_scaling");
    let calls = SubscriptionStorm::new(9).calls(calls_per_run());
    for n_subs in SUBSCRIPTION_COUNTS {
        for (label, naive) in [("engine", false), ("naive", true)] {
            group.bench_function(BenchmarkId::new(label, n_subs), |b| {
                // Deployment happens once; the timed body is pure dispatch.
                let (mut monitor, _) = storm_monitor(naive, n_subs);
                b.iter(|| {
                    for call in &calls {
                        monitor.inject_soap_call(black_box(call));
                    }
                    monitor.run_until_idle();
                    monitor.operator_invocations
                })
            });
        }
    }
    group.finish();
}

fn deploy_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_deploy");
    // Incremental engine adjustment: deploying the N-th subscription must not
    // rebuild the peer's whole filter index.
    for n_subs in SUBSCRIPTION_COUNTS {
        group.bench_function(BenchmarkId::new("deploy", n_subs), |b| {
            b.iter(|| storm_monitor(false, black_box(n_subs)).1.len())
        });
    }
    group.finish();
}

/// One timed dispatch run; returns (ns per call, results delivered).
fn timed_run(naive: bool, n_subs: usize, calls_n: usize) -> (f64, Monitor) {
    let (mut monitor, handles) = storm_monitor(naive, n_subs);
    let calls = SubscriptionStorm::new(9).calls(calls_n);
    let start = Instant::now();
    for call in &calls {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();
    let elapsed = start.elapsed().as_nanos() as f64 / calls_n as f64;
    let delivered: usize = handles.iter().map(|h| monitor.results(h).len()).sum();
    black_box(delivered);
    (elapsed, monitor)
}

/// Asserts the dispatch contract, then emits the BENCH_dispatch.json
/// trajectory at the workspace root.
fn emit_trajectory(_c: &mut Criterion) {
    let calls_n = calls_per_run();
    let repeats = if full_run_requested() { 5 } else { 3 };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let best = |naive: bool| -> (f64, Monitor) {
            (0..repeats)
                .map(|_| timed_run(naive, n_subs, calls_n))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one repeat")
        };
        let (engine_ns, engine_monitor) = best(false);
        let (naive_ns, _) = best(true);
        let stats = engine_monitor
            .peer_filter_stats("hub.net")
            .expect("hub engine stats");
        let dispatch = engine_monitor.dispatch_stats();
        let complex_per_alert = stats.complex_evaluations as f64 / stats.documents.max(1) as f64;
        let speedup = naive_ns / engine_ns;
        eprintln!(
            "dispatch [{n_subs} subs]: engine {engine_ns:.0} ns/call vs naive {naive_ns:.0} \
             ns/call (speedup {speedup:.2}x); {complex_per_alert:.1} complex evaluations/alert, \
             {} gate rejections",
            dispatch.gate_rejections
        );
        rows.push(format!(
            "    {{\"subscriptions\": {n_subs}, \"engine_ns_per_call\": {engine_ns:.0}, \
             \"naive_ns_per_call\": {naive_ns:.0}, \"speedup\": {speedup:.3}, \
             \"complex_evaluations_per_alert\": {complex_per_alert:.2}, \
             \"gate_rejections\": {}, \"gate_passes\": {}}}",
            dispatch.gate_rejections, dispatch.gate_passes
        ));
        speedups.push((n_subs, speedup));
    }
    let (_, speedup) = speedups
        .into_iter()
        .find(|&(n_subs, _)| n_subs == GATED_SUBSCRIPTIONS)
        .expect("the trajectory has a row at the gated subscription count");
    assert!(
        speedup >= 3.0,
        "dispatch speedup regressed below 3x: {speedup:.3}x at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    let json =
        format!(
        "{{\n  \"bench\": \"dispatch\",\n  \"mode\": \"{}\",\n  \"calls_per_run\": {calls_n},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if full_run_requested() { "full" } else { "quick" },
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = dispatch_scaling, deploy_scaling, emit_trajectory
}
criterion_main!(benches);
