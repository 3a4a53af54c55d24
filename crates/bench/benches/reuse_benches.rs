//! Stream reuse (E7): reuse-on vs reuse-off over overlapping-subscription
//! storms — deployment cost, per-item network traffic and reuse hit rate at
//! 16/64/256 overlapping subscriptions drawn from a fixed pool of shapes.
//!
//! Section 5's claim: the Subscription Manager "searches for existing
//! streams that could help support (portions of) the new task", so
//! overlapping subscriptions share work and traffic.  With reuse on, the
//! duplicates of each shape collapse into one live channel subscription on
//! the producer's output and ride a per-peer multicast; with reuse off each
//! duplicate redeploys the pipeline and ships its own copy of every result.
//! Sink output is byte-identical either way (asserted here and proptested in
//! `p2pmon-core`); the difference is pure cost.
//!
//! Besides the Criterion groups, this bench writes the `BENCH_reuse.json`
//! trajectory to the workspace root.  Before it writes the file it asserts
//! the contract of each of its three axes (reuse, replica, locality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::OverlappingStorm;

#[path = "common/locality.rs"]
mod locality;

const SUBSCRIPTION_COUNTS: [usize; 3] = [16, 64, 256];
/// The subscription count whose row each axis's contract bounds.
const GATED_SUBSCRIPTIONS: usize = 256;
const SHAPES: usize = 8;
/// The clustered replica axis: consumers on CLUSTERS × PEERS_PER_CLUSTER
/// distinct manager peers, close inside a cluster, far from the origin hub.
const CLUSTERS: usize = 2;
const PEERS_PER_CLUSTER: usize = 4;

fn storm_monitor(enable_reuse: bool, n_subs: usize) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = OverlappingStorm::new(1, SHAPES);
    let handles = storm
        .subscriptions(n_subs)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    (monitor, handles)
}

fn calls_per_run() -> usize {
    if full_run_requested() {
        500
    } else {
        120
    }
}

/// Deployment cost: reuse-on pays the definition-database search but skips
/// re-deploying covered subtrees; reuse-off re-instantiates every duplicate.
fn reuse_deploy(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse_deploy");
    for n_subs in [16usize, 64] {
        for (label, enabled) in [("reuse-on", true), ("reuse-off", false)] {
            group.bench_function(BenchmarkId::new(label, n_subs), |b| {
                b.iter(|| storm_monitor(enabled, black_box(n_subs)).1.len())
            });
        }
    }
    group.finish();
}

/// Steady-state dispatch over the shared streams.
fn reuse_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse_dispatch");
    let calls = OverlappingStorm::new(9, SHAPES).calls(calls_per_run());
    for (label, enabled) in [("reuse-on", true), ("reuse-off", false)] {
        group.bench_function(BenchmarkId::new(label, 64), |b| {
            let (mut monitor, _) = storm_monitor(enabled, 64);
            b.iter(|| {
                for call in &calls {
                    monitor.inject_soap_call(black_box(call));
                }
                monitor.run_until_idle();
                monitor.operator_invocations
            })
        });
    }
    group.finish();
}

struct Run {
    deploy_ns: f64,
    tasks: usize,
    messages: u64,
    bytes: u64,
    results: usize,
    monitor: Monitor,
}

/// One measured run: deploy `n_subs`, drive the storm traffic, read the
/// counters.
fn timed_run(enable_reuse: bool, n_subs: usize, calls_n: usize) -> Run {
    let start = Instant::now();
    let (mut monitor, handles) = storm_monitor(enable_reuse, n_subs);
    let deploy_ns = start.elapsed().as_nanos() as f64 / n_subs as f64;
    let tasks = handles
        .iter()
        .map(|h| monitor.report(h).expect("deployed").tasks)
        .sum();
    let mut traffic = OverlappingStorm::new(9, SHAPES);
    for call in traffic.calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let results = handles.iter().map(|h| monitor.results(h).len()).sum();
    let stats = monitor.network_stats();
    Run {
        deploy_ns,
        tasks,
        messages: stats.total_messages,
        bytes: stats.total_bytes,
        results,
        monitor,
    }
}

/// One clustered run for the replica axis: every subscription is submitted
/// from its clustered consumer peer; with replicas on, later duplicates
/// attach to the closest re-published copy instead of the origin hub.
struct ReplicaRun {
    origin_messages: u64,
    total_messages: u64,
    results: usize,
    monitor: Monitor,
}

fn replica_run(enable_replicas: bool, n_subs: usize, calls_n: usize) -> ReplicaRun {
    let storm = OverlappingStorm::clustered(1, SHAPES, CLUSTERS, PEERS_PER_CLUSTER);
    let mut monitor = Monitor::new(MonitorConfig {
        enable_replicas,
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(n_subs)
        .iter()
        .enumerate()
        .map(|(i, text)| {
            monitor
                .submit(storm.manager_of(i), text)
                .expect("clustered storm deploys")
        })
        .collect();
    let mut traffic = storm.clone();
    for call in traffic.calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let results = handles.iter().map(|h| monitor.results(h).len()).sum();
    let stats = monitor.network_stats();
    let origin_messages = stats
        .per_peer()
        .get(&"hub.net".into())
        .map(|t| t.messages_out)
        .unwrap_or(0);
    let total_messages = stats.total_messages;
    ReplicaRun {
        origin_messages,
        total_messages,
        results,
        monitor,
    }
}

/// Asserts the reuse, replica and locality contracts, then emits the
/// BENCH_reuse.json trajectory at the workspace root.
fn emit_trajectory(_c: &mut Criterion) {
    let calls_n = calls_per_run();
    let mut rows = Vec::new();
    let mut reuse_axis = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let on = timed_run(true, n_subs, calls_n);
        let off = timed_run(false, n_subs, calls_n);
        assert_eq!(
            on.results, off.results,
            "reuse must not change what the sinks receive"
        );
        let reuse = on.monitor.reuse_stats();
        let per_item = |messages: u64, results: usize| messages as f64 / results.max(1) as f64;
        eprintln!(
            "reuse [{n_subs} subs, {SHAPES} shapes]: hit rate {:.2}, {} operators saved, \
             messages {} vs {} ({} saved by multicast), {:.2} vs {:.2} msgs/result, \
             deploy {:.0} vs {:.0} ns/sub",
            reuse.hit_rate(),
            reuse.operators_saved,
            on.messages,
            off.messages,
            reuse.messages_saved,
            per_item(on.messages, on.results),
            per_item(off.messages, off.results),
            on.deploy_ns,
            off.deploy_ns,
        );
        rows.push(format!(
            "    {{\"subscriptions\": {n_subs}, \"shapes\": {SHAPES}, \
             \"hit_rate\": {:.4}, \"covered_nodes\": {}, \"operators_saved\": {}, \
             \"reuse_on_messages\": {}, \"reuse_off_messages\": {}, \
             \"messages_saved_by_multicast\": {}, \
             \"reuse_on_bytes\": {}, \"reuse_off_bytes\": {}, \
             \"reuse_on_msgs_per_result\": {:.3}, \"reuse_off_msgs_per_result\": {:.3}, \
             \"reuse_on_tasks\": {}, \"reuse_off_tasks\": {}, \
             \"reuse_on_deploy_ns_per_sub\": {:.0}, \"reuse_off_deploy_ns_per_sub\": {:.0}, \
             \"results\": {}}}",
            reuse.hit_rate(),
            reuse.covered_nodes,
            reuse.operators_saved,
            on.messages,
            off.messages,
            reuse.messages_saved,
            on.bytes,
            off.bytes,
            per_item(on.messages, on.results),
            per_item(off.messages, off.results),
            on.tasks,
            off.tasks,
            on.deploy_ns,
            off.deploy_ns,
            on.results,
        ));
        reuse_axis.push((n_subs, reuse.hit_rate(), on.messages, off.messages));
    }
    let (_, hit_rate, on_messages, off_messages) = reuse_axis
        .into_iter()
        .find(|row| row.0 == GATED_SUBSCRIPTIONS)
        .expect("the reuse axis has a row at the gated subscription count");
    assert!(
        hit_rate >= 0.5,
        "reuse hit rate regressed below 50%: {hit_rate:.4} at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        on_messages <= off_messages,
        "stream reuse sent MORE network messages than the reuse-off baseline: \
         {on_messages} vs {off_messages} at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    // The replica axis: same shapes, but consumers spread over clustered
    // manager peers — replica-on must serve most remote consumers from
    // re-published copies and take load off the origin hub.
    let mut replica_rows = Vec::new();
    let mut replica_axis = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let on = replica_run(true, n_subs, calls_n);
        let off = replica_run(false, n_subs, calls_n);
        assert_eq!(
            on.results, off.results,
            "replicas must not change what the sinks receive"
        );
        let stats = on.monitor.replica_stats();
        let remote = stats.consumers_via_replica + stats.consumers_via_origin;
        eprintln!(
            "replica [{n_subs} subs, {SHAPES} shapes, {CLUSTERS}x{PEERS_PER_CLUSTER} consumers]: \
             {} replicas, {}/{} remote consumers via replica, origin messages {} vs {}, \
             {} forwarded by replicas",
            stats.replicas_created,
            stats.consumers_via_replica,
            remote,
            on.origin_messages,
            off.origin_messages,
            stats.origin_messages_saved,
        );
        replica_rows.push(format!(
            "    {{\"subscriptions\": {n_subs}, \"shapes\": {SHAPES}, \
             \"clusters\": {CLUSTERS}, \"peers_per_cluster\": {PEERS_PER_CLUSTER}, \
             \"replicas_created\": {}, \"remote_consumers\": {remote}, \
             \"served_by_replica\": {}, \"served_by_origin\": {}, \
             \"replica_on_origin_messages\": {}, \"replica_off_origin_messages\": {}, \
             \"replica_on_total_messages\": {}, \"replica_off_total_messages\": {}, \
             \"origin_messages_saved\": {}, \"results\": {}}}",
            stats.replicas_created,
            stats.consumers_via_replica,
            stats.consumers_via_origin,
            on.origin_messages,
            off.origin_messages,
            on.total_messages,
            off.total_messages,
            stats.origin_messages_saved,
            on.results,
        ));
        replica_axis.push((
            n_subs,
            remote,
            stats.consumers_via_replica,
            on.origin_messages,
            off.origin_messages,
        ));
    }
    let (_, remote, served, on_origin, off_origin) = replica_axis
        .into_iter()
        .find(|row| row.0 == GATED_SUBSCRIPTIONS)
        .expect("the replica axis has a row at the gated subscription count");
    assert!(
        remote > 0,
        "the clustered storm produced no remote consumers at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        served as f64 / remote as f64 >= 0.5,
        "replicas serve fewer than 50% of remote consumers: {served}/{remote} at \
         {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        on_origin <= off_origin,
        "replica-on sent MORE origin-peer messages than replica-off: {on_origin} vs \
         {off_origin} at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    // The locality axis: rate- and load-aware placement vs the count-based
    // heuristic on the paired (multi-input) storm, scored by bytes ×
    // latency-weighted hops, plus the 10k MassiveStorm no-regression tier.
    // Placement must never change semantics: every row asserts byte-identical
    // sink output across the two modes, and that the sinks received something.
    let mut locality_rows = Vec::new();
    let locality_row =
        |workload: &str, aware: &locality::LocalityRow, count: &locality::LocalityRow| {
            assert_eq!(
                (aware.results, aware.sink_fingerprint),
                (count.results, count.sink_fingerprint),
                "placement must not change what the sinks receive ({workload})"
            );
            assert!(
                aware.results > 0,
                "the {workload} locality row at {} subscriptions delivered nothing — the \
                 score passed vacuously: {aware:?}",
                aware.subscriptions
            );
            format!(
                "    {{\"workload\": \"{workload}\", \"subscriptions\": {}, \
             \"rate_aware_bytes_hops\": {:.0}, \"count_based_bytes_hops\": {:.0}, \
             \"rate_aware_bytes\": {}, \"count_based_bytes\": {}, \
             \"rate_aware_origin_egress\": {}, \"count_based_origin_egress\": {}, \
             \"rate_aware_replicas\": {}, \"count_based_replicas\": {}, \
             \"results\": {}, \"sink_bytes_identical\": true}}",
                aware.subscriptions,
                aware.bytes_hops,
                count.bytes_hops,
                aware.total_bytes,
                count.total_bytes,
                aware.origin_egress,
                count.origin_egress,
                aware.replicas,
                count.replicas,
                aware.results,
            )
        };
    let mut paired = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let aware = locality::run_paired(1, n_subs, calls_n, true);
        let count = locality::run_paired(1, n_subs, calls_n, false);
        eprintln!(
            "locality [paired-storm, {n_subs} subs]: bytes×hops {:.0} rate-aware vs {:.0} \
             count-based ({:.1}% less), origin egress {} vs {}",
            aware.bytes_hops,
            count.bytes_hops,
            100.0 * (count.bytes_hops - aware.bytes_hops) / count.bytes_hops.max(1.0),
            aware.origin_egress,
            count.origin_egress,
        );
        locality_rows.push(locality_row("paired-storm", &aware, &count));
        paired.push((aware, count));
    }
    let (aware, count) = paired
        .iter()
        .find(|(aware, _)| aware.subscriptions == GATED_SUBSCRIPTIONS)
        .expect("the locality axis has a paired-storm row at the gated subscription count");
    assert!(
        aware.bytes_hops < count.bytes_hops,
        "rate-aware placement no longer beats count-based on bytes x latency-weighted hops \
         over the paired storm at {GATED_SUBSCRIPTIONS} subscriptions: {aware:?} vs {count:?}"
    );
    assert!(
        aware.origin_egress <= count.origin_egress,
        "rate-aware placement sent MORE bytes out of the origin hubs than count-based at \
         {GATED_SUBSCRIPTIONS} subscriptions: {aware:?} vs {count:?}"
    );
    {
        let aware = locality::run_massive(1, 10_000, 400, true);
        let count = locality::run_massive(1, 10_000, 400, false);
        eprintln!(
            "locality [massive-storm, 10000 subs]: bytes×hops {:.0} rate-aware vs {:.0} \
             count-based (single-input shapes: must not regress)",
            aware.bytes_hops, count.bytes_hops,
        );
        locality_rows.push(locality_row("massive-storm", &aware, &count));
        assert!(
            aware.bytes_hops <= count.bytes_hops,
            "rate-aware placement regressed the single-input MassiveStorm tier at 10000 \
             subscriptions — it must change nothing there: {aware:?} vs {count:?}"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"reuse\",\n  \"mode\": \"{}\",\n  \"calls_per_run\": {calls_n},\n  \
         \"results\": [\n{}\n  ],\n  \"replica\": [\n{}\n  ],\n  \"locality\": [\n{}\n  ]\n}}\n",
        if full_run_requested() {
            "full"
        } else {
            "quick"
        },
        rows.join(",\n"),
        replica_rows.join(",\n"),
        locality_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reuse.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = reuse_deploy, reuse_dispatch, emit_trajectory
}
criterion_main!(benches);
