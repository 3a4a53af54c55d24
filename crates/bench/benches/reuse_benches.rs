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
//! Sink output is byte-identical either way (asserted by every pair run and
//! proptested in `p2pmon-core`); the difference is pure cost.
//!
//! Besides the Criterion groups, this bench writes the `BENCH_reuse.json`
//! trajectory (reuse, replica and locality axes) to the workspace root, from
//! the `p2pmon_workloads::runners` runs whose contracts
//! `crates/core/tests/bench_contracts.rs` asserts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_workloads::runners::{
    overlapping_monitor, replica_pair, reuse_pair, run_massive, run_paired, LocalityRow, CLUSTERS,
    PEERS_PER_CLUSTER, SHAPES,
};
use p2pmon_workloads::OverlappingStorm;

const SUBSCRIPTION_COUNTS: [usize; 3] = [16, 64, 256];

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
                b.iter(|| overlapping_monitor(enabled, black_box(n_subs)).1.len())
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
            let (mut monitor, _) = overlapping_monitor(enabled, 64);
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

/// Emits the BENCH_reuse.json trajectory at the workspace root.  The
/// contracts of its three axes are `crates/core/tests/bench_contracts.rs`,
/// over the same runs at the quick-mode sizes; each pair run asserts that
/// both sides' sinks agree.
fn emit_trajectory(_c: &mut Criterion) {
    let calls_n = calls_per_run();
    let per_item = |messages: u64, results: usize| messages as f64 / results.max(1) as f64;
    let mut rows = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let (on, off) = reuse_pair(n_subs, calls_n);
        let reuse = on.reuse;
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
    }
    // The replica axis: same shapes, but consumers spread over clustered
    // manager peers.
    let mut replica_rows = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let (on, off) = replica_pair(n_subs, calls_n);
        let stats = on.replicas;
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
    }
    // The locality axis: where placement and the provider load tie-break
    // put the paired (multi-input) storm's traffic, scored by bytes ×
    // latency-weighted hops, plus the 10k MassiveStorm tier.
    let locality_row = |workload: &str, row: &LocalityRow| {
        format!(
            "    {{\"workload\": \"{workload}\", \"subscriptions\": {}, \
             \"bytes_hops\": {:.0}, \"bytes\": {}, \"origin_egress\": {}, \
             \"replicas\": {}, \"results\": {}}}",
            row.subscriptions,
            row.bytes_hops,
            row.total_bytes,
            row.origin_egress,
            row.replicas,
            row.results,
        )
    };
    let mut locality_rows = Vec::new();
    for n_subs in SUBSCRIPTION_COUNTS {
        let row = run_paired(1, n_subs, calls_n);
        eprintln!(
            "locality [paired-storm, {n_subs} subs]: bytes×hops {:.0}, origin egress {}",
            row.bytes_hops, row.origin_egress,
        );
        locality_rows.push(locality_row("paired-storm", &row));
    }
    let row = run_massive(1, 10_000, 400);
    eprintln!(
        "locality [massive-storm, 10000 subs]: bytes×hops {:.0}, origin egress {}",
        row.bytes_hops, row.origin_egress,
    );
    // `cargo test` pins this tier at 1 000 subscriptions
    // (`placement_locality_is_pinned`, which says how to re-record); only
    // here does the 10 000-subscription row exist.  Its 400 calls do not
    // depend on the mode, so one pin holds for quick and full runs.
    assert_eq!(
        (row.bytes_hops, row.origin_egress),
        (91_055.0, 18_211),
        "the MassiveStorm's (bytes_hops, origin_egress) at 10000 subscriptions moved: {row:?}"
    );
    locality_rows.push(locality_row("massive-storm", &row));
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
