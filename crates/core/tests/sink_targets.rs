//! What a covered subscription's sink receives, pinned: an ordered FNV-1a
//! digest of every sink after one 1 000-call batch through the
//! `alert_storm` shape (`MassiveStorm::sized(1, 256)`, where reuse turns
//! most subscriptions into a channel subscription on a shared stream), and
//! a replica forwarder — a pass-through whose output channel has
//! subscribers — that keeps forwarding every item to them.
//!
//! The digest was recorded when every pass-through root still ran as an
//! operator per item; however a root's result reaches its sink, each sink
//! must hold the same results in the same order.  To re-record, run
//! `cargo test -q --release -p p2pmon-core --test sink_targets --
//! --nocapture`: the test prints its constant.

use std::collections::BTreeMap;

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm};

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Results delivered and the ordered digest of every sink, in handle order.
fn sink_digest(monitor: &Monitor, handles: &[SubscriptionHandle]) -> (usize, u64) {
    let (mut results, mut digest) = (0, 0xcbf2_9ce4_8422_2325u64);
    for handle in handles {
        for result in monitor.results(handle) {
            results += 1;
            fnv(&mut digest, result.to_xml().as_bytes());
        }
        fnv(&mut digest, b"|");
    }
    (results, digest)
}

/// The `alert_storm` shape at 256 subscriptions after one 1 000-call batch.
fn alert_storm_sinks(deep_clone_items: bool) -> (usize, u64) {
    let mut storm = MassiveStorm::sized(1, 256);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: storm.dht_nodes(),
        deep_clone_items,
        ..MonitorConfig::default()
    });
    for peer in storm.monitored_peers.iter().chain(&storm.manager_peers()) {
        monitor.add_peer(peer.as_str());
    }
    let handles: Vec<SubscriptionHandle> = (0..256)
        .map(|i| {
            monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("storm subscription deploys")
        })
        .collect();
    for call in storm.calls(1_000) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    sink_digest(&monitor, &handles)
}

/// Results delivered and the digest of every sink, recorded with every
/// pass-through root running as an operator.
const ALERT_STORM_SINKS: (usize, u64) = (4343, 0xb32d_47e9_c2ea_6a8d);

#[test]
fn covered_sinks_receive_the_recorded_results_in_order() {
    let shared = alert_storm_sinks(false);
    println!(
        "const ALERT_STORM_SINKS: (usize, u64) = ({}, {:#018x});",
        shared.0, shared.1
    );
    assert_eq!(shared, ALERT_STORM_SINKS);
    assert_eq!(
        alert_storm_sinks(true),
        shared,
        "deep-copied items reach the sinks as the shared ones do"
    );
}

/// A replica forwarder is a pass-through whose output channel has
/// subscribers: it must keep running for them, so every subscriber riding
/// a replica receives every item its shape's origin subscriber does.
#[test]
fn a_replica_forwarder_keeps_forwarding_every_item() {
    const SHAPES: usize = 4;
    const SUBS: usize = 32;
    let storm = OverlappingStorm::clustered(1, SHAPES, 2, 4);
    let mut monitor = Monitor::new(MonitorConfig {
        enable_replicas: true,
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    let handles: Vec<SubscriptionHandle> = (0..SUBS)
        .map(|i| {
            monitor
                .submit(storm.manager_of(i), &storm.subscription(i))
                .expect("clustered storm deploys")
        })
        .collect();
    let mut traffic = storm.clone();
    for call in traffic.calls(200) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();

    let stats = monitor.replica_stats();
    assert!(
        stats.replicas_created > 0,
        "consumers re-publish: {stats:?}"
    );
    // Subscriptions of one shape differ only in their sink, so every sink
    // of a shape holds its shape's results, however its stream reached it.
    let mut by_shape: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for (i, handle) in handles.iter().enumerate() {
        by_shape.entry(i % SHAPES).or_default().push(handle);
    }
    let mut riders = 0;
    for (shape, members) in &by_shape {
        let expected = monitor.results(members[0]);
        assert!(!expected.is_empty(), "shape {shape} delivers incidents");
        for handle in members {
            let on_replica = monitor
                .subscribed_providers(handle)
                .iter()
                .any(|(peer, _)| !storm.monitored_peers.contains(peer));
            riders += usize::from(on_replica);
            assert_eq!(
                monitor.results(handle),
                expected,
                "shape {shape}: subscription {} (on a replica: {on_replica}) misses items",
                handle.0
            );
        }
    }
    assert!(riders > 0, "some subscriptions ride a replica");
}
