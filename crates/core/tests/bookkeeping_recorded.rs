//! The subscription lifetime's bookkeeping, step by step, against what the
//! string-keyed maps reported.
//!
//! Definition references, each deployment's owned definitions and their
//! producing subtrees, and the replica index are keyed by the `ChannelId`
//! placement or `output_channels` minted.  Until 67099a2 they were keyed by
//! `(String, String)` pairs built per task.  Two scripts compare the public
//! views after every step with values captured by running this very test at
//! that commit:
//!
//! * a `churn_mix`-shaped storm (16 shapes over 8 hubs, duplicates spread
//!   over 8 clusters of 8 consumer peers): 256 standing subscriptions, then
//!   40 steps that each retire the 8 oldest, submit 8 and dispatch 64 calls.
//!   Replicas are declared, outlive their forwarders' owners and retract,
//!   and orphans re-attach.
//! * the three aggregates of a 256-peer sketch storm, torn down in submit
//!   order, down to no operator at all.
//!
//! A step's digest covers `bookkeeping_snapshot()`, `replica_stats()`,
//! `reuse_stats()` and the network's total bytes and messages.  To
//! re-record, run `cargo test -q --release -p p2pmon-core --test
//! bookkeeping_recorded -- --nocapture --test-threads 1`: each test prints
//! its constant's digests as they appear in the source.
//!
//! `SKETCH_PARENT`'s first three digests were re-recorded when an
//! aggregate's leaf and merge stages stopped being tasks: a merge tree's
//! cross-peer edges register no channel consumer any more, so
//! `consumers_by_origin` no longer lists one entry per edge.  The last
//! digest (everything torn down) and all of `CHURN_PARENT` did not move.

use std::collections::VecDeque;

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{OverlappingStorm, SketchStorm};

/// FNV-1a over a byte stream, to compare the views without embedding them.
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest of one step: every public view of the bookkeeping, plus the
/// wire totals.
fn digest(monitor: &Monitor) -> u64 {
    let wire = monitor.network_stats();
    let text = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        monitor.bookkeeping_snapshot(),
        monitor.replica_stats(),
        monitor.reuse_stats(),
        wire.total_bytes,
        wire.total_messages
    );
    fnv(text.as_bytes())
}

/// The `churn_mix` storm of the end-to-end benchmark, seed 1.
fn churn_storm() -> OverlappingStorm {
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    storm
}

/// A monitor over the storm's hubs and consumer peers, configured as the
/// benchmark configures it.
fn churn_monitor(storm: &OverlappingStorm) -> Monitor {
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .chain(&storm.consumer_peers)
        .cloned()
        .collect();
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: peers.len(),
        ..MonitorConfig::default()
    });
    for peer in peers {
        monitor.add_peer(peer);
    }
    monitor
}

/// Digests after the standing subscriptions deployed, then after each step.
const CHURN_PARENT: [u64; 41] = [
    0x328979144f85b8f0,
    0x4d10658cdf3cb31f,
    0xcc34b166e9712835,
    0x2994ef9db4781ad3,
    0x0d622d24c85cd7fb,
    0x14f25fc88263dbce,
    0x689ebdb420a6028a,
    0xbc492366e6c71d03,
    0x4e85a46fa3cc9aeb,
    0x373313657024fda5,
    0xfe55be3a9018e067,
    0xebdc20c03db7be2d,
    0xe075eaf3b5669f64,
    0xe252465277c251d4,
    0xbb58c6b3616dfefe,
    0x4d8812edf7460a53,
    0x4438105bf8522c8d,
    0x52029796d3248a5d,
    0x44db2915fa153436,
    0xe8d99d1eb81ea050,
    0x4d3cc953dbd02f65,
    0xdbf25f87a2b5bebf,
    0x0b3f342c91f1987c,
    0x6ff02b8c3a94922b,
    0x79edaf51c2f953a5,
    0x043ae43c45acb2c8,
    0x23570a166ea21fe4,
    0xf2522ac46ed2ea9a,
    0xe571b3e3be32b025,
    0x5c4395ffb4533953,
    0x9548eadb6a6b99fa,
    0xa18ac435d7803435,
    0x526e421b3552f96d,
    0x61e68133699da5e7,
    0x66e2ac8f364f199a,
    0x12ed34cd604be2d6,
    0x25b26d006209e136,
    0x62fb03f11e67424c,
    0x96204641b6b7b19a,
    0xe3ca7461c792b575,
    0x661cce18eabadadc,
];

#[test]
fn churn_bookkeeping_matches_the_string_keyed_maps_step_by_step() {
    const STANDING: usize = 256;
    const STEPS: usize = 40;
    const CHURN: usize = 8;
    const BATCH: usize = 64;
    let storm = churn_storm();
    let mut traffic = storm.clone();
    let mut monitor = churn_monitor(&storm);
    let mut live = VecDeque::new();
    let submit = |monitor: &mut Monitor, i: usize| {
        monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm subscription deploys")
    };
    for i in 0..STANDING {
        live.push_back(submit(&mut monitor, i));
    }
    let mut digests = vec![digest(&monitor)];
    let mut next = STANDING;
    for _ in 0..STEPS {
        for _ in 0..CHURN {
            let oldest = live.pop_front().expect("standing subscriptions");
            assert!(monitor.unsubscribe(&oldest));
        }
        for _ in 0..CHURN {
            live.push_back(submit(&mut monitor, next));
            next += 1;
        }
        for call in traffic.calls(BATCH) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
        digests.push(digest(&monitor));
    }
    println!("CHURN_PARENT: {digests:#018x?}");
    let replicas = monitor.replica_stats();
    assert!(replicas.replicas_created > 0, "replicas are declared");
    assert!(replicas.replicas_retracted > 0, "replicas are retracted");
    assert!(replicas.chains_walked > 0, "orphans re-attach");
    assert_eq!(digests, CHURN_PARENT);
}

/// Digests after the three aggregates deployed, then after each teardown.
const SKETCH_PARENT: [u64; 4] = [
    0x9b0325724de6526b,
    0xe59e6f3db673cca0,
    0x67d221810cec40de,
    0x5950f77980ed9498,
];

#[test]
fn aggregate_teardowns_match_the_string_keyed_maps_and_leave_nothing() {
    let storm = SketchStorm::sized(1, 256);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    for peer in storm.monitored_peers.iter().map(String::as_str) {
        monitor.add_peer(peer);
    }
    monitor.add_peer(storm.manager());
    let handles: Vec<_> = storm
        .aggregate_subscriptions(3, 0.99)
        .iter()
        .map(|text| {
            monitor
                .submit(storm.manager(), text)
                .expect("aggregate deploys")
        })
        .collect();
    let mut digests = vec![digest(&monitor)];
    for handle in &handles {
        assert!(monitor.unsubscribe(handle));
        digests.push(digest(&monitor));
    }
    println!("SKETCH_PARENT: {digests:#018x?}");
    assert_eq!(monitor.operator_count(), 0, "every aggregate is gone");
    let swept = monitor.bookkeeping_snapshot();
    assert!(swept.def_refs.is_empty() && swept.consumers_by_origin.is_empty());
    assert_eq!(digests, SKETCH_PARENT);
}
