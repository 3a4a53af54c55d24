//! A message costs integer work.
//!
//! Between `inject_*` and the sink, peer and channel identities travel as
//! interned ids: hashed and compared as integers, never ordered by string on
//! the per-message path and never resolved to a string only to be interned
//! again.  The interner counts its lock acquisitions in debug builds
//! (`p2pmon_xmlkit::intern::lock_acquisitions`), which pins that the way
//! `host_visits` pins the round and `providers_scored` the submit: the same
//! burst over the same deployment must take the same number of acquisitions
//! — a small constant per delivered message — whether 200 or 2 000 idle peers
//! are registered beside it.  A `BTreeMap<PeerId, _>` on the path fails both
//! halves: every descent compares names through the lock, and descends
//! deeper as peers are added.

#![cfg(debug_assertions)]

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::OverlappingStorm;
use p2pmon_xmlkit::intern::lock_acquisitions;

/// Deploys the clustered storm (replicas forward every shape into every
/// cluster, so one alert crosses several links) beside `idle_peers` peers no
/// plan names, warms it up, then drives a burst and returns `(interner lock
/// acquisitions, messages delivered, results delivered)` over the burst.
fn burst_with_idle_peers(idle_peers: usize) -> (u64, u64, usize) {
    let storm = OverlappingStorm::clustered(1, 8, 4, 4);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    for i in 0..idle_peers {
        monitor.add_peer(format!("idle{i}.org"));
    }
    let handles: Vec<_> = storm
        .subscriptions(128)
        .iter()
        .enumerate()
        .map(|(i, text)| {
            monitor
                .submit(storm.manager_of(i), text)
                .expect("clustered storm deploys")
        })
        .collect();
    let mut traffic = storm.clone();
    let mut drive = |monitor: &mut Monitor, calls: usize| {
        for batch in traffic.calls(calls).chunks(16) {
            for call in batch {
                monitor.inject_soap_call(call);
            }
            monitor.run_until_idle();
        }
    };
    drive(&mut monitor, 64);
    let results =
        |monitor: &Monitor| -> usize { handles.iter().map(|h| monitor.results(h).len()).sum() };
    let (locks, messages, delivered) = (
        lock_acquisitions(),
        monitor.network_stats().total_messages,
        results(&monitor),
    );
    drive(&mut monitor, 256);
    (
        lock_acquisitions() - locks,
        monitor.network_stats().total_messages - messages,
        results(&monitor) - delivered,
    )
}

#[test]
fn interner_acquisitions_follow_the_messages_not_the_registered_peers() {
    let (few, messages, results) = burst_with_idle_peers(200);
    let (many, messages_many, results_many) = burst_with_idle_peers(2_000);
    assert_eq!((messages, results), (messages_many, results_many));
    assert!(messages > 1_000 && results > 0, "the burst crosses links");
    assert_eq!(
        few, many,
        "1 800 more idle peers must not change what moving a message costs"
    );
    // Hosts are keyed by id, so no round resolves a peer to find one: a
    // feed's peer, a woken inbox and a ready host are found by integer.
    // Only the `&str` entry points still take the lock — each injected
    // call's caller and callee are looked up once — and, in these debug
    // builds alone, the multicast plans the audit recompiles at a round's
    // first hit, which put their distinct peers in name order.  Never per
    // consumer, per host or per tree level.
    let per_message = few as f64 / messages as f64;
    assert!(
        per_message < 1.0,
        "{few} acquisitions over {messages} messages is {per_message:.2} per message"
    );
}
