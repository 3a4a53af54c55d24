//! A reused source costs no interner lock.
//!
//! A second aggregate over the same 10k-source shape covers every source
//! leaf with a stream the first one published.  From the DHT answer to
//! placement such a leaf is the `ChannelId` core minted when the source was
//! first deployed: the alerter query hashes the plan's names as given, the
//! posting it reads is that id, the provider selection and the canonical
//! identity probe by it, and placement copies it.  None of these reaches for
//! the interner's lock.  What is left per source is `output_channels`'
//! minted stream name (`s<sub>-t<task>`), interned once and resolved once:
//! two acquisitions.
//!
//! The interner counts its lock acquisitions in debug builds
//! (`p2pmon_xmlkit::intern::lock_acquisitions`), so this pins the slope of
//! the second submit's acquisitions over the number of sources, between
//! storms of 100 and 1 000 sources.

#![cfg(debug_assertions)]

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_workloads::SketchStorm;
use p2pmon_xmlkit::intern::lock_acquisitions;

/// Submits the three aggregates of `SketchStorm::sized(1, sources)` and
/// returns the interner lock acquisitions of the second submit, whose
/// every source leaf is a reuse hit.
fn second_submit_locks(sources: usize) -> u64 {
    let storm = SketchStorm::sized(1, sources);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }
    let mut locks = Vec::new();
    for text in storm.aggregate_subscriptions(3, 0.99) {
        let before = lock_acquisitions();
        monitor
            .submit(storm.manager(), &text)
            .expect("aggregate deploys");
        locks.push(lock_acquisitions() - before);
    }
    let reused = monitor.reuse_stats().covered_nodes;
    assert_eq!(
        reused,
        2 * sources as u64,
        "submits 1 and 2 reuse every source"
    );
    locks[1]
}

#[test]
fn a_resubmit_takes_only_the_minted_names_locks_per_source() {
    let (few, many) = (second_submit_locks(100), second_submit_locks(1_000));
    let slope = (many - few) as f64 / 900.0;
    println!("second submit: {few} locks at 100 sources, {many} at 1 000: {slope:.2} per source");
    assert!(
        slope <= 2.0,
        "a reused source takes {slope:.2} interner locks; only its minted output name may"
    );
}
