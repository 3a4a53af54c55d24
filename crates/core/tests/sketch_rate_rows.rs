//! A merge tree's edges keep the rate-table rows they had when every stage
//! was a task: provider selection reads a peer's load as the sum of its
//! rows, each rounded (`RateTable::peer_load_at`), so a cross-peer tree edge
//! must still key one row of its own at the child's peer, charged each
//! partial's wire size.  (In this storm no peer has two such edges in one
//! tree; two branches on one peer would.)
//!
//! The digest below was recorded at b4631f9, where every cross-peer stage
//! edge was a channel, by running this very test there.  To re-record, run
//! `cargo test -q --release -p p2pmon-core --test sketch_rate_rows --
//! --nocapture` and read the printed constant.

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_net::PeerId;
use p2pmon_workloads::SketchStorm;

/// `(rows, digest)` of every peer's `(load, rows read)` after the batch.
const PARENT_LOADS: (usize, u64) = (803, 0xd8008e29ffe1998b);

#[test]
fn tree_edges_keep_their_rate_rows() {
    let mut storm = SketchStorm::sized(1, 256);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }
    for text in storm.aggregate_subscriptions(3, 0.99) {
        monitor
            .submit(storm.manager(), &text)
            .expect("aggregate deploys");
    }
    for round in 0..2 {
        for call in storm.calls(1_000) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
        monitor.advance_time(100 * (round + 1));
    }
    let now = monitor.now();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut peers: Vec<String> = storm.monitored_peers.clone();
    peers.push(storm.manager().to_string());
    peers.sort();
    for peer in &peers {
        let (load, rows) = monitor.rate_table().peer_load_at(PeerId::from(peer), now);
        for b in format!("{peer} {load} {rows}|").bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let loads = (monitor.rate_table().len(), digest);
    println!(
        "const PARENT_LOADS: (usize, u64) = ({}, {:#018x});",
        loads.0, loads.1
    );
    assert_eq!(loads, PARENT_LOADS);
}
