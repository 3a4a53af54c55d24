//! Lifetime profile: where a subscription's submit and teardown spend their
//! time, phase by phase.
//!
//! Deploys the three aggregates of a sketch storm over N monitored peers
//! (top-k methods, call-latency entropy and a 0.99 quantile, each a merge
//! tree over every peer), dispatches one round of traffic through them, then
//! tears them down in submit order.  After each submit and each unsubscribe
//! it prints the monitor's own per-phase split: the work each phase did (a
//! count that is the same on every host) and the time it took.
//!
//! Run with: `cargo run --release --example lifetime_profile -- [N]`
//! (N defaults to 10 000).

use p2pmon::core::{Monitor, MonitorConfig};
use p2pmon::workloads::SketchStorm;

fn main() {
    let peers: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("N is a peer count"),
        None => 10_000,
    };
    let mut storm = SketchStorm::sized(1, peers);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }

    let mut handles = Vec::new();
    for (i, text) in storm.aggregate_subscriptions(3, 0.99).iter().enumerate() {
        let handle = monitor
            .submit(storm.manager(), text)
            .expect("aggregate deploys");
        println!("submit {i} ({peers} peers):");
        println!("{}\n", monitor.last_submit_profile());
        handles.push(handle);
    }
    let deployed = monitor.operator_count();

    for call in storm.calls(1_000) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let answers: usize = handles.iter().map(|h| monitor.results(h).len()).sum();

    for (i, handle) in handles.iter().enumerate() {
        assert!(monitor.unsubscribe(handle), "a live aggregate tears down");
        println!("unsubscribe {i}:");
        println!("{}\n", monitor.last_unsubscribe_profile());
    }
    println!("{deployed} operators deployed, {answers} answers, none left after teardown");
    assert!(answers > 0, "the round's traffic reaches the roots");
    assert_eq!(monitor.operator_count(), 0, "every aggregate is gone");
}
