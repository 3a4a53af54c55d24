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
//! Then it submits the N subscriptions of a `MassiveStorm` and tears them
//! down oldest first — the order in which every replica's forwarder leaves
//! before the subscribers riding its copy — and prints each teardown phase's
//! work summed over the teardown and its median and mean time.
//!
//! Run with: `cargo run --release --example lifetime_profile -- [N]`
//! (N defaults to 10 000).

use std::time::Duration;

use p2pmon::core::{Monitor, MonitorConfig};
use p2pmon::net::NetworkConfig;
use p2pmon::workloads::{MassiveStorm, SketchStorm};

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

    storm_teardown(peers);
}

/// Submits the `n` subscriptions of `MassiveStorm::sized(1, n)`, tears them
/// down oldest first and prints the teardown's per-phase split.
fn storm_teardown(n: usize) {
    let storm = MassiveStorm::sized(1, n);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    for peer in storm.monitored_peers.iter().chain(&storm.manager_peers()) {
        monitor.add_peer(peer.as_str());
    }
    let handles: Vec<_> = (0..n)
        .map(|i| {
            monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("storm subscription deploys")
        })
        .collect();

    // Per phase: its name, its work summed and each teardown's time.
    let mut phases: Vec<(&str, u64, Vec<Duration>)> = Vec::new();
    for handle in &handles {
        assert!(
            monitor.unsubscribe(handle),
            "a live subscription tears down"
        );
        let profile = monitor.last_unsubscribe_profile().phases();
        phases.resize_with(profile.len(), Default::default);
        for (total, phase) in phases.iter_mut().zip(profile) {
            total.0 = phase.name;
            total.1 += phase.work;
            total.2.push(phase.elapsed);
        }
    }
    println!("oldest-first teardown of {n} storm subscriptions (work summed, p50 and mean time):");
    for (name, work, mut times) in phases {
        times.sort_unstable();
        let p50 = times[times.len() / 2].as_secs_f64() * 1e6;
        let mean = times.iter().sum::<Duration>().as_secs_f64() * 1e6 / times.len() as f64;
        println!("{name:<32} {work:>9} {p50:>9.2} us {mean:>9.2} us");
    }
    assert_eq!(
        monitor.operator_count(),
        0,
        "the storm tears down to no operator"
    );
}
