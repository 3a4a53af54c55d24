//! Lifetime profile: where a subscription's submit and teardown spend their
//! time, phase by phase.
//!
//! Deploys the three aggregates of a sketch storm over N monitored peers
//! (top-k methods, the method-mix entropy and a 0.99 quantile of the call
//! duration, each a merge tree over every peer, placed and installed as one
//! unit with its root), dispatches one batch of traffic through them, then
//! tears them down in submit order.  After each submit and each unsubscribe
//! it prints the monitor's own per-phase split: the work each phase did (a
//! count that is the same on every host) and the time it took; after the
//! batch, the same split of its dispatch rounds, summed.
//!
//! Then it submits the N subscriptions of a `MassiveStorm` (the end-to-end
//! benchmark's `alert_storm` and `subscribe_storm` shape) and prints each
//! submit phase's work summed over them, its median and mean time, and the
//! median and mean of the whole submit; it dispatches one 256-call batch
//! and prints its rounds' split, with the items handed
//! straight to a sink target instead of a pass-through root's operator;
//! then it tears them down oldest first — the order in which every
//! replica's forwarder leaves before the subscribers riding its copy — and
//! prints each teardown phase's work summed over the teardown and its
//! median and mean time.
//!
//! Then it submits 1 500 Filters over one hub, no two with the same clause
//! (one hub's share of the end-to-end benchmark's `filter_storm`), prints
//! the last submit's split, tears them down oldest first and prints the
//! teardown's split beside the DHT postings each unsubscribe scanned.
//!
//! Last, it runs the end-to-end benchmark's `churn_mix` script at seed 1
//! (16 shapes over 8 hubs, consumers in 8 clusters of 8 peers, 1 024
//! standing subscriptions, then 30 steps that each retire the 8 oldest,
//! submit 8 and dispatch 64 calls) and prints the same split over the
//! churned teardowns, with the provider scorings and forwarder chain walks
//! the script cost: nearly every one of those teardowns retracts a replica
//! and re-attaches its orphans, which is `core.unsubscribe.replica`'s work.
//!
//! Run with: `cargo run --release --example lifetime_profile -- [N]`
//! (N defaults to 10 000; the Filter teardown and the churn script do not
//! depend on it).

use std::collections::VecDeque;
use std::time::Duration;

use p2pmon::core::{LifetimeProfile, Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon::net::NetworkConfig;
use p2pmon::workloads::{MassiveStorm, OverlappingStorm, SketchStorm};

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
    println!("dispatch rounds of one 1 000-call batch (work and time summed):");
    println!("{}\n", monitor.round_profile());
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
    filter_teardown();
    churn_teardown();
}

/// Each phase's name, its work summed and every profile's time, beside
/// every profile's total time: the split of many submits or teardowns.
#[derive(Default)]
struct PhaseSplit {
    phases: Vec<(&'static str, u64, Vec<Duration>)>,
    totals: Vec<Duration>,
}

impl PhaseSplit {
    /// Adds one submit's or teardown's profile to the split.
    fn add(&mut self, profile: &LifetimeProfile) {
        let phases = profile.phases();
        self.phases.resize_with(phases.len(), Default::default);
        for (total, phase) in self.phases.iter_mut().zip(phases) {
            total.0 = phase.name;
            total.1 += phase.work;
            total.2.push(phase.elapsed);
        }
        self.totals.push(profile.total());
    }

    /// Tears `handle` down and adds its profile to the split.
    fn unsubscribe(&mut self, monitor: &mut Monitor, handle: &SubscriptionHandle) {
        assert!(
            monitor.unsubscribe(handle),
            "a live subscription tears down"
        );
        self.add(monitor.last_unsubscribe_profile());
    }

    /// Prints every phase's summed work, p50 and mean time, then the p50
    /// and mean of the whole.
    fn print(self) {
        let row = |name: &str, work: String, mut times: Vec<Duration>| {
            times.sort_unstable();
            let p50 = times[times.len() / 2].as_secs_f64() * 1e6;
            let mean = times.iter().sum::<Duration>().as_secs_f64() * 1e6 / times.len() as f64;
            println!("{name:<32} {work:>9} {p50:>9.2} us {mean:>9.2} us");
        };
        for (name, work, times) in self.phases {
            row(name, work.to_string(), times);
        }
        row("total", String::new(), self.totals);
    }
}

/// Submits the `n` subscriptions of `MassiveStorm::sized(1, n)`, prints the
/// round split of one 256-call batch, tears them down oldest first and
/// prints the teardown's per-phase split.
fn storm_teardown(n: usize) {
    let mut storm = MassiveStorm::sized(1, n);
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
    let mut submits = PhaseSplit::default();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let handle = monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("storm subscription deploys");
            submits.add(monitor.last_submit_profile());
            handle
        })
        .collect();
    println!("submits of {n} storm subscriptions (work summed, p50 and mean time):");
    submits.print();
    println!();

    for call in storm.calls(256) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    println!("dispatch rounds of one 256-call batch over {n} storm subscriptions (summed):");
    println!("{}", monitor.round_profile());
    let sinks = monitor.dispatch_stats().sink_target_deliveries;
    println!("sink-target deliveries (no operator ran) {sinks:>9}\n");

    let mut split = PhaseSplit::default();
    for handle in &handles {
        split.unsubscribe(&mut monitor, handle);
    }
    println!("oldest-first teardown of {n} storm subscriptions (work summed, p50 and mean time):");
    split.print();
    assert_eq!(
        monitor.operator_count(),
        0,
        "the storm tears down to no operator"
    );
}

/// Submits 1 500 distinct Filters over one hub, prints the last submit's
/// split, tears them down oldest first and prints the teardown's split and
/// the postings each unsubscribe scanned.
fn filter_teardown() {
    const FILTERS: usize = 1_500;
    const HUB: &str = "f-hub0.net";
    const MANAGER: &str = "f-mgr.org";
    let mut monitor = Monitor::new(MonitorConfig::default());
    let handles: Vec<_> = (0..FILTERS)
        .map(|i| {
            let text = format!(
                "for $c in outCOM(<p>{HUB}</p>)\nwhere $c.callMethod = \"M{i}\" and \
                 $c.duration > 8\nreturn <hit sub=\"f{i}\"/>\nby email \"f{i}@example.org\";"
            );
            monitor.submit(MANAGER, &text).expect("filter deploys")
        })
        .collect();
    println!(
        "\nsubmit {} of {FILTERS} distinct Filters over one hub:",
        FILTERS - 1
    );
    println!("{}", monitor.last_submit_profile());

    let mut split = PhaseSplit::default();
    let mut scanned = Vec::with_capacity(FILTERS);
    for handle in &handles {
        let before = monitor.dht_stats().postings_read;
        split.unsubscribe(&mut monitor, handle);
        scanned.push(monitor.dht_stats().postings_read - before);
    }
    println!("oldest-first teardown of {FILTERS} distinct Filters over one hub (work summed, p50 and mean time):");
    split.print();
    let (first, max) = (scanned[0], scanned.iter().max().copied().unwrap_or(0));
    let mean = scanned.iter().sum::<u64>() as f64 / FILTERS as f64;
    println!("postings_read per unsubscribe: first {first}  max {max}  mean {mean:.2}");
    assert_eq!(
        monitor.operator_count(),
        0,
        "the Filters tear down to no operator"
    );
}

/// Runs the `churn_mix` script and prints the churned teardowns' per-phase
/// split, then the provider scorings and chain walks of the whole script.
fn churn_teardown() {
    const STANDING: usize = 1_024;
    const STEPS: usize = 30;
    const CHURN: usize = 8;
    const BATCH: usize = 64;
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
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
    let mut traffic = storm.clone();
    let submit = |monitor: &mut Monitor, i: usize| {
        monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm subscription deploys")
    };
    let mut live: VecDeque<_> = (0..STANDING).map(|i| submit(&mut monitor, i)).collect();
    let mut split = PhaseSplit::default();
    for step in 0..STEPS {
        for _ in 0..CHURN {
            let oldest = live.pop_front().expect("standing subscriptions");
            split.unsubscribe(&mut monitor, &oldest);
        }
        for i in 0..CHURN {
            live.push_back(submit(&mut monitor, STANDING + step * CHURN + i));
        }
        for call in traffic.calls(BATCH) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
    }
    println!(
        "\nchurn_mix script: {} teardowns among {STANDING} standing subscriptions \
         (work summed, p50 and mean time):",
        STEPS * CHURN
    );
    split.print();
    let (reuse, replicas) = (monitor.reuse_stats(), monitor.replica_stats());
    println!(
        "providers_scored {}  loads_read {}  chains_walked {}  replicas_retracted {}",
        reuse.providers_scored,
        reuse.loads_read,
        replicas.chains_walked,
        replicas.replicas_retracted
    );
    assert!(replicas.replicas_retracted > 0, "churn retracts replicas");
    assert!(replicas.chains_walked > 0, "orphans re-attach");
}
