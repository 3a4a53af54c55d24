//! Every deployed task's operator lives in its subscription's slot: a deploy
//! fills one `Vec`, a teardown empties slots of it without visiting a host,
//! and the subscription's last operator gives the storage back.
//!
//! * Under `churn_mix`'s shape — 16 shapes over 8 hubs, duplicates spread
//!   over 8 clusters of 8 consumer peers, so producing subtrees and replica
//!   forwarders outlive their owners — the operator count stays the sum of what
//!   each peer hosts after every retire, submit and round, and a fully
//!   retired subscription holds no slot.
//! * A teardown between two ticks of a round unlists the removed sketch
//!   stages still waiting for a flush; a stage left listed would send the
//!   next flush looking for an operator that is gone.

use std::collections::VecDeque;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::OverlappingStorm;

/// The operator count against a per-peer walk of the deployment.
fn assert_counted(monitor: &Monitor, when: &str) {
    let hosted: usize = monitor
        .peers()
        .iter()
        .map(|p| monitor.hosted_tasks(p))
        .sum();
    assert_eq!(monitor.operator_count(), hosted, "{when}");
}

#[test]
fn churn_keeps_the_count_and_frees_retired_slots() {
    const STANDING: usize = 32;
    const CYCLES: usize = 200;
    const CHURN: usize = 4;
    const BATCH: usize = 16;
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    let mut traffic = storm.clone();
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: storm.monitored_peers.len() + storm.consumer_peers.len(),
        ..MonitorConfig::default()
    });
    for peer in storm.monitored_peers.iter().chain(&storm.consumer_peers) {
        monitor.add_peer(peer.as_str());
    }
    let submit = |monitor: &mut Monitor, i: usize| {
        monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm subscription deploys")
    };
    let mut handles: Vec<SubscriptionHandle> = Vec::new();
    let mut live = VecDeque::new();
    for i in 0..STANDING {
        let handle = submit(&mut monitor, i);
        handles.push(handle);
        live.push_back(handle);
    }
    assert_counted(&monitor, "standing");
    for cycle in 0..CYCLES {
        for _ in 0..CHURN {
            let oldest = live.pop_front().expect("standing subscriptions");
            assert!(monitor.unsubscribe(&oldest));
        }
        assert_counted(&monitor, &format!("cycle {cycle}: retired"));
        for _ in 0..CHURN {
            let handle = submit(&mut monitor, handles.len());
            handles.push(handle);
            live.push_back(handle);
        }
        assert_counted(&monitor, &format!("cycle {cycle}: submitted"));
        for call in traffic.calls(BATCH) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
        assert_counted(&monitor, &format!("cycle {cycle}: dispatched"));
    }

    let per_subscription: usize = handles.iter().map(|h| monitor.deployed_operators(h)).sum();
    assert_eq!(per_subscription, monitor.operator_count());
    let (retired, active): (Vec<_>, Vec<_>) = handles.iter().partition(|h| !monitor.is_active(h));
    assert_eq!(retired.len(), CYCLES * CHURN);
    let (fully, pinned): (Vec<_>, Vec<_>) = retired
        .iter()
        .partition(|h| monitor.deployed_operators(h) == 0);
    for handle in &fully {
        assert_eq!(
            monitor.operator_slots(handle),
            0,
            "fully retired subscription {} holds slots",
            handle.0
        );
    }
    for handle in pinned.iter().chain(&active) {
        let tasks = monitor.report(handle).expect("deployed").tasks;
        assert!(monitor.operator_slots(handle) >= tasks);
    }
    assert!(
        !pinned.is_empty(),
        "some retired producers still feed others"
    );
    let replicas = monitor.replica_stats();
    assert!(replicas.replicas_created > 0 && replicas.replicas_retracted > 0);
    assert!(
        fully.len() > CYCLES * CHURN / 2,
        "most retired subscriptions are fully gone ({} of {})",
        fully.len(),
        retired.len()
    );
}

#[test]
fn a_teardown_between_ticks_unlists_its_pending_sketch_stages() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["hub", "a.com", "b.com"] {
        monitor.add_peer(peer);
    }
    // A root answering every third flush stays pending across ticks.
    let text = r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                  return topk($c.callMethod, 1) every 3
                  by email "ops@example.org";"#;
    let first = monitor.submit("hub", text).expect("deploys");
    let second = monitor.submit("hub", text).expect("deploys");
    for (id, callee) in [(1, "a.com"), (2, "b.com")] {
        monitor.inject_soap_call(&SoapCall::new(id, "client.org", callee, "Get", 0, 5));
    }
    // Leaves absorb and flush, then the roots absorb and start counting.
    assert!(monitor.tick());
    assert!(monitor.tick());
    assert!(monitor.results(&first).is_empty() && monitor.results(&second).is_empty());
    assert!(monitor.unsubscribe(&first));
    assert_eq!(monitor.operator_slots(&first), 0);
    monitor.run_until_idle();
    assert!(
        monitor.results(&first).is_empty(),
        "a retired root answers nothing"
    );
    let answers = monitor.results(&second);
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].attr("total"), Some("2"));
}
