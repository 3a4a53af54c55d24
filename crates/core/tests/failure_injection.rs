//! Failure injection through the full Monitor path: message loss
//! (`drop_probability > 0`) and downed peers must degrade results without
//! panicking or deadlocking `run_until_idle`.

use std::collections::HashMap;
use std::sync::Arc;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy};
use p2pmon_net::NetworkConfig;
use p2pmon_p2pml::METEO_SUBSCRIPTION;
use p2pmon_workloads::{SoapWorkload, SubscriptionStorm};

fn meteo_monitor(drop_probability: f64) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        placement: PlacementStrategy::PushToSources,
        enable_reuse: false,
        network: NetworkConfig {
            drop_probability,
            seed: 13,
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    for peer in ["p", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    monitor
}

fn meteo_calls(n: usize) -> Vec<SoapCall> {
    SoapWorkload::meteo(21).calls(n)
}

#[test]
fn message_loss_degrades_results_without_hanging() {
    let mut clean = meteo_monitor(0.0);
    let clean_handle = clean.submit("p", METEO_SUBSCRIPTION).unwrap();
    let mut lossy = meteo_monitor(0.4);
    let lossy_handle = lossy.submit("p", METEO_SUBSCRIPTION).unwrap();

    for call in meteo_calls(200) {
        clean.inject_soap_call(&call);
        lossy.inject_soap_call(&call);
    }
    clean.run_until_idle();
    lossy.run_until_idle();

    let clean_results = clean.results(&clean_handle).len();
    let lossy_results = lossy.results(&lossy_handle).len();
    assert!(clean_results > 0, "the workload contains slow calls");
    assert!(
        lossy_results <= clean_results,
        "lossy ({lossy_results}) cannot beat clean ({clean_results})"
    );
    assert!(lossy.network_stats().dropped_messages > 0);
}

#[test]
fn downed_peer_degrades_results_and_recovers() {
    let mut monitor = meteo_monitor(0.0);
    let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    let calls = meteo_calls(120);

    for call in &calls[..40] {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();
    let before_failure = monitor.results(&handle).len();
    assert!(before_failure > 0);

    // meteo.com hosts the join: with it down, no further incidents form and
    // in-flight traffic to it is dropped — but the rounds still terminate.
    monitor.fail_peer("meteo.com");
    assert!(monitor.is_peer_down("meteo.com"));
    for call in &calls[40..80] {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();
    let during_failure = monitor.results(&handle).len();
    assert_eq!(
        during_failure, before_failure,
        "a downed join peer cannot produce new incidents"
    );
    assert!(monitor.network_stats().dropped_messages > 0);

    // After recovery the monitor keeps working on fresh traffic.
    monitor.recover_peer("meteo.com");
    for call in &calls[80..] {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();
    assert!(
        monitor.results(&handle).len() >= during_failure,
        "recovery must not lose already-delivered results"
    );
}

#[test]
fn storm_survives_loss_and_a_downed_monitored_peer() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        network: NetworkConfig {
            drop_probability: 0.25,
            seed: 5,
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "hub.net", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = SubscriptionStorm::new(2);
    let handles: Vec<_> = storm
        .subscriptions(24)
        .iter()
        .map(|text| monitor.submit("manager.org", text).unwrap())
        .collect();

    let mut traffic = SubscriptionStorm::new(17);
    for call in traffic.calls(30) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let mid: usize = handles.iter().map(|h| monitor.results(h).len()).sum();
    assert!(mid > 0, "storm traffic matches some subscriptions");

    // The monitored peer itself goes down: its alerters stop draining, so no
    // new alerts enter the system, and the rounds still terminate.
    monitor.fail_peer("hub.net");
    for call in traffic.calls(30) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let down: usize = handles.iter().map(|h| monitor.results(h).len()).sum();
    assert_eq!(down, mid, "a downed monitored peer produces no alerts");

    // On recovery, the alerts buffered while down drain and results resume.
    monitor.recover_peer("hub.net");
    monitor.run_until_idle();
    let recovered: usize = handles.iter().map(|h| monitor.results(h).len()).sum();
    assert!(recovered >= down);
}

/// Downing a peer *mid-batch* — after channel traffic has landed in its
/// alert inbox but before the next dispatch phase processes it — must not
/// lose or double-deliver alerts anywhere else: subscriptions on live peers
/// deliver exactly the clean run's results, the downed peer's sink receives
/// a duplicate-free subset of its clean results, and the discarded batch is
/// accounted in `dropped_by_failure`.
#[test]
fn peer_down_mid_batch_loses_no_alert_and_duplicates_nothing() {
    // Subscription A publishes from hub.net sources and manager-side
    // restructure; subscription B (submitted from observer.org) reuses A's
    // filtered streams, so alerts reach B's tasks over channels — the
    // traffic that sits in observer.org's alert batch between ticks.
    let build = || {
        let mut monitor = Monitor::new(MonitorConfig {
            placement: PlacementStrategy::PushToSources,
            enable_reuse: true,
            ..MonitorConfig::default()
        });
        for peer in ["p", "observer.org", "a.com", "b.com", "meteo.com"] {
            monitor.add_peer(peer);
        }
        let a = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
        let b = monitor.submit("observer.org", METEO_SUBSCRIPTION).unwrap();
        (monitor, a, b)
    };
    let calls = meteo_calls(80);

    let (mut clean, clean_a, clean_b) = build();
    for call in &calls {
        clean.inject_soap_call(call);
    }
    clean.run_until_idle();
    assert!(!clean.results(&clean_b).is_empty(), "B sees incidents");

    let (mut faulty, faulty_a, faulty_b) = build();
    for call in &calls {
        faulty.inject_soap_call(call);
    }
    // Run rounds until reused-channel traffic is parked in observer.org's
    // alert batch (the covered plan attaches to the producer's *root*
    // output, which takes a few rounds to flow), then down the peer before
    // the next phase processes the batch.
    let mut parked = false;
    for _ in 0..16 {
        faulty.tick();
        if faulty
            .peer_host("observer.org")
            .expect("observer is registered")
            .pending_alert_count()
            > 0
        {
            parked = true;
            break;
        }
    }
    assert!(
        parked,
        "channel traffic must reach the reuse subscriber's batch"
    );
    faulty.fail_peer("observer.org");
    faulty.run_until_idle();

    // Live peers: nothing lost, nothing duplicated.
    assert_eq!(
        faulty.results(&faulty_a),
        clean.results(&clean_a),
        "subscription on live peers must deliver exactly the clean results"
    );
    // Downed peer: a duplicate-free subset of the clean multiset.
    let multiset = |results: Vec<Arc<p2pmon_xmlkit::Element>>| -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for r in results {
            *counts.entry(r.to_xml()).or_insert(0) += 1;
        }
        counts
    };
    let clean_counts = multiset(clean.results(&clean_b));
    let faulty_counts = multiset(faulty.results(&faulty_b));
    for (result, n) in &faulty_counts {
        assert!(
            clean_counts.get(result).is_some_and(|clean_n| n <= clean_n),
            "result delivered more often than in the clean run: {result}"
        );
    }
    assert!(
        faulty.results(&faulty_b).len() < clean.results(&clean_b).len(),
        "the downed peer must actually have missed deliveries"
    );
    // Every missing delivery is accounted: the batch pending on the downed
    // peer was discarded, not silently lost.
    assert!(
        faulty.dispatch_stats().dropped_by_failure > 0,
        "the interrupted batch must be counted as dropped: {:?}",
        faulty.dispatch_stats()
    );
}

/// A downed host stays on the dispatch ready list — its buffered alerts and
/// its unflushed sketch state survive the outage — but it must not keep the
/// round loop alive while it is down: `tick` goes idle, and the recovery
/// drains everything into the answer a fault-free run produces.
#[test]
fn downed_peer_keeps_alerts_and_sketch_state_without_keeping_rounds_alive() {
    const ROUND_BUDGET: usize = 64;
    // a.com manages the aggregate it is also monitored by: its host carries
    // a leaf, and the root whose `every 3` cadence holds state across rounds.
    let deploy = || {
        let mut monitor = Monitor::new(MonitorConfig::default());
        monitor.add_peer("a.com");
        monitor.add_peer("b.com");
        let handle = monitor
            .submit(
                "a.com",
                r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                   return topk($c.callMethod, 2) every 3
                   by email "ops@a.com";"#,
            )
            .unwrap();
        (monitor, handle)
    };
    let call = |id: u64, callee: &str| SoapCall::new(id, "client.org", callee, "Get", 10, 15);
    let first: Vec<SoapCall> = vec![call(1, "a.com"), call(2, "b.com")];
    let second: Vec<SoapCall> = (3..6).map(|id| call(id, "a.com")).collect();

    let (mut clean, clean_handle) = deploy();
    let (mut faulty, faulty_handle) = deploy();
    for monitor in [&mut clean, &mut faulty] {
        for call in &first {
            monitor.inject_soap_call(call);
        }
        // Two rounds: the leaves flush, the root absorbs a.com's delta and
        // counts one flush opportunity of three — dirty, nothing emitted.
        assert!(monitor.tick());
        assert!(monitor.tick());
    }
    assert!(faulty.results(&faulty_handle).is_empty());

    faulty.fail_peer("a.com");
    for call in &second {
        faulty.inject_soap_call(call);
    }
    let rounds = (0..ROUND_BUDGET).take_while(|_| faulty.tick()).count();
    assert!(
        rounds < ROUND_BUDGET,
        "a downed host's buffered state kept `tick` reporting work"
    );
    assert!(
        faulty.results(&faulty_handle).is_empty(),
        "the downed root cannot have answered"
    );

    faulty.recover_peer("a.com");
    faulty.run_until_idle();
    for call in &second {
        clean.inject_soap_call(call);
    }
    clean.run_until_idle();
    let answer = faulty.results(&faulty_handle);
    assert_eq!(answer.last().and_then(|a| a.attr("total")), Some("5"));
    assert_eq!(
        answer,
        clean.results(&clean_handle),
        "recovery must drain the buffered alerts and sketch state into the fault-free answer"
    );
}
