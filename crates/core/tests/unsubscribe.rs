//! `Monitor::unsubscribe`: end-to-end subscription teardown — engine
//! registrations, operator instances, routes, stream definitions and reuse
//! references all go; everything else keeps running.

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_p2pml::METEO_SUBSCRIPTION;
use p2pmon_workloads::{SoapWorkload, SubscriptionStorm};

fn storm_monitor(n: usize) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "hub.net", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = SubscriptionStorm::new(1);
    let handles = storm
        .subscriptions(n)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    (monitor, handles)
}

#[test]
fn unsubscribe_stops_deliveries_and_unregisters_from_the_shared_engine() {
    const SUBS: usize = 8;
    let (mut monitor, handles) = storm_monitor(SUBS);
    let hub = monitor.peer_host("hub.net").expect("hub is registered");
    assert_eq!(hub.registered_selects(), SUBS);
    let hosted_before = monitor.hosted_tasks("hub.net");

    for call in SubscriptionStorm::new(5).calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let before: Vec<usize> = handles.iter().map(|h| monitor.results(h).len()).collect();
    assert!(before.iter().sum::<usize>() > 0, "storm traffic matches");

    let victim = &handles[3];
    assert!(monitor.is_active(victim));
    assert!(monitor.unsubscribe(victim));
    assert!(!monitor.is_active(victim));
    assert!(!monitor.unsubscribe(victim), "second teardown is a no-op");

    let hub = monitor.peer_host("hub.net").expect("hub is registered");
    assert_eq!(
        hub.registered_selects(),
        SUBS - 1,
        "the victim's Select left the shared engine"
    );
    assert!(
        monitor.hosted_tasks("hub.net") < hosted_before,
        "the victim's operator instances left their slots"
    );

    // Fresh traffic: everyone else keeps delivering, the victim is frozen.
    for call in SubscriptionStorm::new(6).calls(80) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    for (i, handle) in handles.iter().enumerate() {
        let now = monitor.results(handle).len();
        if i == 3 {
            assert_eq!(now, before[3], "unsubscribed sink must not grow");
        } else {
            assert!(now >= before[i], "live subscription {i} regressed");
        }
    }
    let grew = handles
        .iter()
        .enumerate()
        .filter(|(i, h)| *i != 3 && monitor.results(h).len() > before[*i])
        .count();
    assert!(grew > 0, "live subscriptions keep delivering");
}

#[test]
fn unsubscribing_every_subscription_retracts_all_stream_definitions() {
    const SUBS: usize = 4;
    let (mut monitor, handles) = storm_monitor(SUBS);
    assert!(
        !monitor.stream_db_mut().is_empty(),
        "deployment published definitions"
    );
    for handle in &handles {
        assert!(monitor.unsubscribe(handle));
    }
    assert!(
        monitor.stream_db_mut().is_empty(),
        "the shared src-outCOM definition goes with its last referencing \
         subscription"
    );
    let hub = monitor.peer_host("hub.net").expect("hub is registered");
    assert_eq!(hub.registered_selects(), 0);
    assert_eq!(monitor.hosted_tasks("hub.net"), 0);
    // The monitor stays usable: fresh traffic is simply unobserved.
    for call in SubscriptionStorm::new(7).calls(10) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
}

#[test]
fn retracted_definitions_are_no_longer_reusable() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["p", "observer.org", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    let first = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    let second = monitor.submit("observer.org", METEO_SUBSCRIPTION).unwrap();
    assert!(
        monitor.report(&second).unwrap().reuse.reused_nodes > 0,
        "the second deployment reuses the first's streams"
    );

    // Tearing the *consumer* down leaves the producer fully functional.
    assert!(monitor.unsubscribe(&second));
    let mut workload = SoapWorkload::meteo(3);
    for call in workload.calls(100) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(!monitor.results(&first).is_empty());
    assert!(monitor.results(&second).is_empty());

    // Tearing the producer down retracts its definitions: a newcomer finds
    // nothing to reuse and rebuilds from scratch.
    assert!(monitor.unsubscribe(&first));
    assert!(monitor.stream_db_mut().is_empty());
    let third = monitor.submit("observer.org", METEO_SUBSCRIPTION).unwrap();
    let report = monitor.report(&third).unwrap();
    assert_eq!(
        report.reuse.reused_nodes, 0,
        "retracted streams must not be rediscovered"
    );
    for call in workload.calls(100) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        !monitor.results(&third).is_empty(),
        "the fresh deployment monitors on its own"
    );
}
