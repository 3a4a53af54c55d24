//! A round walks its ready hosts in peer-name order, not interning order.
//!
//! The alerter feeds fan out in the ready list's order, the committed
//! effects reach the network in it and, over one constant latency, the
//! sinks receive in it.  The list holds each host's id beside the name the
//! host resolved once, when it was registered, so sorting it takes no
//! interner lock; it must not fall back to the ids' own order, which is the
//! order the names were first interned.  This test interns its peers' names
//! in reverse alphabetical order before anything registers them, so a list
//! sorted by id reads every order here backwards.
//!
//! Release builds skip the ready-list audit, so there this test is the
//! order's only check (CI runs it in release).

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy, SubscriptionHandle};
use p2pmon_net::{LatencyModel, NetworkConfig};
use p2pmon_xmlkit::intern::intern;

/// The monitored peers, in name order.  No other test names them, so this
/// test decides the order they are interned in.
const PEERS: [&str; 6] = [
    "ro-a.test",
    "ro-b.test",
    "ro-c.test",
    "ro-d.test",
    "ro-e.test",
    "ro-f.test",
];

#[test]
fn feeds_sends_and_sink_deliveries_follow_peer_names() {
    for peer in PEERS.iter().rev() {
        intern(peer);
    }
    // Centralized: every operator but the sources runs at its manager, so
    // each raw alert crosses the network once per subscription.
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: LatencyModel::Constant(5),
            ..NetworkConfig::default()
        },
        placement: PlacementStrategy::Centralized,
        ..MonitorConfig::default()
    });
    let watched: String = PEERS.iter().map(|p| format!("<p>{p}</p>")).collect();
    // Each source task forwards its alert in the round's local phase: the
    // commit sends in ready order, and the sink receives in send order.
    let sent = monitor
        .submit(
            "ro-sent.test",
            &format!(
                r#"for $c in inCOM({watched})
                   return <seen at="{{$c.callee}}"/>
                   by email "sent@ro.test";"#
            ),
        )
        .expect("deploys");
    // The second subscription reuses the published alerter streams: each
    // alert is multicast from its peer while the feeds are drained, so this
    // sink receives in feed order.
    let fed = monitor
        .submit(
            "ro-fed.test",
            &format!(
                r#"for $c in inCOM({watched})
                   where $c.callMethod = "Get"
                   return <fed at="{{$c.callee}}"/>
                   by email "fed@ro.test";"#
            ),
        )
        .expect("deploys");
    let report = monitor.report(&fed).expect("deployed");
    assert_eq!(
        report.reuse.subscribed_channels.len(),
        PEERS.len(),
        "the second subscription attaches to every alerter stream"
    );
    // Injected out of order, so neither injection order nor its reverse is
    // name order.
    for (id, at) in [2, 5, 0, 3, 1, 4].into_iter().enumerate() {
        monitor.inject_soap_call(&SoapCall::new(
            id as u64,
            "ro-client.test",
            PEERS[at],
            "Get",
            0,
            1,
        ));
    }
    monitor.run_until_idle();
    let order = |handle: &SubscriptionHandle| -> Vec<String> {
        let results = monitor.results(handle);
        let at = results
            .iter()
            .map(|r| r.attr("at").expect("at").to_string());
        at.collect()
    };
    assert_eq!(order(&sent), PEERS, "sends and sink deliveries");
    assert_eq!(order(&fed), PEERS, "feeds and sink deliveries");
}
