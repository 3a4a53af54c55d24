//! Workspace smoke test: every umbrella re-export resolves to a usable type
//! and a minimal Monitor round-trip (submit → inject traffic → read results)
//! runs through all layers.

use p2pmon::core::{Monitor, MonitorConfig};
use p2pmon::p2pml::METEO_SUBSCRIPTION;
use p2pmon::workloads::SoapWorkload;

/// Touch one public item behind each `p2pmon::*` re-export, so a broken
/// layer wiring fails this test at compile time.
#[test]
fn umbrella_reexports_resolve() {
    let _ = p2pmon::xmlkit::Element::new("probe");
    let _ =
        p2pmon::streams::AttrCondition::new("kind", p2pmon::xmlkit::path::CompareOp::Eq, "probe");
    let _ = p2pmon::p2pml::METEO_SUBSCRIPTION;
    let _ = p2pmon::filter::FilterEngine::from_subscriptions(Vec::new());
    let _ = p2pmon::net::NetworkStats::default();
    let _ = p2pmon::dht::ChordNetwork::with_nodes(4, 1);
    let _ = p2pmon::alerters::RssAlerter::new("http://example.org/feed");
    let _ = p2pmon::core::MonitorConfig::default();
    let _ = p2pmon::workloads::SubscriptionWorkload::new(1);
}

/// The paper's Figure 1 scenario in miniature: compile and deploy the meteo
/// subscription, replay a short burst of SOAP traffic, and observe incidents
/// coming back out of the alert channel.
#[test]
fn minimal_monitor_round_trip() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["p", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }

    let handle = monitor
        .submit("p", METEO_SUBSCRIPTION)
        .expect("Figure 1 subscription compiles and deploys");
    let report = monitor.report(&handle).expect("report available");
    assert!(report.tasks > 0, "deployment must place at least one task");

    let mut workload = SoapWorkload::meteo(42);
    for call in workload.calls(60) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();

    let incidents = monitor.results(&handle);
    assert!(
        !incidents.is_empty(),
        "the meteo workload contains slow calls, so incidents must surface"
    );
    for incident in &incidents {
        assert_eq!(incident.name, "incident");
    }

    let stats = monitor.network_stats();
    assert!(stats.total_messages > 0, "traffic must cross the network");
}
