//! # p2pmon-core
//!
//! The P2P Monitor (P2PM) itself — the paper's primary contribution.
//!
//! P2PM is a peer-to-peer system that monitors *other* P2P systems.  Each
//! P2PM peer runs at least a **Subscription Manager**; it may also host
//! alerters, stream processors and publishers (Figure 2 of the paper).  A
//! user hands a P2PML subscription to a manager peer, which:
//!
//! 1. compiles it into an algebraic monitoring plan (`p2pmon-p2pml`),
//! 2. optimizes the plan — selections are pushed next to the sources and the
//!    operators are *placed* on peers ([`placement`]),
//! 3. searches the Stream Definition Database for existing streams that
//!    already cover parts of the plan and rewires the plan to subscribe to
//!    them instead of recomputing ([`reuse`]),
//! 4. deploys the per-peer fragments, connecting them with channels, and
//!    publishes the definitions of the new streams so that *future*
//!    subscriptions can reuse them,
//! 5. runs the whole thing over the simulated network, delivering results to
//!    the requested publisher: a channel, an e-mail digest, an XML/XHTML file
//!    or an RSS feed ([`sink`]).
//!
//! The entry point is [`Monitor`]: it owns the simulated network
//! (`p2pmon-net`), the DHT-backed Stream Definition Database (`p2pmon-dht`),
//! the alerters (`p2pmon-alerters`) and every deployed operator, and it
//! drives the discrete-event simulation that the examples, the integration
//! tests and the benchmark harness all use.

pub mod deployment;
pub mod dispatch;
pub mod monitor;
pub mod peer;
pub mod placement;
pub mod profile;
mod replica;
pub mod reuse;
pub mod runtime;
pub mod sink;
mod slots;

pub use dispatch::DispatchStats;
pub use monitor::{
    BookkeepingSnapshot, Monitor, MonitorConfig, SubscriptionHandle, SubscriptionReport,
};
pub use peer::PeerHost;
pub use placement::{
    place, push_selections_below_unions, PlacedPlan, PlacedTask, PlacementStrategy, TaskKind,
};
pub use profile::{LifetimeProfile, Phase};
pub use reuse::{apply_reuse, ReplicaStats, ReuseReport, ReuseStats};
pub use runtime::RuntimeOperator;
pub use sink::{Sink, SinkKind};

#[cfg(test)]
mod lib_tests {
    use super::*;
    use p2pmon_alerters::SoapCall;

    #[test]
    fn end_to_end_meteo_subscription_detects_slow_answers() {
        let mut monitor = Monitor::new(MonitorConfig::default());
        for peer in ["p", "a.com", "b.com", "meteo.com"] {
            monitor.add_peer(peer);
        }
        let handle = monitor
            .submit("p", p2pmon_p2pml::METEO_SUBSCRIPTION)
            .expect("figure 1 subscription must deploy");

        // A slow GetTemperature call from a.com and a fast one from b.com.
        monitor.inject_soap_call(&SoapCall::new(
            1,
            "http://a.com",
            "http://meteo.com",
            "GetTemperature",
            1_000,
            1_015,
        ));
        monitor.inject_soap_call(&SoapCall::new(
            2,
            "http://b.com",
            "http://meteo.com",
            "GetTemperature",
            1_000,
            1_002,
        ));
        monitor.run_until_idle();

        let incidents = monitor.results(&handle);
        assert_eq!(incidents.len(), 1, "only the slow call is an incident");
        assert_eq!(incidents[0].name, "incident");
        assert_eq!(incidents[0].attr("type"), Some("slowAnswer"));
        assert_eq!(incidents[0].child("client").unwrap().text(), "http://a.com");
    }
}
