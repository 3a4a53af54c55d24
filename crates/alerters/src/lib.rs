//! # p2pmon-alerters
//!
//! Alerters are the 0-ary operators of the stream algebra: each one is
//! "specialized in detecting particular events in some systems that are
//! external to P2PM" and produces a stream of XML alerts.  The paper ships
//! four of them plus the DHT-membership source used in nested subscriptions;
//! all five are reproduced here:
//!
//! * [`WsAlerter`] — intercepts inbound/outbound Web-service (SOAP RPC)
//!   calls and emits alerts carrying the SOAP envelope expanded with
//!   timestamps and caller/callee identifiers (the paper implements these as
//!   Axis handlers; here they observe the simulated SOAP exchanges of
//!   [`SoapCall`]).
//! * [`RssAlerter`] — compares successive snapshots of an RSS feed and emits
//!   semantically tagged alerts: *add*, *remove*, *modify* entry.
//! * [`WebPageAlerter`] — compares snapshots of XML/XHTML pages and emits a
//!   change alert carrying the delta between the two versions.
//! * [`AxmlAlerter`] — reports updates to an ActiveXML peer's repository.
//! * [`MembershipAlerter`] — the `areRegistered` source: emits
//!   `<p-join>`/`<p-leave>` events as peers enter and leave a DHT.
//!
//! All alerters implement the [`Alerter`] trait: they buffer the alerts they
//! detect and the monitor runtime drains them into the deployed plan.

pub mod axml;
pub mod membership;
pub mod rss;
pub mod webpage;
pub mod ws;

pub use axml::AxmlAlerter;
pub use membership::{MembershipAlerter, MembershipEvent};
pub use rss::RssAlerter;
pub use webpage::WebPageAlerter;
pub use ws::{CallDirection, SoapCall, WsAlerter};

use p2pmon_xmlkit::Element;

/// A source of monitoring alerts.
pub trait Alerter: Send {
    /// Removes and returns the alerts detected since the last drain.
    fn drain(&mut self) -> Vec<Element>;

    /// Number of alerts currently buffered.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn ws_alerter_implements_the_trait() {
        let mut alerter = WsAlerter::new("meteo.com", CallDirection::Incoming);
        let call = SoapCall::new(1, "a.com", "meteo.com", "GetTemperature", 100, 112);
        alerter.observe(&call);
        assert_eq!(alerter.pending(), 1);
        let drained = alerter.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].attr("direction"), Some("inCOM"));
        assert_eq!(drained[0].attr("callee"), Some("meteo.com"));
        assert_eq!(alerter.pending(), 0);
    }
}
