//! The Web-service (SOAP RPC) alerter.
//!
//! "An WS Alerter intercepts inbound-outbound Web service calls and produces
//! alerts including SOAP envelopes expanded with annotations such as
//! timestamps and the identifiers (DNS/IP) for caller/called entities."
//! The same physical call is an *out*-call for the client and an *in*-call
//! for the server, which is why the paper's example runs `outCOM` at
//! `a.com`/`b.com` and `inCOM` at `meteo.com` and joins them on `callId`.
//!
//! In the reproduction, the monitored Web-service traffic is simulated:
//! a [`SoapCall`] stands for one request/response exchange (the workload
//! generators in `p2pmon-workloads` produce them), and the alerter observes
//! the calls relevant to its peer and direction.

use p2pmon_xmlkit::{Element, ElementBuilder, Name};

use crate::Alerter;

/// One simulated SOAP RPC exchange (request + response).
#[derive(Debug, Clone, PartialEq)]
pub struct SoapCall {
    /// Globally unique call identifier (the join key of the paper's example).
    pub call_id: u64,
    /// Calling peer (DNS name).
    pub caller: String,
    /// Called peer (DNS name).
    pub callee: String,
    /// Invoked method, e.g. `GetTemperature`.
    pub method: String,
    /// Logical time the request was sent (ms).
    pub call_timestamp: u64,
    /// Logical time the response arrived (ms).
    pub response_timestamp: u64,
    /// Optional SOAP body payload carried in the alert.
    pub body: Option<Element>,
    /// Optional fault string when the call failed.
    pub fault: Option<String>,
}

impl SoapCall {
    /// Creates a successful call with an empty body.
    pub fn new(
        call_id: u64,
        caller: impl Into<String>,
        callee: impl Into<String>,
        method: impl Into<String>,
        call_timestamp: u64,
        response_timestamp: u64,
    ) -> Self {
        SoapCall {
            call_id,
            caller: caller.into(),
            callee: callee.into(),
            method: method.into(),
            call_timestamp,
            response_timestamp,
            body: None,
            fault: None,
        }
    }

    /// Attaches a SOAP body.
    pub fn with_body(mut self, body: Element) -> Self {
        self.body = Some(body);
        self
    }

    /// Marks the call as faulted.
    pub fn with_fault(mut self, fault: impl Into<String>) -> Self {
        self.fault = Some(fault.into());
        self
    }

    /// Response latency in milliseconds.
    pub fn duration(&self) -> u64 {
        self.response_timestamp.saturating_sub(self.call_timestamp)
    }
}

/// Whether the alerter watches calls arriving at its peer or leaving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallDirection {
    /// `inCOM`: calls whose callee is the alerter's peer.
    Incoming,
    /// `outCOM`: calls whose caller is the alerter's peer.
    Outgoing,
}

impl CallDirection {
    /// The P2PML function name for this direction.
    pub fn function_name(&self) -> &'static str {
        match self {
            CallDirection::Incoming => "inCOM",
            CallDirection::Outgoing => "outCOM",
        }
    }
}

/// The Web-service alerter at one peer.
#[derive(Debug, Clone)]
pub struct WsAlerter {
    /// The alerter's peer, normalized and interned once: dropping an
    /// alerter frees nothing, and a call is compared with it without
    /// normalizing it again or taking the interner's lock.
    peer: &'static str,
    direction: CallDirection,
    buffer: Vec<Element>,
}

impl WsAlerter {
    /// Creates an alerter for the given peer and direction.
    pub fn new(peer: impl Into<String>, direction: CallDirection) -> Self {
        WsAlerter {
            peer: Name::new(p2pmon_streams::normalize_peer(&peer.into())).as_str(),
            direction,
            buffer: Vec::new(),
        }
    }

    /// True when the call concerns this alerter (right peer and direction).
    /// Peer references are normalised, so `http://a.com` in the monitored
    /// traffic matches an alerter installed at `a.com`.
    pub fn is_relevant(&self, call: &SoapCall) -> bool {
        let endpoint = match self.direction {
            CallDirection::Incoming => &call.callee,
            CallDirection::Outgoing => &call.caller,
        };
        p2pmon_streams::normalize_peer(endpoint) == self.peer
    }

    /// Observes one SOAP exchange; buffers an alert when relevant.
    pub fn observe(&mut self, call: &SoapCall) -> bool {
        if !self.is_relevant(call) {
            return false;
        }
        self.buffer.push(Self::alert_for(call, self.direction));
        true
    }

    /// Builds the alert tree for a call.  Root attributes carry the "simple"
    /// information (identifiers, timestamps); the SOAP envelope, when
    /// present, goes into the sub-elements.
    pub fn alert_for(call: &SoapCall, direction: CallDirection) -> Element {
        let mut alert = ElementBuilder::new("alert")
            .attr("direction", direction.function_name())
            .attr("callId", call.call_id)
            .attr("caller", call.caller.clone())
            .attr("callee", call.callee.clone())
            .attr("callMethod", call.method.clone())
            .attr("callTimestamp", call.call_timestamp)
            .attr("responseTimestamp", call.response_timestamp)
            .attr("duration", call.duration())
            .build();
        if let Some(fault) = &call.fault {
            alert.set_attr("fault", fault.clone());
        }
        let mut envelope = Element::new("soap:Envelope");
        let mut body = Element::new("soap:Body");
        let mut op = Element::new(call.method.clone());
        if let Some(payload) = &call.body {
            op.push_element(payload.clone());
        }
        body.push_element(op);
        envelope.push_element(body);
        alert.push_element(envelope);
        alert
    }
}

impl Alerter for WsAlerter {
    fn drain(&mut self) -> Vec<Element> {
        std::mem::take(&mut self.buffer)
    }

    fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> SoapCall {
        SoapCall::new(42, "a.com", "meteo.com", "GetTemperature", 100, 115)
            .with_body(Element::text_element("city", "Orsay"))
    }

    #[test]
    fn alert_carries_simple_attributes_and_envelope() {
        let alert = WsAlerter::alert_for(&call(), CallDirection::Incoming);
        assert_eq!(alert.attr("callId"), Some("42"));
        assert_eq!(alert.attr("caller"), Some("a.com"));
        assert_eq!(alert.attr("callee"), Some("meteo.com"));
        assert_eq!(alert.attr("callMethod"), Some("GetTemperature"));
        assert_eq!(alert.attr("duration"), Some("15"));
        assert_eq!(alert.attr("direction"), Some("inCOM"));
        let body = alert
            .find_descendant("GetTemperature")
            .expect("method element inside the envelope");
        assert_eq!(body.child("city").unwrap().text(), "Orsay");
    }

    #[test]
    fn incoming_alerter_only_sees_calls_to_its_peer() {
        let mut a = WsAlerter::new("meteo.com", CallDirection::Incoming);
        assert!(a.observe(&call()));
        let other = SoapCall::new(43, "a.com", "other.com", "X", 0, 1);
        assert!(!a.observe(&other));
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn outgoing_alerter_only_sees_calls_from_its_peer() {
        let mut a = WsAlerter::new("a.com", CallDirection::Outgoing);
        assert!(a.observe(&call()));
        let other = SoapCall::new(44, "b.com", "meteo.com", "X", 0, 1);
        assert!(!a.observe(&other));
        let alerts = a.drain();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attr("direction"), Some("outCOM"));
    }

    #[test]
    fn faulted_call_is_annotated() {
        let c = call().with_fault("timeout");
        let alert = WsAlerter::alert_for(&c, CallDirection::Outgoing);
        assert_eq!(alert.attr("fault"), Some("timeout"));
    }

    #[test]
    fn duration_is_saturating() {
        let c = SoapCall::new(1, "a", "b", "m", 100, 90);
        assert_eq!(c.duration(), 0);
    }
}
