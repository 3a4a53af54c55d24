//! The DHT-membership alerter (`areRegistered`).
//!
//! Section 2's nested-subscription example assumes "the DHT exports a stream
//! of events, corresponding to peers joining or leaving":
//!
//! ```xml
//! <p-join>a.com</p-join>   <!-- a joins  -->
//! <p-leave>a.com</p-leave> <!-- a leaves -->
//! ```
//!
//! Downstream, `inCOM($j)` adds and removes peers from the collection of
//! monitored peers as these events arrive.

use p2pmon_xmlkit::Element;

use crate::Alerter;

/// A membership change observed in the monitored DHT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A peer joined.
    Join(String),
    /// A peer left.
    Leave(String),
}

impl MembershipEvent {
    /// The affected peer.
    pub fn peer(&self) -> &str {
        match self {
            MembershipEvent::Join(p) | MembershipEvent::Leave(p) => p,
        }
    }

    /// Renders the event in the paper's `<p-join>` / `<p-leave>` form.
    pub fn to_element(&self) -> Element {
        match self {
            MembershipEvent::Join(p) => Element::text_element("p-join", p.clone()),
            MembershipEvent::Leave(p) => Element::text_element("p-leave", p.clone()),
        }
    }

    /// Parses the XML form back.
    pub fn from_element(element: &Element) -> Option<MembershipEvent> {
        match element.name.as_str() {
            "p-join" => Some(MembershipEvent::Join(element.text())),
            "p-leave" => Some(MembershipEvent::Leave(element.text())),
            _ => None,
        }
    }
}

/// The `areRegistered` alerter: tracks the currently registered peers of a
/// monitored DHT and streams join/leave events.  It runs at the peer its
/// subscription names (typically the DHT's bootstrap peer, `s.com/dht` in
/// the paper); its events do not carry that peer.
#[derive(Debug, Clone, Default)]
pub struct MembershipAlerter {
    registered: Vec<String>,
    buffer: Vec<Element>,
}

impl MembershipAlerter {
    /// Records a join; duplicate joins are ignored.  Returns `true` when the
    /// event produced an alert.
    pub fn observe_join(&mut self, peer: impl Into<String>) -> bool {
        let peer = peer.into();
        if self.registered.contains(&peer) {
            return false;
        }
        self.registered.push(peer.clone());
        self.buffer.push(MembershipEvent::Join(peer).to_element());
        true
    }

    /// Records a leave; leaves of unknown peers are ignored.
    pub fn observe_leave(&mut self, peer: &str) -> bool {
        let before = self.registered.len();
        self.registered.retain(|p| p != peer);
        if self.registered.len() == before {
            return false;
        }
        self.buffer
            .push(MembershipEvent::Leave(peer.to_string()).to_element());
        true
    }
}

impl Alerter for MembershipAlerter {
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

    #[test]
    fn joins_and_leaves_stream_the_paper_events() {
        let mut a = MembershipAlerter::default();
        assert!(a.observe_join("a.com"));
        assert!(!a.observe_join("a.com"), "duplicate join is a no-op");
        assert!(a.observe_join("b.com"));
        assert!(a.observe_leave("a.com"));
        assert!(!a.observe_leave("a.com"), "already gone");
        let events = a.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "p-join");
        assert_eq!(events[0].text(), "a.com");
        assert_eq!(events[2].name, "p-leave");
        // b.com is still registered: its leave is news, a second join is not.
        assert!(!a.observe_join("b.com"));
        assert!(a.observe_leave("b.com"));
        let events = a.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].text(), "b.com");
    }

    #[test]
    fn event_xml_round_trip() {
        for ev in [
            MembershipEvent::Join("x.org".into()),
            MembershipEvent::Leave("y.org".into()),
        ] {
            assert_eq!(MembershipEvent::from_element(&ev.to_element()), Some(ev));
        }
        assert_eq!(MembershipEvent::from_element(&Element::new("other")), None);
    }
}
