//! Message envelopes.

use std::sync::Arc;

use p2pmon_streams::{AnySketch, ChannelId};
use p2pmon_xmlkit::Element;

use crate::PeerId;

/// What a message carries: an XML tree, or a sketch partial of an aggregate
/// merge tree.  Both are shared: a multicast of one payload to *n*
/// destinations enqueues *n* envelopes around one reference-counted value.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An XML tree (an alert, an operator output, a control document).
    Xml(Arc<Element>),
    /// A sketch partial, travelling as a value to the merge-tree stage it
    /// is addressed to; its XML form is what the wire is charged for
    /// ([`AnySketch::wire_size`]), the address nothing.
    Sketch {
        /// The stage that absorbs the partial.
        to: StageId,
        /// The partial.
        partial: Arc<AnySketch>,
    },
}

/// A stage of an aggregate's merge tree: the tree rooted at task `root` of
/// deployment `sub`, and the stage's `level` (0 for a leaf, one more per
/// merge level above it; the level past the last names the root itself)
/// and `slot` within the level.  Orders by tree, then level, then slot:
/// leaves before the merges above them, the root last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StageId {
    /// The deployment (subscription index) the tree belongs to.
    pub sub: usize,
    /// The tree's root task.
    pub root: usize,
    /// The stage's level.
    pub level: usize,
    /// The stage's position within its level.
    pub slot: usize,
}

impl Payload {
    /// The serialized size a message carrying this payload is charged: the
    /// tree's [`Element::byte_size`], or the byte size of the sketch's XML
    /// form.
    pub fn byte_size(&self) -> usize {
        match self {
            Payload::Xml(doc) => doc.byte_size(),
            Payload::Sketch { partial, .. } => partial.wire_size(),
        }
    }
}

impl From<Element> for Payload {
    fn from(doc: Element) -> Self {
        Payload::Xml(Arc::new(doc))
    }
}

impl From<Arc<Element>> for Payload {
    fn from(doc: Arc<Element>) -> Self {
        Payload::Xml(doc)
    }
}

/// One message in flight (or delivered): a payload travelling from `from` to
/// `to`, possibly on behalf of a published channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Monotonically increasing message identifier (assigned by the network).
    pub id: u64,
    /// Sending peer.
    pub from: PeerId,
    /// Receiving peer.
    pub to: PeerId,
    /// The channel this message belongs to, when it is a channel publication
    /// (`None` for control traffic such as DHT lookups or plan deployment).
    pub channel: Option<ChannelId>,
    /// The payload.  Shared across the envelopes of one multicast — `bytes`
    /// still charges the full serialized size to every delivery.
    pub payload: Payload,
    /// Payload size in bytes (computed once at send time).
    pub bytes: usize,
    /// Logical time at which the message was sent.
    pub sent_at: u64,
    /// Logical time at which the message is (or was) delivered.
    pub deliver_at: u64,
}

impl Message {
    /// Network latency experienced by this message.
    pub fn latency(&self) -> u64 {
        self.deliver_at.saturating_sub(self.sent_at)
    }

    /// True when this is channel traffic (data plane) rather than control
    /// traffic.
    pub fn is_channel_traffic(&self) -> bool {
        self.channel.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::{AggregateKind, AggregateSpec};

    #[test]
    fn latency_and_kind() {
        let m = Message {
            id: 1,
            from: "a".into(),
            to: "b".into(),
            channel: Some(ChannelId::new("a", "X")),
            payload: Element::new("x").into(),
            bytes: 10,
            sent_at: 100,
            deliver_at: 130,
        };
        assert_eq!(m.latency(), 30);
        assert!(m.is_channel_traffic());
    }

    #[test]
    fn a_sketch_payload_is_charged_its_xml_form() {
        let spec = AggregateSpec::new(AggregateKind::Entropy, "c", None);
        let mut partial = AnySketch::for_spec(&spec);
        partial.update("Get", 3);
        partial.update("Put", 1);
        let to = StageId {
            sub: 0,
            root: 1,
            level: 0,
            slot: 2,
        };
        let payload = Payload::Sketch {
            to,
            partial: Arc::new(partial.clone()),
        };
        assert_eq!(payload.byte_size(), partial.to_element().byte_size());
        let tree = Payload::from(partial.to_element());
        assert_eq!(tree.byte_size(), payload.byte_size());
    }
}
