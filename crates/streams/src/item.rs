//! Stream items.

use std::sync::Arc;

use p2pmon_xmlkit::Element;

/// One element of a stream: an XML tree plus bookkeeping.
///
/// The tree is shared (`Arc`): routing an item through the plan — fan-out to
/// several consumers, channel multicast, pass-through operators — bumps a
/// reference count instead of deep-cloning the whole tree at every hop.
/// Operators that actually rewrite the tree take their own copy
/// (copy-on-write via [`Arc::make_mut`] or an explicit clone of the root).
///
/// The `timestamp` is a logical clock in milliseconds maintained by the
/// network simulator (the paper's alerters attach wall-clock timestamps to
/// SOAP calls; in the reproduction all clocks are simulated so that runs are
/// deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamItem {
    /// Sequence number within the producing stream, starting at 0.
    pub seq: u64,
    /// Logical time (milliseconds) at which the item was produced.
    pub timestamp: u64,
    /// The XML tree carried by the item (shared, copy-on-write).
    pub data: Arc<Element>,
}

impl StreamItem {
    /// Creates an item.  Accepts an owned tree (wrapped once) or an already
    /// shared one (no copy at all).
    pub fn new(seq: u64, timestamp: u64, data: impl Into<Arc<Element>>) -> Self {
        StreamItem {
            seq,
            timestamp,
            data: data.into(),
        }
    }

    /// Root-attribute accessor, the "simple" information of Section 2.
    pub fn root_attr(&self, name: &str) -> Option<&str> {
        self.data.attr(name)
    }

    /// Serialized size used for transfer-cost accounting.
    pub fn byte_size(&self) -> usize {
        self.data.byte_size() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    #[test]
    fn item_accessors() {
        let item = StreamItem::new(3, 99, parse(r#"<alert callId="42"><x/></alert>"#).unwrap());
        assert_eq!(item.root_attr("callId"), Some("42"));
        assert_eq!(item.root_attr("none"), None);
        assert!(item.byte_size() > 16);
    }
}
