//! The naive baseline: evaluate every subscription in full on every document.
//!
//! This is what a system without the preFilter / AES / YFilterσ organisation
//! would do, and it is the baseline of experiments E2 and E3.  It is also the
//! ground truth the property tests compare [`crate::FilterEngine`] against.

use p2pmon_xmlkit::Element;

use crate::subscription::{FilterSubscription, SubscriptionId};

/// A filter that scans every subscription linearly.
#[derive(Debug, Clone, Default)]
pub struct NaiveFilter {
    subscriptions: Vec<FilterSubscription>,
    /// Total subscription evaluations performed.
    pub evaluations: u64,
}

impl NaiveFilter {
    /// Creates an empty naive filter.
    pub fn new() -> Self {
        NaiveFilter::default()
    }

    /// Builds a naive filter from subscriptions.
    pub fn from_subscriptions(subscriptions: impl IntoIterator<Item = FilterSubscription>) -> Self {
        NaiveFilter {
            subscriptions: subscriptions.into_iter().collect(),
            evaluations: 0,
        }
    }

    /// Registers a subscription.
    pub fn add(&mut self, subscription: FilterSubscription) {
        self.subscriptions.push(subscription);
    }

    /// Removes a subscription by id; returns `true` when it existed.
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        match self.subscriptions.iter().position(|s| s.id == id) {
            Some(pos) => {
                self.subscriptions.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Returns the ids of all subscriptions matching the document, in
    /// registration order.
    pub fn matching(&mut self, document: &Element) -> Vec<SubscriptionId> {
        self.evaluations += self.subscriptions.len() as u64;
        self.subscriptions
            .iter()
            .filter(|s| s.matches(document))
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::AttrCondition;
    use p2pmon_xmlkit::path::CompareOp;
    use p2pmon_xmlkit::{parse, XPath};

    #[test]
    fn scans_every_subscription() {
        let mut nf = NaiveFilter::new();
        nf.add(
            FilterSubscription::new(1).with_simple(vec![AttrCondition::new(
                "k",
                CompareOp::Eq,
                "a",
            )]),
        );
        nf.add(FilterSubscription::new(2).with_complex(vec![XPath::parse("//x").unwrap()]));
        nf.add(
            FilterSubscription::new(3).with_simple(vec![AttrCondition::new(
                "k",
                CompareOp::Eq,
                "b",
            )]),
        );
        let doc = parse(r#"<r k="a"><x/></r>"#).unwrap();
        let ids: Vec<u64> = nf.matching(&doc).iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(nf.evaluations, 3);
        assert_eq!(nf.len(), 3);
    }
}
