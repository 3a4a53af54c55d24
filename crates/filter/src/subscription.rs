//! Filter subscriptions.
//!
//! At the Filter level, a subscription is the pair `(Qᵢ, Tᵢ)` of a
//! conjunctive query and a report template.  Since "the main performance
//! issue is to detect the matchings", the engine works with `Qᵢ` only.  The
//! template `Tᵢ` is not carried here: it is the `Restructure` task the
//! subscribing plan places downstream of its Select.

use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::XPath;

/// Identifier of a subscription registered with the Filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A subscription `Qᵢ = ∧ⱼ Cᵢⱼ ∧ Q'ᵢ`.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSubscription {
    /// Identifier.
    pub id: SubscriptionId,
    /// The simple conditions `Cᵢⱼ` on the root attributes, in any order (the
    /// engine canonicalises them).
    pub simple: Vec<AttrCondition>,
    /// The complex part `Q'ᵢ`: zero or more tree patterns that must all
    /// match.  Empty means the subscription is *simple*.
    pub complex: Vec<XPath>,
}

impl FilterSubscription {
    /// Creates an empty subscription with the given id.
    pub fn new(id: u64) -> Self {
        FilterSubscription {
            id: SubscriptionId(id),
            simple: Vec::new(),
            complex: Vec::new(),
        }
    }

    /// Sets the simple conditions.
    pub fn with_simple(mut self, simple: Vec<AttrCondition>) -> Self {
        self.simple = simple;
        self
    }

    /// Sets the complex tree patterns.
    pub fn with_complex(mut self, complex: Vec<XPath>) -> Self {
        self.complex = complex;
        self
    }

    /// A subscription with no complex part is *simple*: the AES stage decides
    /// it completely.
    pub fn is_simple(&self) -> bool {
        self.complex.is_empty()
    }

    /// Reference evaluation of the whole subscription against a document,
    /// ignoring the staged architecture.  Used by [`crate::NaiveFilter`] and
    /// by property tests as ground truth.
    pub fn matches(&self, document: &p2pmon_xmlkit::Element) -> bool {
        self.simple.iter().all(|c| c.eval(document))
            && self.complex.iter().all(|p| p.matches(document))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;
    use p2pmon_xmlkit::path::CompareOp;

    #[test]
    fn reference_matching() {
        let sub = FilterSubscription::new(1)
            .with_simple(vec![AttrCondition::new("a", CompareOp::Eq, "1")])
            .with_complex(vec![XPath::parse("//x/y").unwrap()]);
        assert!(sub.matches(&parse(r#"<r a="1"><x><y/></x></r>"#).unwrap()));
        assert!(!sub.matches(&parse(r#"<r a="2"><x><y/></x></r>"#).unwrap()));
        assert!(!sub.matches(&parse(r#"<r a="1"><x/></r>"#).unwrap()));
        assert!(!sub.is_simple());
        assert!(FilterSubscription::new(2).is_simple());
    }

    #[test]
    fn display_id() {
        assert_eq!(SubscriptionId(7).to_string(), "Q7");
    }
}
