//! The preFilter module.
//!
//! "The preFilter module is an automaton that, for each document t, reads the
//! first tag of t (so, in particular, the root's attributes).  It tests the
//! simple conditions which are organized in a hash-table with the attribute
//! name as key and the condition as value."
//!
//! The preFilter owns the *condition alphabet*: the set of distinct simple
//! conditions registered by all subscriptions, each with a stable index.
//! The AES hash-tree is built over those indices, so the ordering of the
//! alphabet is the total order the AES algorithm requires.

use std::collections::HashMap;

use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::Element;

/// Index of a condition in the alphabet.
pub type ConditionId = usize;

/// The preFilter: the condition alphabet plus the per-attribute hash table.
#[derive(Debug, Clone, Default)]
pub struct PreFilter {
    /// The alphabet, in registration order (this *is* the AES total order).
    conditions: Vec<AttrCondition>,
    /// Canonical key → condition id, to deduplicate identical conditions
    /// across subscriptions.
    by_key: HashMap<String, ConditionId>,
    /// Attribute name → conditions mentioning it.
    by_attr: HashMap<String, Vec<ConditionId>>,
    /// Documents processed (for statistics).
    pub documents_seen: u64,
    /// Total condition evaluations performed.
    pub evaluations: u64,
}

impl PreFilter {
    /// Creates an empty preFilter.
    pub fn new() -> Self {
        PreFilter::default()
    }

    /// Registers a condition, returning its id; identical conditions share an
    /// id (this is what lets thousands of subscriptions on the same callee
    /// cost one evaluation per document).
    pub fn register(&mut self, condition: &AttrCondition) -> ConditionId {
        let key = condition.key();
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.conditions.len();
        self.conditions.push(condition.clone());
        self.by_key.insert(key, id);
        self.by_attr
            .entry(condition.attr.clone())
            .or_default()
            .push(id);
        id
    }

    /// The number of distinct conditions in the alphabet.
    pub fn alphabet_size(&self) -> usize {
        self.conditions.len()
    }

    /// Looks up a condition by id.
    pub fn condition(&self, id: ConditionId) -> Option<&AttrCondition> {
        self.conditions.get(id)
    }

    /// Evaluates the registered conditions against the *root attributes* of a
    /// document and returns the ordered (ascending id) list of satisfied
    /// condition ids.
    ///
    /// Only conditions whose attribute actually appears on the root are
    /// evaluated — this is the hash-table lookup of the paper, and it is what
    /// keeps the cost proportional to the root's attribute count rather than
    /// to the number of registered conditions.
    pub fn satisfied(&mut self, document: &Element) -> Vec<ConditionId> {
        self.documents_seen += 1;
        let mut out = Vec::new();
        for (attr, _value) in &document.attributes {
            if let Some(candidates) = self.by_attr.get(attr) {
                for &cid in candidates {
                    self.evaluations += 1;
                    if self.conditions[cid].eval(document) {
                        out.push(cid);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;
    use p2pmon_xmlkit::path::CompareOp;

    fn cond(attr: &str, op: CompareOp, v: &str) -> AttrCondition {
        AttrCondition::new(attr, op, v)
    }

    #[test]
    fn identical_conditions_share_an_id() {
        let mut pf = PreFilter::new();
        let a = pf.register(&cond("callee", CompareOp::Eq, "meteo.com"));
        let b = pf.register(&cond("callee", CompareOp::Eq, "meteo.com"));
        let c = pf.register(&cond("callee", CompareOp::Eq, "other.com"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pf.alphabet_size(), 2);
    }

    #[test]
    fn satisfied_returns_ordered_ids() {
        let mut pf = PreFilter::new();
        let c0 = pf.register(&cond("m", CompareOp::Eq, "GetTemperature"));
        let c1 = pf.register(&cond("callee", CompareOp::Eq, "meteo.com"));
        let c2 = pf.register(&cond("dur", CompareOp::Gt, "10"));
        let doc = parse(r#"<alert dur="15" m="GetTemperature" callee="meteo.com"/>"#).unwrap();
        assert_eq!(pf.satisfied(&doc), vec![c0, c1, c2]);
        let doc2 = parse(r#"<alert dur="5" m="GetTemperature" callee="nowhere"/>"#).unwrap();
        assert_eq!(pf.satisfied(&doc2), vec![c0]);
    }

    #[test]
    fn only_present_attributes_are_evaluated() {
        let mut pf = PreFilter::new();
        for i in 0..100 {
            pf.register(&cond(&format!("attr{i}"), CompareOp::Eq, "v"));
        }
        let doc = parse(r#"<alert attr5="v" attr50="x"/>"#).unwrap();
        let satisfied = pf.satisfied(&doc);
        assert_eq!(satisfied.len(), 1);
        // Only the two conditions whose attribute is present were evaluated,
        // not all 100 — the hash-table property the paper relies on.
        assert_eq!(pf.evaluations, 2);
    }

    #[test]
    fn inequality_conditions() {
        let mut pf = PreFilter::new();
        let le = pf.register(&cond("size", CompareOp::Le, "100"));
        let ne = pf.register(&cond("kind", CompareOp::Ne, "noise"));
        let doc = parse(r#"<e size="80" kind="signal"/>"#).unwrap();
        assert_eq!(pf.satisfied(&doc), vec![le, ne]);
        let doc = parse(r#"<e size="200" kind="noise"/>"#).unwrap();
        assert!(pf.satisfied(&doc).is_empty());
    }
}
