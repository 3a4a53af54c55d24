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
//!
//! Under each attribute name the conditions are indexed by the *value* they
//! accept, so a document is looked up, not tested against the alphabet: `=`
//! conditions sit in hash maps keyed by their constant, `<` `<=` `>` `>=`
//! over numeric constants in lists sorted by constant (one binary search
//! yields the run a value satisfies), and only what neither can hold — `!=`,
//! ranges over non-numeric constants, a second spelling of one number — is
//! evaluated one by one.  Every constant is typed when it is registered and
//! every root attribute once per document.  The results are those of
//! [`AttrCondition::eval`], condition by condition
//! (`tests/prefilter_model.rs` holds the index to that).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{Element, Value};

/// Index of a condition in the alphabet.
pub type ConditionId = usize;

/// The range operators, in the order [`AttrIndex::ranges`] holds their lists.
const RANGE_OPS: [CompareOp; 4] = [CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];

/// What a numeric constant or value hashes as: the bits of the float it
/// compares as, with `-0` folded onto `0` because the two compare equal.
fn numeric_key(number: f64) -> u64 {
    (number + 0.0).to_bits()
}

/// The conditions on one attribute name, indexed by the values they accept.
///
/// `=` needs one lookup per *kind* of value.  A numeric value and a
/// non-numeric constant (or the reverse) compare by canonical string, and
/// those are never equal: a numeric value's canonical string parses as a
/// finite number, while a constant is non-numeric exactly because its own
/// does not.
#[derive(Debug, Clone, Default)]
struct AttrIndex {
    /// `=` over numeric constants, by [`numeric_key`].  `5`, `5.0` and ` 5 `
    /// are three conditions and one key: the first spelling holds the slot,
    /// later ones go to `one_by_one`.
    eq_numeric: HashMap<u64, ConditionId>,
    /// `=` over every other constant, by canonical string (`true` and
    /// ` true` share one, so the same rule applies).
    eq_text: HashMap<String, ConditionId>,
    /// `<`, `<=`, `>`, `>=` over numeric constants (in [`RANGE_OPS`] order),
    /// each list sorted by constant.
    ranges: [Vec<(f64, ConditionId)>; 4],
    /// What no structure above can hold: `!=`, ranges over non-numeric
    /// constants (they order by string), second spellings.
    one_by_one: Vec<ConditionId>,
}

/// Gives `id` the map slot unless an earlier condition already holds it.
fn claim<K>(slot: Entry<'_, K, ConditionId>, id: ConditionId) -> bool {
    match slot {
        Entry::Vacant(slot) => {
            slot.insert(id);
            true
        }
        Entry::Occupied(_) => false,
    }
}

impl AttrIndex {
    fn insert(&mut self, op: CompareOp, constant: &Value, id: ConditionId) {
        let indexed = match (op, constant.as_number()) {
            (CompareOp::Eq, Some(number)) => claim(self.eq_numeric.entry(numeric_key(number)), id),
            (CompareOp::Eq, None) => claim(self.eq_text.entry(constant.as_string()), id),
            (op, Some(number)) => match RANGE_OPS.iter().position(|&r| r == op) {
                Some(r) => {
                    let list = &mut self.ranges[r];
                    let at = list.partition_point(|&(c, _)| c <= number);
                    list.insert(at, (number, id));
                    true
                }
                None => false,
            },
            (_, None) => false,
        };
        if !indexed {
            self.one_by_one.push(id);
        }
    }

    /// Appends the conditions `value` satisfies to `out` and returns the
    /// probes that took: one per structure consulted, one per condition
    /// evaluated one by one.
    fn lookup(&self, value: &Value, alphabet: &[Typed], out: &mut Vec<ConditionId>) -> u64 {
        let holds = |id: ConditionId| {
            let (condition, constant) = &alphabet[id];
            condition.op.apply(value, constant)
        };
        let mut probes = 0;
        match value.as_number() {
            Some(number) => {
                if !self.eq_numeric.is_empty() {
                    probes += 1;
                    out.extend(self.eq_numeric.get(&numeric_key(number)));
                }
                for (op, list) in RANGE_OPS.iter().zip(&self.ranges) {
                    if list.is_empty() {
                        continue;
                    }
                    probes += 1;
                    let run = match op {
                        CompareOp::Lt => &list[list.partition_point(|&(c, _)| c <= number)..],
                        CompareOp::Le => &list[list.partition_point(|&(c, _)| c < number)..],
                        CompareOp::Gt => &list[..list.partition_point(|&(c, _)| c < number)],
                        _ => &list[..list.partition_point(|&(c, _)| c <= number)],
                    };
                    out.extend(run.iter().map(|&(_, id)| id));
                }
            }
            None => {
                if !self.eq_text.is_empty() {
                    probes += 1;
                    out.extend(self.eq_text.get(value.canonical_str().as_ref()));
                }
                // A non-numeric value orders against numeric constants by
                // string, which their numeric order says nothing about.
                for &(_, id) in self.ranges.iter().flatten() {
                    probes += 1;
                    if holds(id) {
                        out.push(id);
                    }
                }
            }
        }
        for &id in &self.one_by_one {
            probes += 1;
            if holds(id) {
                out.push(id);
            }
        }
        probes
    }
}

/// A condition of the alphabet with its constant as typed at registration.
type Typed = (AttrCondition, Value);

/// The preFilter: the condition alphabet plus the per-attribute index.
#[derive(Debug, Clone, Default)]
pub struct PreFilter {
    /// The alphabet, in registration order (this *is* the AES total order).
    alphabet: Vec<Typed>,
    /// Canonical key → condition id, to deduplicate identical conditions
    /// across subscriptions.
    by_key: HashMap<String, ConditionId>,
    /// Attribute name → the conditions mentioning it, indexed by value.
    by_attr: HashMap<String, AttrIndex>,
    /// Index structures consulted plus conditions evaluated one by one, over
    /// all documents: the work [`PreFilter::satisfied`] did, as a count.
    pub condition_probes: u64,
}

impl PreFilter {
    /// Creates an empty preFilter.
    pub fn new() -> Self {
        PreFilter::default()
    }

    /// Registers a condition, returning its id; identical conditions share an
    /// id (this is what lets thousands of subscriptions on the same callee
    /// cost one index entry).
    pub fn register(&mut self, condition: &AttrCondition) -> ConditionId {
        let key = condition.key();
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.alphabet.len();
        let constant = Value::from_literal(&condition.constant);
        self.by_attr
            .entry(condition.attr.clone())
            .or_default()
            .insert(condition.op, &constant, id);
        self.alphabet.push((condition.clone(), constant));
        self.by_key.insert(key, id);
        id
    }

    /// The number of distinct conditions in the alphabet.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.len()
    }

    /// Looks up a condition by id.
    pub fn condition(&self, id: ConditionId) -> Option<&AttrCondition> {
        self.alphabet.get(id).map(|(condition, _)| condition)
    }

    /// Looks the *root attributes* of a document up in the index and returns
    /// the ordered (ascending id) list of satisfied condition ids, each once.
    ///
    /// The cost follows the root's attributes and the conditions they
    /// satisfy, not the conditions registered: an attribute no condition
    /// mentions costs one hash miss, and one that many mention costs a
    /// lookup per index structure plus whatever must be evaluated one by
    /// one.  A repeated attribute name counts once, by its first value.
    pub fn satisfied(&mut self, document: &Element) -> Vec<ConditionId> {
        let mut out = Vec::new();
        for (attr, value) in document.typed_attrs() {
            if let Some(index) = self.by_attr.get(attr) {
                self.condition_probes += index.lookup(&value, &self.alphabet, &mut out);
            }
        }
        // Each condition sits in one structure of one attribute's index and
        // each name is looked up once, so sorting is all the contract needs.
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

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
        // Only the two attributes present were looked up, one probe each,
        // not all 100 — the hash-table property the paper relies on.
        assert_eq!(pf.condition_probes, 2);
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
