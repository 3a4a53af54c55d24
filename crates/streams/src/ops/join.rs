//! The Join (⋈) operator.
//!
//! "Join takes two streams as input and generates an output stream.  Join can
//! be parameterized by a join predicate. […] For each new tree t in one of
//! the input streams, the history of the other stream is searched for a tree
//! t′ so that (t, t′) matches the join predicate.  An index over that history
//! is used to speed up the search.  The result of Join includes information
//! about the matching pair of trees."
//!
//! The implementation keeps, per input, a hash index from the join-key value
//! to the retained items.  Histories are bounded by a [`Window`] (item count
//! and/or age), implementing the garbage-collection mechanism the paper lists
//! as future work: expired trees are dropped eagerly on every insertion.

use std::collections::HashMap;
use std::sync::Arc;

use p2pmon_xmlkit::Element;

use crate::binding::Bindings;
use crate::condition::Condition;
use crate::item::StreamItem;

/// The join specification: variable names for the two sides, the root
/// attributes of the equality predicate, and optional residual conditions
/// evaluated on the merged bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Variable bound to items arriving on port 0.
    pub left_var: String,
    /// Variable bound to items arriving on port 1.
    pub right_var: String,
    /// Key attribute of port-0 items.
    pub left_key: String,
    /// Key attribute of port-1 items.
    pub right_key: String,
    /// Residual conditions checked on each candidate pair.
    pub residual: Vec<Condition>,
}

impl JoinSpec {
    /// Equality join on a root attribute present on both sides (the common
    /// case: `$c1.callId = $c2.callId`).
    pub fn on_attr(
        left_var: impl Into<String>,
        right_var: impl Into<String>,
        attr: impl Into<String>,
    ) -> Self {
        let attr = attr.into();
        JoinSpec {
            left_var: left_var.into(),
            right_var: right_var.into(),
            left_key: attr.clone(),
            right_key: attr,
            residual: Vec::new(),
        }
    }

    /// Adds residual conditions.
    pub fn with_residual(mut self, residual: Vec<Condition>) -> Self {
        self.residual = residual;
        self
    }
}

/// History bound for stateful operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Maximum number of items retained per side (`None` = unbounded).
    pub max_items: Option<usize>,
    /// Maximum age in logical milliseconds (`None` = unbounded).
    pub max_age_ms: Option<u64>,
}

impl Window {
    /// An unbounded window (no garbage collection).
    pub fn unbounded() -> Self {
        Window {
            max_items: None,
            max_age_ms: None,
        }
    }

    /// A count-bounded window.
    pub fn items(max_items: usize) -> Self {
        Window {
            max_items: Some(max_items),
            max_age_ms: None,
        }
    }

    /// A time-bounded window.
    pub fn age_ms(max_age_ms: u64) -> Self {
        Window {
            max_items: None,
            max_age_ms: Some(max_age_ms),
        }
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::unbounded()
    }
}

/// One side's history: items indexed by join key.
#[derive(Debug, Clone, Default)]
struct History {
    /// key → (seq, timestamp, shared element)
    index: HashMap<String, Vec<(u64, u64, Arc<Element>)>>,
    /// Insertion order for count-based eviction: (key, seq).
    order: Vec<(String, u64)>,
    bytes: usize,
}

impl History {
    fn insert(&mut self, key: String, seq: u64, timestamp: u64, element: Arc<Element>) {
        self.bytes += element.byte_size();
        self.index
            .entry(key.clone())
            .or_default()
            .push((seq, timestamp, element));
        self.order.push((key, seq));
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn evict_older_than(&mut self, min_timestamp: u64) -> usize {
        let mut evicted = 0;
        self.order.retain(|(key, seq)| {
            let keep = match self.index.get(key) {
                Some(entries) => entries
                    .iter()
                    .find(|(s, _, _)| s == seq)
                    .map(|(_, ts, _)| *ts >= min_timestamp)
                    .unwrap_or(false),
                None => false,
            };
            keep
        });
        for entries in self.index.values_mut() {
            let before = entries.len();
            entries.retain(|(_, ts, _)| *ts >= min_timestamp);
            evicted += before - entries.len();
        }
        self.index.retain(|_, v| !v.is_empty());
        self.recompute_bytes();
        evicted
    }

    fn evict_to_count(&mut self, max_items: usize) -> usize {
        let mut evicted = 0;
        while self.order.len() > max_items {
            let (key, seq) = self.order.remove(0);
            if let Some(entries) = self.index.get_mut(&key) {
                if let Some(pos) = entries.iter().position(|(s, _, _)| *s == seq) {
                    entries.remove(pos);
                    evicted += 1;
                }
                if entries.is_empty() {
                    self.index.remove(&key);
                }
            }
        }
        self.recompute_bytes();
        evicted
    }

    fn recompute_bytes(&mut self) {
        self.bytes = self
            .index
            .values()
            .flat_map(|v| v.iter())
            .map(|(_, _, e)| e.byte_size())
            .sum();
    }

    fn probe(&self, key: &str) -> &[(u64, u64, Arc<Element>)] {
        self.index.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The Join (⋈) operator.
#[derive(Debug, Clone)]
pub struct Join {
    spec: JoinSpec,
    window: Window,
    left: History,
    right: History,
    /// Pairs emitted so far.
    pub emitted: u64,
    /// Items evicted by garbage collection so far.
    pub evicted: u64,
}

impl Join {
    /// Creates a join with the given specification and history window.
    pub fn new(spec: JoinSpec, window: Window) -> Self {
        Join {
            spec,
            window,
            left: History::default(),
            right: History::default(),
            emitted: 0,
            evicted: 0,
        }
    }

    /// Number of items currently retained in both histories.
    pub fn history_len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    fn gc(&mut self, now: u64) {
        if let Some(age) = self.window.max_age_ms {
            let min = now.saturating_sub(age);
            self.evicted += self.left.evict_older_than(min) as u64;
            self.evicted += self.right.evict_older_than(min) as u64;
        }
        if let Some(max) = self.window.max_items {
            self.evicted += self.left.evict_to_count(max) as u64;
            self.evicted += self.right.evict_to_count(max) as u64;
        }
    }

    fn make_pair(&self, left: &Element, right: &Element) -> Option<Element> {
        let mut bindings = Bindings::from_element(left, &self.spec.left_var);
        let right_bindings = Bindings::from_element(right, &self.spec.right_var);
        bindings.merge(&right_bindings);
        if self.spec.residual.iter().all(|c| c.eval(&bindings)) {
            Some(bindings.to_tuple_element())
        } else {
            None
        }
    }

    /// Delivers one item on port 0 (left) or 1 (right) and returns the
    /// joined `<tuple>`s it completes.  An item without its side's key
    /// attribute neither joins nor is retained.
    pub fn on_item(&mut self, port: usize, item: &StreamItem) -> Vec<Arc<Element>> {
        // A `<tuple>` input uses its binding for this side's variable.
        let (own_var, key_attr) = if port == 0 {
            (&self.spec.left_var, &self.spec.left_key)
        } else {
            (&self.spec.right_var, &self.spec.right_key)
        };
        let own_bindings = Bindings::from_item(&item.data, own_var);
        let own_tree: &Element = own_bindings.tree(own_var).unwrap_or(&item.data);
        let key = match own_tree.attr(key_attr) {
            Some(k) => k.to_string(),
            None => return Vec::new(),
        };

        // Probe the other side's history.
        let mut outputs = Vec::new();
        {
            let other = if port == 0 { &self.right } else { &self.left };
            for (_, _, candidate) in other.probe(&key) {
                let pair = if port == 0 {
                    self.make_pair(&item.data, candidate)
                } else {
                    self.make_pair(candidate, &item.data)
                };
                if let Some(p) = pair {
                    outputs.push(Arc::new(p));
                }
            }
        }
        self.emitted += outputs.len() as u64;

        let own = if port == 0 {
            &mut self.left
        } else {
            &mut self.right
        };
        own.insert(key, item.seq, item.timestamp, item.data.clone());
        self.gc(item.timestamp);
        outputs
    }

    /// Approximate number of bytes held in both histories.
    pub fn state_size(&self) -> usize {
        self.left.bytes + self.right.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn call(port_tag: &str, call_id: u64, ts: u64) -> StreamItem {
        StreamItem::new(
            call_id,
            ts,
            parse(&format!(
                r#"<alert side="{port_tag}" callId="{call_id}" ts="{ts}"/>"#
            ))
            .unwrap(),
        )
    }

    fn join() -> Join {
        Join::new(JoinSpec::on_attr("c1", "c2", "callId"), Window::unbounded())
    }

    #[test]
    fn matching_call_ids_produce_a_pair() {
        let mut j = join();
        assert!(j.on_item(0, &call("out", 42, 10)).is_empty());
        let out = j.on_item(1, &call("in", 42, 11));
        assert_eq!(out.len(), 1);
        let tuple = &out[0];
        let b = Bindings::from_element(tuple, "_");
        assert_eq!(b.tree("c1").unwrap().attr("side"), Some("out"));
        assert_eq!(b.tree("c2").unwrap().attr("side"), Some("in"));
        assert_eq!(j.emitted, 1);
    }

    #[test]
    fn non_matching_ids_do_not_join() {
        let mut j = join();
        j.on_item(0, &call("out", 1, 0));
        assert!(j.on_item(1, &call("in", 2, 1)).is_empty());
    }

    #[test]
    fn join_works_in_both_arrival_orders() {
        let mut j = join();
        j.on_item(1, &call("in", 7, 0));
        assert_eq!(j.on_item(0, &call("out", 7, 1)).len(), 1);
    }

    #[test]
    fn multiple_matches_produce_multiple_pairs() {
        let mut j = join();
        j.on_item(0, &call("out", 5, 0));
        j.on_item(0, &call("out", 5, 1));
        let out = j.on_item(1, &call("in", 5, 2));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn residual_condition_filters_pairs() {
        use crate::condition::Operand;
        use p2pmon_xmlkit::path::CompareOp;
        use p2pmon_xmlkit::Value;

        let spec = JoinSpec::on_attr("c1", "c2", "callId").with_residual(vec![Condition::new(
            Operand::VarAttr {
                var: "c2".into(),
                attr: "ts".into(),
            },
            CompareOp::Gt,
            Operand::Const(Value::Integer(100)),
        )]);
        let mut j = Join::new(spec, Window::unbounded());
        j.on_item(0, &call("out", 1, 10));
        assert!(j.on_item(1, &call("in", 1, 50)).is_empty());
        assert_eq!(j.on_item(1, &call("in", 1, 150)).len(), 1);
    }

    #[test]
    fn count_window_garbage_collects_history() {
        let mut j = Join::new(JoinSpec::on_attr("a", "b", "callId"), Window::items(2));
        for i in 0..10 {
            j.on_item(0, &call("out", i, i));
        }
        assert!(j.history_len() <= 2);
        assert!(j.evicted >= 8);
        // Only the most recent two left-side items can still join.
        assert!(j.on_item(1, &call("in", 0, 100)).is_empty());
        assert_eq!(j.on_item(1, &call("in", 9, 101)).len(), 1);
    }

    #[test]
    fn age_window_garbage_collects_history() {
        let mut j = Join::new(JoinSpec::on_attr("a", "b", "callId"), Window::age_ms(50));
        j.on_item(0, &call("out", 1, 0));
        j.on_item(0, &call("out", 2, 100));
        // Item with ts=0 is now older than 100-50.
        assert!(j.on_item(1, &call("in", 1, 110)).is_empty());
        assert_eq!(j.on_item(1, &call("in", 2, 110)).len(), 1);
    }

    #[test]
    fn state_size_tracks_history() {
        let mut j = join();
        assert_eq!(j.state_size(), 0);
        j.on_item(0, &call("out", 1, 0));
        assert!(j.state_size() > 0);
    }

    #[test]
    fn items_without_key_are_skipped() {
        let mut j = join();
        let keyless = StreamItem::new(0, 0, parse("<alert/>").unwrap());
        assert!(j.on_item(0, &keyless).is_empty());
        assert_eq!(j.history_len(), 0);
    }
}
