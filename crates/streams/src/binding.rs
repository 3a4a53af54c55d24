//! Variable bindings — the tuples flowing between compiled P2PML clauses.
//!
//! A P2PML subscription names its sources with FOR variables (`$c1`, `$c2`),
//! derives further values with LET (`$duration`) and then evaluates WHERE
//! conditions and the RETURN template over those variables.  After a Join,
//! an output item carries *two* trees (the matching pair).  [`Bindings`] is
//! that tuple: a set of named XML trees plus a set of named derived values.
//!
//! When a tuple has to cross a peer boundary (the compiled plan put the Join
//! on one peer and the Restructure on another), it is serialized as a
//! `<tuple>` element whose children are `<binding var="…">` wrappers.  A bare
//! (non-tuple) stream item is interpreted as a single binding for whichever
//! variable the consuming operator expects.

use std::sync::Arc;

use p2pmon_xmlkit::{Element, Value};

/// The root element name used when serializing a tuple of bindings.
pub const TUPLE_TAG: &str = "tuple";
/// The wrapper element name for one binding inside a tuple.
pub const BINDING_TAG: &str = "binding";

/// A tuple of named trees and named derived values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    trees: Vec<(String, Arc<Element>)>,
    values: Vec<(String, Value)>,
}

impl Bindings {
    /// An empty tuple.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// A tuple with a single tree binding.
    pub fn single(var: impl Into<String>, tree: impl Into<Arc<Element>>) -> Self {
        let mut b = Bindings::new();
        b.bind_tree(var, tree);
        b
    }

    /// Binds (or rebinds) a tree variable.  Trees are reference-counted:
    /// binding an already-shared tree is a pointer bump, not a copy.
    pub fn bind_tree(&mut self, var: impl Into<String>, tree: impl Into<Arc<Element>>) {
        let var = var.into();
        let tree = tree.into();
        if let Some(slot) = self.trees.iter_mut().find(|(v, _)| *v == var) {
            slot.1 = tree;
        } else {
            self.trees.push((var, tree));
        }
    }

    /// Binds (or rebinds) a derived value (LET variable).
    pub fn bind_value(&mut self, var: impl Into<String>, value: Value) {
        let var = var.into();
        if let Some(slot) = self.values.iter_mut().find(|(v, _)| *v == var) {
            slot.1 = value;
        } else {
            self.values.push((var, value));
        }
    }

    /// Looks up a tree binding.
    pub fn tree(&self, var: &str) -> Option<&Element> {
        self.trees
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, t)| t.as_ref())
    }

    /// Looks up a derived value.
    pub fn value(&self, var: &str) -> Option<&Value> {
        self.values.iter().find(|(v, _)| v == var).map(|(_, t)| t)
    }

    /// Number of tree bindings.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when there are no tree bindings.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Merges another tuple into this one (used by Join: the output carries
    /// the union of the two sides' bindings).  Right-hand bindings win on
    /// variable collision.
    pub fn merge(&mut self, other: &Bindings) {
        for (v, t) in &other.trees {
            self.bind_tree(v.clone(), Arc::clone(t));
        }
        for (v, val) in &other.values {
            self.bind_value(v.clone(), val.clone());
        }
    }

    /// Serializes the tuple as a `<tuple>` element.
    pub fn to_tuple_element(&self) -> Element {
        let mut tuple = Element::new(TUPLE_TAG);
        for (var, tree) in &self.trees {
            let mut wrapper = Element::new(BINDING_TAG);
            wrapper.set_attr("var", var.clone());
            wrapper.push_element((**tree).clone());
            tuple.push_element(wrapper);
        }
        for (var, value) in &self.values {
            let mut wrapper = Element::new(BINDING_TAG);
            wrapper.set_attr("var", var.clone());
            wrapper.set_attr("value", value.as_string());
            tuple.push_element(wrapper);
        }
        tuple
    }

    /// Reconstructs bindings from an element.
    ///
    /// * A `<tuple>` element is decoded binding by binding.
    /// * Any other element is treated as a bare item bound to `default_var`.
    pub fn from_element(element: &Element, default_var: &str) -> Bindings {
        if element.name != TUPLE_TAG {
            return Bindings::single(default_var, element.clone());
        }
        Bindings::decode_tuple(element)
    }

    /// Zero-copy variant of [`Bindings::from_element`] for items already
    /// behind an `Arc` (the stream hot path): a bare item binds by bumping
    /// the reference count instead of deep-cloning the tree.
    pub fn from_item(data: &Arc<Element>, default_var: &str) -> Bindings {
        if data.name != TUPLE_TAG {
            return Bindings::single(default_var, Arc::clone(data));
        }
        Bindings::decode_tuple(data)
    }

    fn decode_tuple(element: &Element) -> Bindings {
        let mut b = Bindings::new();
        for wrapper in element.children_named(BINDING_TAG) {
            let var = wrapper.attr("var").unwrap_or("_").to_string();
            if let Some(value) = wrapper.attr("value") {
                b.bind_value(var, Value::from_literal(value));
            } else if let Some(tree) = wrapper.child_elements().next() {
                b.bind_tree(var, tree.clone());
            }
        }
        b
    }

    /// Convenience: the value of `$var.attr` (a root attribute of the bound
    /// tree), or of a derived value when `attr` is empty.
    pub fn attr_value(&self, var: &str, attr: &str) -> Option<Value> {
        if attr.is_empty() {
            return self.value(var).cloned();
        }
        self.tree(var).and_then(|t| t.attr_value(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    #[test]
    fn bind_lookup_and_rebind() {
        let mut b = Bindings::new();
        b.bind_tree("c1", parse("<alert callId=\"1\"/>").unwrap());
        b.bind_value("duration", Value::Integer(12));
        assert_eq!(b.tree("c1").unwrap().attr("callId"), Some("1"));
        assert_eq!(b.value("duration"), Some(&Value::Integer(12)));
        b.bind_tree("c1", parse("<alert callId=\"2\"/>").unwrap());
        assert_eq!(b.len(), 1);
        assert_eq!(b.tree("c1").unwrap().attr("callId"), Some("2"));
    }

    #[test]
    fn tuple_round_trip() {
        let mut b = Bindings::new();
        b.bind_tree(
            "c1",
            parse(r#"<alert callId="7" caller="a.com"/>"#).unwrap(),
        );
        b.bind_tree(
            "c2",
            parse(r#"<alert callId="7" callee="meteo.com"/>"#).unwrap(),
        );
        b.bind_value("duration", Value::Integer(15));
        let tuple = b.to_tuple_element();
        let decoded = Bindings::from_element(&tuple, "ignored");
        assert_eq!(decoded, b);
    }

    #[test]
    fn bare_item_binds_to_default_var() {
        let item = parse(r#"<alert callId="9"/>"#).unwrap();
        let b = Bindings::from_element(&item, "c1");
        assert_eq!(b.tree("c1").unwrap().attr("callId"), Some("9"));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn merge_prefers_right_hand_side() {
        let mut left = Bindings::single("x", parse("<a v=\"1\"/>").unwrap());
        let right = Bindings::single("x", parse("<a v=\"2\"/>").unwrap());
        left.merge(&right);
        assert_eq!(left.tree("x").unwrap().attr("v"), Some("2"));
    }

    #[test]
    fn attr_value_accessor() {
        let mut b = Bindings::single("c1", parse(r#"<alert callId="42"/>"#).unwrap());
        b.bind_value("duration", Value::Integer(3));
        assert_eq!(b.attr_value("c1", "callId"), Some(Value::Integer(42)));
        assert_eq!(b.attr_value("duration", ""), Some(Value::Integer(3)));
        assert_eq!(b.attr_value("c1", "missing"), None);
        assert_eq!(b.attr_value("missing", "x"), None);
    }
}
