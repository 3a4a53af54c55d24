//! The XML tree model.
//!
//! A tree is an [`Element`] whose children are [`Node`]s: nested elements or
//! text.  Attributes are kept in insertion order so that serialization is
//! deterministic (important for stream replay and for the snapshot-diffing
//! alerters).

use std::fmt;

use crate::value::Value;

/// A child node of an element: either a nested element or a text run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A text node.  Adjacent text nodes are merged by the parser.
    Text(String),
}

impl Node {
    /// Returns the nested element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the nested element mutably, if this node is one.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }
}

/// An XML element: a name, ordered attributes and ordered children.
///
/// The paper's stream items are exactly such trees.  The root element's
/// *attributes* carry the "simple" information (call ids, timestamps,
/// caller/callee identifiers) that the two-stage Filter inspects first; the
/// *children* carry the possibly large payload (SOAP envelopes, page deltas).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes, in document order.  Duplicate names are rejected by the
    /// parser; [`Element::set_attr`] replaces in place.
    pub attributes: Vec<(String, String)>,
    /// Child nodes, in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates an element containing a single text child.
    pub fn text_element(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut e = Element::new(name);
        e.children.push(Node::Text(text.into()));
        e
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up an attribute and interprets it as a typed [`Value`].
    pub fn attr_value(&self, name: &str) -> Option<Value> {
        self.attr(name).map(Value::from_literal)
    }

    /// The attributes as typed [`Value`]s, in document order.  A repeated
    /// name yields its first occurrence only, the one [`Element::attr`]
    /// finds: whoever tests many conditions against one element types it
    /// once through this instead of once per [`Element::attr_value`] call.
    pub fn typed_attrs(&self) -> impl Iterator<Item = (&str, Value)> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|&(i, (name, _))| self.attributes[..i].iter().all(|(seen, _)| seen != name))
            .map(|(_, (name, raw))| (name.as_str(), Value::from_literal(raw)))
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
        self
    }

    /// Removes an attribute, returning its previous value.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        if let Some(pos) = self.attributes.iter().position(|(k, _)| k == name) {
            Some(self.attributes.remove(pos).1)
        } else {
            None
        }
    }

    /// Appends a child element.
    pub fn push_element(&mut self, child: Element) -> &mut Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a text child.
    pub fn push_text(&mut self, text: impl Into<String>) -> &mut Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Iterates over child *elements* only (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Iterates mutably over child elements only.
    pub fn child_elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(Node::as_element_mut)
    }

    /// Returns the first child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Returns all child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of this element's entire subtree.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
            }
        }
    }

    /// The text of the first child element with the given name, if any.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.child(name).map(Element::text)
    }

    /// Typed value of this element's text content.
    pub fn value(&self) -> Value {
        Value::from_literal(&self.text())
    }

    /// Number of nodes (elements + text runs) in the subtree, including self.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                Node::Element(e) => e.node_count(),
                Node::Text(_) => 1,
            })
            .sum::<usize>()
    }

    /// Maximum depth of the subtree (a leaf element has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.child_elements().map(Element::depth).max().unwrap_or(0)
    }

    /// Walks the subtree in document order, calling `f` on every element.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Element)) {
        f(self);
        for child in self.child_elements() {
            child.walk(f);
        }
    }

    /// Returns all descendant elements (excluding self) in document order.
    pub fn descendants(&self) -> Vec<&Element> {
        let mut out = Vec::new();
        for child in self.child_elements() {
            child.walk(&mut |e| out.push(e));
        }
        out
    }

    /// Finds the first descendant (excluding self) with the given name.
    pub fn find_descendant(&self, name: &str) -> Option<&Element> {
        for child in self.child_elements() {
            if child.name == name {
                return Some(child);
            }
            if let Some(found) = child.find_descendant(name) {
                return Some(found);
            }
        }
        None
    }

    /// Serializes this element (and its subtree) to an XML string.
    pub fn to_xml(&self) -> String {
        crate::writer::write_element(self, false)
    }

    /// Serializes with indentation, for human consumption (logs, README
    /// examples, published RSS/XHTML documents).
    pub fn to_pretty_xml(&self) -> String {
        crate::writer::write_element(self, true)
    }

    /// The network's cost model: the bytes a message carrying this element
    /// is charged, computed without serializing.  Every wire-byte figure of
    /// the simulator, the benches and the benchmark rests on this formula,
    /// so changing it changes them all.
    ///
    /// It is not `to_xml().len()`.  Every element is charged an open and a
    /// close tag (`2·name + 5`), also an empty one, which serializes
    /// self-closed as `<name/>` (`name + 3`); text and attribute values are
    /// charged unescaped.  `tests/prop_roundtrip.rs` pins the exact relation.
    pub fn byte_size(&self) -> usize {
        let mut size = 2 * self.name.len() + 5; // open + close tags
        for (k, v) in &self.attributes {
            size += k.len() + v.len() + 4;
        }
        for child in &self.children {
            size += match child {
                Node::Element(e) => e.byte_size(),
                Node::Text(t) => t.len(),
            };
        }
        size
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        let mut root = Element::new("alert");
        root.set_attr("callId", "7");
        root.set_attr("caller", "http://a.com");
        let mut body = Element::new("body");
        body.push_text("hello ");
        body.push_element(Element::text_element("temp", "21"));
        root.push_element(body);
        root
    }

    #[test]
    fn attr_lookup_and_replace() {
        let mut e = sample();
        assert_eq!(e.attr("callId"), Some("7"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("callId", "8");
        assert_eq!(e.attr("callId"), Some("8"));
        assert_eq!(e.attributes.len(), 2, "set_attr must replace, not append");
    }

    #[test]
    fn typed_attrs_keeps_the_first_of_a_repeated_name() {
        let mut e = sample();
        // Only a parser or a direct push can repeat a name; `set_attr` cannot.
        e.attributes.push(("callId".into(), "8".into()));
        let typed: Vec<(&str, Value)> = e.typed_attrs().collect();
        assert_eq!(
            typed,
            vec![
                ("callId", Value::Integer(7)),
                ("caller", Value::Str("http://a.com".into())),
            ]
        );
        assert_eq!(e.attr_value("callId"), Some(Value::Integer(7)));
    }

    #[test]
    fn remove_attr_returns_previous() {
        let mut e = sample();
        assert_eq!(e.remove_attr("caller").as_deref(), Some("http://a.com"));
        assert_eq!(e.remove_attr("caller"), None);
    }

    #[test]
    fn text_concatenates_subtree() {
        let e = sample();
        assert_eq!(e.text(), "hello 21");
        assert_eq!(e.child("body").unwrap().child_text("temp").unwrap(), "21");
    }

    #[test]
    fn child_navigation() {
        let e = sample();
        assert!(e.child("body").is_some());
        assert!(e.child("nope").is_none());
        assert_eq!(e.children_named("body").count(), 1);
        assert_eq!(e.find_descendant("temp").unwrap().text(), "21");
    }

    #[test]
    fn counts_and_depth() {
        let e = sample();
        // alert, body, "hello ", temp, "21"
        assert_eq!(e.node_count(), 5);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn typed_attr_value() {
        let e = sample();
        assert_eq!(e.attr_value("callId"), Some(Value::Integer(7)));
        assert_eq!(
            e.attr_value("caller"),
            Some(Value::Str("http://a.com".to_string()))
        );
    }

    #[test]
    fn byte_size_is_positive_and_monotone() {
        let small = Element::new("a");
        let big = sample();
        assert!(small.byte_size() > 0);
        assert!(big.byte_size() > small.byte_size());
    }

    #[test]
    fn walk_visits_every_element() {
        let e = sample();
        let mut names = Vec::new();
        e.walk(&mut |el| names.push(el.name.clone()));
        assert_eq!(names, vec!["alert", "body", "temp"]);
    }
}
