//! Property-based tests for the XML substrate: arbitrary trees must survive a
//! serialize → parse round trip, both compact and pretty, and the XPath
//! evaluator must agree with simple structural facts about the generated tree.

use proptest::prelude::*;

use p2pmon_xmlkit::{parse, Element, Node, Value, XPath};

/// Strategy producing XML-safe tag/attribute names.
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "alert", "item", "entry", "call", "response", "peer", "stream", "op", "stat", "meta",
        "title", "guid", "body", "temp", "pkg",
    ])
    .prop_map(str::to_string)
}

/// Strategy producing text content including characters that need escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~àéü]{0,24}").expect("valid regex")
}

fn attr_value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\"'<>&]{0,16}").expect("valid regex")
}

/// Recursive strategy for elements up to a bounded depth/size.
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), text_strategy()).prop_map(|(name, text)| {
        let mut e = Element::new(name);
        if !text.trim().is_empty() {
            e.push_text(text);
        }
        e
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), attr_value_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut e = Element::new(name);
                for (k, v) in attrs {
                    e.set_attr(k, v);
                }
                for c in children {
                    e.push_element(c);
                }
                e
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compact_serialization_round_trips(el in element_strategy()) {
        let xml = el.to_xml();
        let parsed = parse(&xml).expect("own output must parse");
        prop_assert_eq!(parsed, el);
    }

    #[test]
    fn pretty_serialization_preserves_structure(el in element_strategy()) {
        let xml = el.to_pretty_xml();
        let parsed = parse(&xml).expect("pretty output must parse");
        // Pretty printing may drop whitespace-only differences but never
        // element structure, names, attributes or non-whitespace text.
        prop_assert_eq!(count_elements(&parsed), count_elements(&el));
        prop_assert_eq!(collect_names(&parsed), collect_names(&el));
        prop_assert_eq!(collect_attrs(&parsed), collect_attrs(&el));
    }

    #[test]
    fn byte_size_upper_bounds_children(el in element_strategy()) {
        let children_size: usize = el
            .children
            .iter()
            .map(|c| match c {
                Node::Element(e) => e.byte_size(),
                Node::Text(t) => t.len(),
            })
            .sum();
        prop_assert!(el.byte_size() > children_size);
    }

    #[test]
    fn byte_size_is_the_compact_form_before_escaping_and_self_closing(el in element_strategy()) {
        // `byte_size()` charges `2·name + 5` per element, `k + v + 4` per
        // attribute and raw text.  The compact form writes an empty element
        // as `<name/>`, `name + 2` bytes less, and escapes: `&` grows by 4,
        // `<` and `>` by 3, and in attribute values `"` and `'` by 5.
        let grown = |s: &str, quotes: bool| -> usize {
            s.chars()
                .map(|c| match c {
                    '&' => 4,
                    '<' | '>' => 3,
                    '"' | '\'' if quotes => 5,
                    _ => 0,
                })
                .sum()
        };
        let (mut escaped, mut self_closed) = (0, 0);
        el.walk(&mut |e| {
            if e.children.is_empty() {
                self_closed += e.name.len() + 2;
            }
            escaped += e.attributes.iter().map(|(_, v)| grown(v, true)).sum::<usize>();
            for child in &e.children {
                if let Node::Text(t) = child {
                    escaped += grown(t, false);
                }
            }
        });
        prop_assert_eq!(el.to_xml().len() + self_closed, el.byte_size() + escaped);
    }

    #[test]
    fn descendant_xpath_finds_every_tag_present(el in element_strategy()) {
        // For every element name present in the tree, `//name` must select at
        // least one node, and for absent names it must select none.
        let names = collect_names(&el);
        for name in names.iter().take(4) {
            let p = XPath::parse(&format!("//{name}")).unwrap();
            prop_assert!(p.matches(&el), "//{} should match", name);
        }
        let p = XPath::parse("//definitely_not_a_tag").unwrap();
        prop_assert!(!p.matches(&el));
    }

    #[test]
    fn xpath_first_value_is_the_first_target_in_preorder(el in element_strategy(), target in name_strategy()) {
        let p = XPath::parse(&format!("//{target}/text()")).unwrap();
        let mut first = None;
        el.walk(&mut |e| {
            if first.is_none() && e.name == target {
                first = Some(Value::from_literal(&e.text()));
            }
        });
        prop_assert_eq!(p.first_value(&el), first);
    }
}

fn count_elements(e: &Element) -> usize {
    1 + e.child_elements().map(count_elements).sum::<usize>()
}

fn collect_names(e: &Element) -> Vec<String> {
    let mut out = Vec::new();
    e.walk(&mut |el| out.push(el.name.clone()));
    out
}

fn collect_attrs(e: &Element) -> Vec<(String, String)> {
    let mut out = Vec::new();
    e.walk(&mut |el| out.extend(el.attributes.iter().cloned()));
    out
}
