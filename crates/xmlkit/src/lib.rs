//! # p2pmon-xmlkit
//!
//! A small, self-contained XML toolkit used throughout the P2P Monitor
//! reproduction.  The monitored systems of the paper (Web services, RSS
//! feeds, Web pages, ActiveXML repositories, the Edos distribution network)
//! all exchange XML, and every stream flowing through the monitor is a
//! stream of XML trees.  This crate provides:
//!
//! * an owned, mutable XML tree model ([`Element`], [`Node`]),
//! * a well-formedness-checking parser ([`parse`]),
//! * a serializer with proper escaping ([`Element::to_xml`]),
//! * typed atomic values and comparisons ([`Value`]),
//! * an XPath subset evaluator ([`path::XPath`]) covering the constructs the
//!   paper's P2PML language and Filter need (child/descendant axes,
//!   wildcards, attribute tests, existence and comparison predicates), one
//!   document-order walk per evaluation; its paths are also the tree
//!   patterns of a Filter subscription's complex part,
//! * a structural diff for the Web-page and RSS alerters ([`diff`]),
//! * a convenience builder ([`builder::ElementBuilder`]).
//!
//! The crate has no dependencies and is deliberately small: it is a
//! substrate, not a general-purpose XML library.

pub mod builder;
pub mod diff;
pub mod escape;
pub mod intern;
pub mod node;
pub mod parser;
pub mod path;
pub mod value;
pub mod writer;

pub use builder::ElementBuilder;
pub use diff::{diff_elements, DiffOp};
pub use intern::{Name, Symbol};
pub use node::{Element, Node};
pub use parser::{parse, parse_element_at, parse_fragment, ParseError};
pub use path::{PathError, XPath};
pub use value::Value;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn end_to_end_roundtrip() {
        let doc = "<alert callId=\"42\" caller=\"http://a.com\"><body><temp unit=\"C\">17</temp></body></alert>";
        let el = parse(doc).unwrap();
        assert_eq!(el.name, "alert");
        assert_eq!(el.attr("callId"), Some("42"));
        let again = parse(&el.to_xml()).unwrap();
        assert_eq!(el, again);
    }

    #[test]
    fn xpath_over_parsed_tree() {
        let el = parse("<r><a><b>1</b></a><a><b>2</b></a></r>").unwrap();
        let p = XPath::parse("//a/b").unwrap();
        assert!(p.matches(&el));
        assert_eq!(p.first_value(&el), Some(Value::Integer(1)));
    }
}

/// Tree patterns as the Filter writes them: each case gives the answer that
/// [`XPath::matches`] must give.
#[cfg(test)]
mod pattern {
    mod tests {
        use crate::{parse, Element, XPath};

        /// `path` holds on `doc` exactly when `expected`.
        fn check_element(path: &str, doc: &Element, expected: bool) {
            let xpath = XPath::parse(path).unwrap();
            assert_eq!(xpath.matches(doc), expected, "{path} on {}", doc.to_xml());
        }

        /// Every `(path, document, expected)` row, the document as XML text.
        fn check(rows: &[(&str, &str, bool)]) {
            for &(path, doc, expected) in rows {
                check_element(path, &parse(doc).unwrap(), expected);
            }
        }

        const RSS: &str = "<rss><channel><item><title>x</title></item></channel></rss>";

        #[test]
        fn absolute_and_descendant_queries() {
            check(&[
                ("/rss/channel/item", RSS, true),
                ("//item/title", RSS, true),
                ("/rss/missing", RSS, false),
            ]);
        }

        #[test]
        fn wildcard_queries() {
            let abc = "<a><b><c/></b></a>";
            let abd = "<a><b><d/></b></a>";
            check(&[
                ("/a/*/c", abc, true),
                ("/a/b/*", abc, true),
                ("/a/*/c", abd, false),
                ("/a/b/*", abd, true),
            ]);
        }

        #[test]
        fn predicates_on_steps() {
            let doc = r#"<root><alert method="GetTemperature"/></root>"#;
            check(&[
                (r#"//alert[@method="GetTemperature"]"#, doc, true),
                (r#"//alert[@method="GetHumidity"]"#, doc, false),
                ("//alert", doc, true),
            ]);
        }

        #[test]
        fn root_element_is_matchable_by_first_step() {
            let doc = "<alert><body/></alert>";
            check(&[("/alert/body", doc, true), ("//alert", doc, true)]);
        }

        #[test]
        fn unparsed_documents_with_uninterned_names_still_match_wildcards() {
            // Built without the tokenizer, with a name no path mentions: name
            // tests must not match it, but wildcards must.
            let mut root = Element::new("completely-uninterned-root-name");
            root.push_element(Element::new("inner"));
            check_element("/*/inner", &root, true);
            check_element("//inner", &root, true);
            check_element("/completely-absent-name/x", &root, false);
        }

        #[test]
        fn simple_child_chain() {
            check(&[("/rss/channel/item", RSS, true), ("/rss/item", RSS, false)]);
        }

        #[test]
        fn descendant_axis_anywhere() {
            let doc = "<root><x><c><d>1</d></c></x></root>";
            check(&[("//c/d", doc, true), ("//c/e", doc, false)]);
        }

        /// A relative path keeps its XPath meaning: it matches below the
        /// context element, its first step a child of the document element,
        /// not the document element itself nor an element at any depth.
        #[test]
        fn relative_pattern_is_descendant() {
            check(&[
                ("a/b", "<root><a><b/></a></root>", true),
                ("a/b", "<a><b/></a>", false),
                ("a/b", "<r><x><a><b/></a></x></r>", false),
            ]);
        }

        #[test]
        fn wildcard_step() {
            check(&[("/a/*/c", "<a><b><c/></b></a>", true)]);
        }

        #[test]
        fn attribute_predicate() {
            let doc = r#"<alert method="GetTemperature"><body/></alert>"#;
            check(&[
                (r#"//alert[@method="GetTemperature"]"#, doc, true),
                (r#"//alert[@method="Other"]"#, doc, false),
            ]);
        }

        #[test]
        fn text_predicate_with_numeric_comparison() {
            let doc = "<m><price>15</price></m>";
            check(&[
                ("//price[text() > 10]", doc, true),
                ("//price[text() > 20]", doc, false),
            ]);
        }

        #[test]
        fn attribute_existence_predicate() {
            let doc = r#"<a><b x="1"/><b/></a>"#;
            check(&[("//b[@x]", doc, true), ("//b[@missing]", doc, false)]);
        }

        /// Attribute output and a nested path: paths outside the old linear
        /// class parse and match.
        #[test]
        fn non_linear_expressions_match_like_select() {
            check(&[
                ("/a/@x", r#"<a x="1"/>"#, true),
                ("/a/@x", "<a/>", false),
                ("/a[b/c]/d", "<a><b><c/></b><d/></a>", true),
                ("/a[b/c]/d", "<a><b/><d/></a>", false),
            ]);
        }

        #[test]
        fn double_descendant() {
            let doc = "<a><x><b><y><c/></y></b></x></a>";
            check(&[("//b//c", doc, true), ("//c//b", doc, false)]);
        }

        #[test]
        fn double_descendant_and_deep_nesting() {
            let doc = "<a><b><c><d/></c></b></a>";
            check(&[("//b//d", doc, true), ("//d//b", doc, false)]);
        }

        #[test]
        fn text_predicate() {
            check(&[
                (
                    "//price[text() > 100]",
                    "<order><price>250</price></order>",
                    true,
                ),
                (
                    "//price[text() > 100]",
                    "<order><price>50</price></order>",
                    false,
                ),
            ]);
        }
    }
}
