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
//!   wildcards, attribute tests, positional and comparison predicates),
//! * linear tree-pattern queries, the complex part of a Filter subscription
//!   ([`pattern::PathPattern`]),
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
pub mod pattern;
pub mod value;
pub mod writer;

pub use builder::ElementBuilder;
pub use diff::{diff_elements, DiffOp};
pub use intern::{Name, Symbol};
pub use node::{Element, Node};
pub use parser::{parse, parse_fragment, ParseError};
pub use path::{PathError, XPath};
pub use pattern::PathPattern;
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
        let hits = p.select(&el);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].text(), "1");
    }
}
