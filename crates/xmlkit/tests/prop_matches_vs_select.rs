//! Property test: `XPath::matches`, the early-exit walk the Filter's tree
//! patterns and existence conditions run on, must answer exactly whether
//! `XPath::select` — the reference — selects anything.
//!
//! Documents are random trees up to five levels deep over a three-name,
//! two-attribute alphabet, so that about a third of the paths over the same
//! alphabet match.  Paths cover the whole parsed subset: absolute and
//! relative forms, `/` and `//`, wildcards, up to two predicates per step
//! (positions, existence and comparison tests on `@attr`, `text()`, `.` and
//! nested relative or absolute paths), and `@attr` / `text()` outputs.

use proptest::prelude::*;

use p2pmon_xmlkit::path::Output;
use p2pmon_xmlkit::{Element, XPath};

const NAMES: &[&str] = &["a", "b", "c"];
const ATTRS: &[&str] = &["x", "y"];
const ATTR_VALUES: &[&str] = &["1", "2", "10", "v", ""];
const TEXTS: &[&str] = &["1", "5", "0", "v", " "];
const OPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];
const LITERALS: &[&str] = &["1", "2", "10", "\"v\"", "'1'", "\"\""];
/// Levels of a generated document, the root included.
const MAX_DEPTH: usize = 5;
/// How deep relative paths nest inside predicates.
const MAX_NESTING: usize = 2;
/// Generated documents.
const CASES: u32 = 256;
/// Paths evaluated against each generated document.
const PATHS_PER_DOCUMENT: usize = 24;

fn pick(rng: &mut TestRng, options: &[&'static str]) -> &'static str {
    options[rng.next_index(options.len())]
}

fn element(rng: &mut TestRng, depth: usize) -> Element {
    let mut element = Element::new(pick(rng, NAMES));
    for attr in ATTRS {
        if rng.next_index(2) == 0 {
            element.set_attr(*attr, pick(rng, ATTR_VALUES));
        }
    }
    if rng.next_index(3) == 0 {
        element.push_text(pick(rng, TEXTS));
    }
    if depth < MAX_DEPTH {
        for _ in 0..rng.next_index(4) {
            element.push_element(self::element(rng, depth + 1));
        }
    }
    element
}

/// A path in the parsed subset, `nesting` levels inside predicates.
fn path(rng: &mut TestRng, nesting: usize) -> String {
    let mut src = pick(rng, &["", "/", "//"]).to_string();
    if rng.next_index(12) == 0 {
        // No location step at all: the context element's own output.
        src.push_str(pick(rng, &["@x", "@y", "text()"]));
        return src;
    }
    for step in 0..1 + rng.next_index(3) {
        if step > 0 {
            src.push_str(pick(rng, &["/", "//"]));
        }
        src.push_str(pick(rng, &["a", "b", "c", "*"]));
        // Half the steps carry no predicate, a quarter one, a quarter two.
        for _ in 0..rng.next_index(4).saturating_sub(1) {
            src.push_str(&predicate(rng, nesting));
        }
    }
    match rng.next_index(6) {
        0 => src.push_str(pick(rng, &["/@x", "/@y"])),
        1 => src.push_str("/text()"),
        _ => {}
    }
    src
}

fn predicate(rng: &mut TestRng, nesting: usize) -> String {
    if rng.next_index(10) == 0 {
        return format!("[{}]", 1 + rng.next_index(3));
    }
    let operand = match rng.next_index(if nesting < MAX_NESTING { 5 } else { 3 }) {
        0 => format!("@{}", pick(rng, ATTRS)),
        1 => "text()".to_string(),
        2 => ".".to_string(),
        _ => path(rng, nesting + 1),
    };
    if rng.next_index(3) == 0 {
        format!("[{operand}]")
    } else {
        format!("[{operand} {} {}]", pick(rng, OPS), pick(rng, LITERALS))
    }
}

#[test]
fn matches_agrees_with_select() {
    // Paths without a position, which `matches` walks, and their matches.
    let (mut walked, mut hits) = (0, 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|rng| {
        let doc = element(rng, 1);
        for _ in 0..PATHS_PER_DOCUMENT {
            let src = path(rng, 0);
            let xpath = XPath::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let reference = match xpath.output {
                Output::Elements => !xpath.select(&doc).is_empty(),
                Output::Attribute(_) | Output::Text => !xpath.select_values(&doc).is_empty(),
            };
            assert_eq!(xpath.matches(&doc), reference, "{src} on {}", doc.to_xml());
            if !["[1]", "[2]", "[3]"].iter().any(|p| src.contains(p)) {
                walked += 1;
                hits += usize::from(reference);
            }
        }
        Ok(())
    });
    // Guards: most paths are walked, and both answers are common among
    // them, so neither a walk that always matches nor one that never does
    // could pass.
    let pairs = CASES as usize * PATHS_PER_DOCUMENT;
    assert!(walked * 2 > pairs, "{walked} of {pairs} paths walked");
    assert!(hits * 4 > walked, "{hits} of {walked} walked paths matched");
    assert!(
        (walked - hits) * 4 > walked,
        "{hits} of {walked} walked paths matched"
    );
}
