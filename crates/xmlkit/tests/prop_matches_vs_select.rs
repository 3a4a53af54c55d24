//! Property test: the one document-order walk behind `XPath::matches` and
//! `XPath::first_value` must agree with `select`, the set-at-a-time
//! evaluator it replaced, kept below verbatim as the reference:
//!
//! * `matches` answers exactly whether the reference selects a value;
//! * `first_value` is the reference's first value once the elements it
//!   selects are sorted into document order.
//!
//! Documents are random trees up to five levels deep over a three-name,
//! two-attribute alphabet, so that about a third of the paths over the same
//! alphabet match.  Paths cover the whole parsed subset: absolute and
//! relative forms, `/` and `//`, wildcards, up to two predicates per step
//! (existence and comparison tests on `@attr`, `text()`, `.` and nested
//! relative or absolute paths), and `@attr` / `text()` outputs.

use std::collections::HashMap;

use proptest::prelude::*;

use p2pmon_xmlkit::path::{Axis, Output, Predicate, PredicateOperand};
use p2pmon_xmlkit::{Element, Value, XPath};

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
        return format!("[@{}]", pick(rng, ATTRS));
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

/// The set-at-a-time evaluator: each step builds its whole node list from
/// every context, in context order, deduplicated.
fn select<'a>(xpath: &XPath, root: &'a Element) -> Vec<&'a Element> {
    let mut current: Vec<&'a Element> = vec![root];
    for (idx, step) in xpath.steps.iter().enumerate() {
        let mut next: Vec<&'a Element> = Vec::new();
        for ctx in &current {
            let candidates: Vec<&'a Element> = match step.axis {
                Axis::Child => {
                    if idx == 0 && xpath.absolute {
                        // The root element is the only "child" of the
                        // document node.
                        vec![*ctx]
                    } else {
                        ctx.child_elements().collect()
                    }
                }
                Axis::Descendant => {
                    let mut v = Vec::new();
                    if idx == 0 {
                        // descendant-or-self for the first step.
                        v.push(*ctx);
                    }
                    v.extend(ctx.descendants());
                    v
                }
            };
            let mut matched: Vec<&'a Element> = candidates
                .into_iter()
                .filter(|e| step.name.matches(&e.name))
                .collect();
            for pred in &step.predicates {
                matched.retain(|e| holds(pred, e));
            }
            next.extend(matched);
        }
        // De-duplicate while preserving document order: descendant axes
        // from overlapping contexts can select the same node twice.
        dedup_preserving_order(&mut next);
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

/// The output values of `elements`: attribute values or text, depending on
/// the expression's final step; for element outputs, the text content.
fn values(xpath: &XPath, elements: &[&Element]) -> Vec<Value> {
    match &xpath.output {
        Output::Elements | Output::Text => elements
            .iter()
            .map(|e| Value::from_literal(&e.text()))
            .collect(),
        Output::Attribute(name) => elements
            .iter()
            .filter_map(|e| e.attr(name))
            .map(Value::from_literal)
            .collect(),
    }
}

fn select_values(xpath: &XPath, root: &Element) -> Vec<Value> {
    values(xpath, &select(xpath, root))
}

fn dedup_preserving_order(v: &mut Vec<&Element>) {
    let mut seen: Vec<*const Element> = Vec::with_capacity(v.len());
    v.retain(|e| {
        let ptr = *e as *const Element;
        if seen.contains(&ptr) {
            false
        } else {
            seen.push(ptr);
            true
        }
    });
}

/// Whether `pred` holds on the element `e`, nested paths selected in full.
fn holds(pred: &Predicate, e: &Element) -> bool {
    match pred {
        Predicate::Exists(operand) => operand_exists(e, operand),
        Predicate::Compare {
            operand,
            op,
            literal,
        } => {
            let lit = Value::from_literal(literal);
            operand_values(e, operand).iter().any(|v| op.apply(v, &lit))
        }
    }
}

fn operand_exists(e: &Element, operand: &PredicateOperand) -> bool {
    match operand {
        PredicateOperand::Attribute(name) => e.attr(name).is_some(),
        PredicateOperand::Text => !e.text().is_empty(),
        PredicateOperand::RelativePath(p) => !select_values(p, e).is_empty(),
    }
}

fn operand_values(e: &Element, operand: &PredicateOperand) -> Vec<Value> {
    match operand {
        PredicateOperand::Attribute(name) => {
            e.attr(name).map(Value::from_literal).into_iter().collect()
        }
        PredicateOperand::Text => vec![Value::from_literal(&e.text())],
        PredicateOperand::RelativePath(p) => select_values(p, e),
    }
}

/// Each element of `doc`'s tree by address, numbered in document order.
fn preorder(doc: &Element) -> HashMap<*const Element, usize> {
    let mut order = HashMap::new();
    doc.walk(&mut |e| {
        let next = order.len();
        order.insert(e as *const Element, next);
    });
    order
}

#[test]
fn matches_agrees_with_select() {
    // Every pair is walked; `reordered` counts those whose first value
    // differs between the reference's context order and document order.
    let (mut walked, mut hits, mut reordered) = (0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|rng| {
        let doc = element(rng, 1);
        let order = preorder(&doc);
        for _ in 0..PATHS_PER_DOCUMENT {
            let src = path(rng, 0);
            let xpath = XPath::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let mut selected = select(&xpath, &doc);
            let in_context_order = values(&xpath, &selected).into_iter().next();
            selected.sort_by_key(|e| order[&(*e as *const Element)]);
            let first = values(&xpath, &selected).into_iter().next();
            let reference = first.is_some();
            assert_eq!(xpath.matches(&doc), reference, "{src} on {}", doc.to_xml());
            assert_eq!(
                xpath.first_value(&doc),
                first,
                "first value: {src} on {}",
                doc.to_xml()
            );
            walked += 1;
            hits += usize::from(reference);
            reordered += usize::from(in_context_order != first);
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
    // And some first values depend on the order, so a walk that returned
    // the first value in context order could not pass either.
    assert!(reordered > 0, "no first value depends on the order");
}
