//! The preFilter's value index against the scan it replaced, kept here as the
//! model: for any alphabet and any root, `PreFilter::satisfied` is the sorted,
//! deduplicated ids of the conditions `AttrCondition::eval` accepts.
//!
//! The constants are the corners of `Value`'s coercion rules — several
//! spellings of one number, `-0` and `-0.0` (only the second types as the
//! float `-0.0`), an integer `f64` cannot hold, booleans,
//! `inf` / `NaN` / the empty string (all three are strings), case and
//! surrounding spaces — and the roots miss attributes and repeat names
//! (`Element::attr` reads the first of a repeated name; so must the index).

use proptest::prelude::*;

use p2pmon_filter::prefilter::ConditionId;
use p2pmon_filter::PreFilter;
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::Element;

const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

const LITERALS: &[&str] = &[
    "5",
    "5.0",
    " 5 ",
    "4",
    "6.5",
    "-3",
    "-0",
    "-0.0",
    "0",
    "1e1",
    "10",
    "9007199254740993",
    "9007199254740992",
    "true",
    " true",
    "false",
    "inf",
    "NaN",
    "",
    "abc",
    "ABC",
    "Abc",
    " abc ",
    "9a",
];

/// `z` is an attribute roots carry and no condition mentions.
const CONDITION_ATTRS: &[&str] = &["a", "b", "c"];
const ROOT_ATTRS: &[&str] = &["a", "b", "c", "z"];

/// The parent's `satisfied`: every registered condition, one `eval` each.
fn model(conditions: &[(AttrCondition, ConditionId)], root: &Element) -> Vec<ConditionId> {
    let mut ids: Vec<ConditionId> = conditions
        .iter()
        .filter(|(condition, _)| condition.eval(root))
        .map(|&(_, id)| id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn register_all(conditions: Vec<AttrCondition>) -> (PreFilter, Vec<(AttrCondition, ConditionId)>) {
    let mut prefilter = PreFilter::new();
    let registered = conditions
        .into_iter()
        .map(|condition| {
            let id = prefilter.register(&condition);
            (condition, id)
        })
        .collect();
    (prefilter, registered)
}

/// A root whose attributes are pushed as given, so a name may repeat.
fn root_of(attributes: Vec<(&str, &str)>) -> Element {
    let mut root = Element::new("alert");
    root.attributes = attributes
        .into_iter()
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect();
    root
}

fn condition_strategy() -> impl Strategy<Value = AttrCondition> {
    (
        proptest::sample::select(CONDITION_ATTRS.to_vec()),
        proptest::sample::select(OPS.to_vec()),
        proptest::sample::select(LITERALS.to_vec()),
    )
        .prop_map(|(attr, op, constant)| AttrCondition::new(attr, op, constant))
}

fn root_strategy() -> impl Strategy<Value = Element> {
    proptest::collection::vec(
        (
            proptest::sample::select(ROOT_ATTRS.to_vec()),
            proptest::sample::select(LITERALS.to_vec()),
        ),
        0..6,
    )
    .prop_map(root_of)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn satisfied_is_what_eval_accepts(
        conditions in proptest::collection::vec(condition_strategy(), 0..48),
        roots in proptest::collection::vec(root_strategy(), 1..8),
    ) {
        let (mut prefilter, registered) = register_all(conditions);
        for root in &roots {
            prop_assert_eq!(
                prefilter.satisfied(root),
                model(&registered, root),
                "root: {}",
                root.to_xml()
            );
        }
    }
}

/// Every operator over every literal at once, against every literal as the
/// value: 144 conditions on one attribute, each cell of the coercion table.
/// Registered in both orders, because which spelling of a number or of a
/// boolean takes the `=` slot depends on who came first.
#[test]
fn every_operator_constant_and_value_agrees_with_eval() {
    let forward: Vec<AttrCondition> = OPS
        .iter()
        .flat_map(|&op| LITERALS.iter().map(move |c| AttrCondition::new("a", op, c)))
        .collect();
    let backward: Vec<AttrCondition> = forward.iter().rev().cloned().collect();
    for conditions in [forward, backward] {
        let (mut prefilter, registered) = register_all(conditions);
        assert_eq!(prefilter.alphabet_size(), OPS.len() * LITERALS.len());
        for value in LITERALS {
            let root = root_of(vec![("a", value)]);
            assert_eq!(
                prefilter.satisfied(&root),
                model(&registered, &root),
                "value {value:?}"
            );
        }
    }
}

#[test]
fn a_repeated_name_is_read_by_its_first_value() {
    let (mut prefilter, registered) = register_all(vec![
        AttrCondition::new("a", CompareOp::Eq, "5"),
        AttrCondition::new("a", CompareOp::Eq, "abc"),
        AttrCondition::new("a", CompareOp::Gt, "1"),
        AttrCondition::new("a", CompareOp::Ne, "5"),
    ]);
    let root = root_of(vec![("a", "abc"), ("z", "1"), ("a", "5")]);
    let satisfied = prefilter.satisfied(&root);
    assert_eq!(satisfied, model(&registered, &root));
    // `a = abc`, `a > 1` (by string: "abc" > "1") and `a != 5`.
    assert_eq!(satisfied, vec![1, 2, 3]);
}
