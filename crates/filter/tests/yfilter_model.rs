//! The automaton's incremental removal against the rebuild it replaced, kept
//! here as the model: after any schedule of `add` and `remove`, a `YFilter`
//! matches what `YFilter::from_patterns` over the surviving patterns matches
//! (through the map from the fresh automaton's indices to the live ones) and
//! holds exactly as many states.
//!
//! The patterns come from three tags, so prefixes are shared, `//` self-loop
//! states and wildcard transitions sit on shared paths, predicates split
//! otherwise equal steps, and one pattern is often registered several times.
//! Skipping the unlink in `YFilter::remove` fails the test here.

use proptest::prelude::*;

use p2pmon_filter::yfilter::QueryIdx;
use p2pmon_filter::YFilter;
use p2pmon_xmlkit::{Element, PathPattern};

const TAGS: &[&str] = &["a", "b", "c"];
const NAME_TESTS: &[&str] = &["a", "b", "c", "*"];
const PREDICATES: &[&str] = &["", "", r#"[@k="1"]"#, r#"[@k="2"]"#, r#"[text()="x"]"#];

fn step_strategy() -> impl Strategy<Value = String> {
    (
        proptest::bool::ANY,
        proptest::sample::select(NAME_TESTS.to_vec()),
        proptest::sample::select(PREDICATES.to_vec()),
    )
        .prop_map(|(descendant, name, predicate)| {
            format!("{}{name}{predicate}", if descendant { "//" } else { "/" })
        })
}

fn pattern_strategy() -> impl Strategy<Value = PathPattern> {
    proptest::collection::vec(step_strategy(), 1..4)
        .prop_map(|steps| PathPattern::parse(&steps.concat()).expect("valid pattern"))
}

/// Trees three levels deep over the patterns' tags.
fn document_strategy() -> impl Strategy<Value = Element> {
    let node = || {
        (
            proptest::sample::select(TAGS.to_vec()),
            proptest::sample::select(vec!["", "1", "2"]),
            proptest::bool::ANY,
        )
    };
    let build = |(tag, k, text): (&str, &str, bool), children: Vec<Element>| {
        let mut element = if text {
            Element::text_element(tag, "x")
        } else {
            Element::new(tag)
        };
        if !k.is_empty() {
            element.set_attr("k", k);
        }
        for child in children {
            element.push_element(child);
        }
        element
    };
    let leaf = node().prop_map(move |n| build(n, Vec::new()));
    let inner = (node(), proptest::collection::vec(leaf, 0..3)).prop_map(move |(n, c)| build(n, c));
    (node(), proptest::collection::vec(inner, 0..3)).prop_map(move |(n, c)| build(n, c))
}

/// One step of a schedule: add the pattern, or (one time in three, when a
/// query is live) remove the live query the pick selects.
fn schedule_strategy() -> impl Strategy<Value = Vec<(u8, PathPattern)>> {
    proptest::collection::vec((proptest::num::u8::ANY, pattern_strategy()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn add_and_remove_agree_with_a_fresh_automaton(
        schedule in schedule_strategy(),
        docs in proptest::collection::vec(document_strategy(), 3),
    ) {
        let mut automaton = YFilter::new();
        let mut live: Vec<(QueryIdx, PathPattern)> = Vec::new();
        for (step, (pick, pattern)) in schedule.into_iter().enumerate() {
            if pick % 3 == 0 && !live.is_empty() {
                let (gone, _) = live.swap_remove(usize::from(pick / 3) % live.len());
                prop_assert!(automaton.remove(gone), "step {}: query {} was live", step, gone);
                // The slot still spells its pattern, and a duplicate may keep
                // the whole path alive: a second removal must find nothing.
                prop_assert!(!automaton.remove(gone), "step {}: query {} removed twice", step, gone);
            } else {
                let idx = automaton.add(pattern.clone());
                prop_assert!(
                    live.iter().all(|&(q, _)| q != idx),
                    "step {}: live query index {} handed out again", step, idx
                );
                live.push((idx, pattern));
            }

            let mut fresh = YFilter::from_patterns(live.iter().map(|(_, p)| p.clone()));
            prop_assert_eq!(automaton.query_count(), live.len(), "step {}", step);
            prop_assert_eq!(automaton.state_count(), fresh.state_count(), "step {}", step);
            for (&(idx, ref pattern), registered) in live.iter().zip(fresh.queries()) {
                prop_assert_eq!(&automaton.queries()[idx], pattern);
                prop_assert_eq!(registered, pattern);
            }
            for doc in &docs {
                let mut expected: Vec<QueryIdx> = fresh
                    .matching_queries(doc)
                    .into_iter()
                    .map(|i| live[i].0)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(
                    automaton.matching_queries(doc), expected,
                    "step {}: {}", step, doc.to_xml()
                );
            }
        }
    }
}
