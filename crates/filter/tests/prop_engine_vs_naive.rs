//! Property tests: the FilterEngine must agree with the naive
//! reference filter on arbitrary subscription sets and documents.

use proptest::prelude::*;

use p2pmon_filter::{FilterEngine, FilterSubscription, NaiveFilter, SubscriptionId};
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{Element, XPath};

const ATTRS: &[&str] = &["callMethod", "callee", "dur", "kind", "peer"];
/// Strings and numbers, two of them one number spelled twice: range
/// conditions over these reach the staged preFilter's sorted lists.
const VALUES: &[&str] = &[
    "GetTemperature",
    "meteo.com",
    "5",
    "5.0",
    "20",
    "-1.5",
    "rss",
    "p1",
];
const TAGS: &[&str] = &["soap", "body", "city", "item", "title", "error", "entry"];

fn attr_condition_strategy() -> impl Strategy<Value = AttrCondition> {
    (
        proptest::sample::select(ATTRS.to_vec()),
        proptest::sample::select(vec![
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ]),
        proptest::sample::select(VALUES.to_vec()),
    )
        .prop_map(|(a, op, v)| AttrCondition::new(a, op, v))
}

fn pattern_strategy() -> impl Strategy<Value = XPath> {
    (
        proptest::sample::select(TAGS.to_vec()),
        proptest::sample::select(TAGS.to_vec()),
        proptest::bool::ANY,
    )
        .prop_map(|(a, b, descendant)| {
            let src = if descendant {
                format!("//{a}/{b}")
            } else {
                format!("//{a}//{b}")
            };
            XPath::parse(&src).expect("valid pattern")
        })
}

fn subscription_strategy(id: u64) -> impl Strategy<Value = FilterSubscription> {
    (
        proptest::collection::vec(attr_condition_strategy(), 0..3),
        proptest::collection::vec(pattern_strategy(), 0..2),
    )
        .prop_map(move |(simple, complex)| {
            FilterSubscription::new(id)
                .with_simple(simple)
                .with_complex(complex)
        })
}

fn subscriptions_strategy() -> impl Strategy<Value = Vec<FilterSubscription>> {
    proptest::collection::vec(proptest::num::u8::ANY, 1..20).prop_flat_map(|seeds| {
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, _)| subscription_strategy(i as u64))
            .collect::<Vec<_>>()
    })
}

/// Documents whose root attributes and children are drawn from the same small
/// vocabularies, so that matches actually occur.
fn document_strategy() -> impl Strategy<Value = Element> {
    (
        proptest::collection::vec(
            (
                proptest::sample::select(ATTRS.to_vec()),
                proptest::sample::select(VALUES.to_vec()),
            ),
            0..4,
        ),
        proptest::collection::vec(
            (
                proptest::sample::select(TAGS.to_vec()),
                proptest::sample::select(TAGS.to_vec()),
            ),
            0..4,
        ),
    )
        .prop_map(|(attrs, children)| {
            let mut root = Element::new("alert");
            for (k, v) in attrs {
                root.set_attr(k, v);
            }
            for (outer, inner) in children {
                let mut c = Element::new(outer);
                c.push_element(Element::text_element(inner, "x"));
                root.push_element(c);
            }
            root
        })
}

/// A subscription only [`filler_probe`] of the same id matches: padding whose
/// departure leaves most of the preFilter alphabet dead.
fn filler(id: u64) -> FilterSubscription {
    FilterSubscription::new(id).with_simple(vec![AttrCondition::new(
        "filler",
        CompareOp::Eq,
        format!("f{id}"),
    )])
}

fn filler_probe(id: u64) -> Element {
    let mut root = Element::new("alert");
    root.set_attr("filler", format!("f{id}"));
    root
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_agrees_with_naive(
        subs in subscriptions_strategy(),
        docs in proptest::collection::vec(document_strategy(), 1..8),
    ) {
        let mut engine = FilterEngine::from_subscriptions(subs.clone());
        let mut naive = NaiveFilter::from_subscriptions(subs);
        for doc in &docs {
            let mut matched = engine.process(doc).matched;
            let mut reference = naive.matching(doc);
            matched.sort();
            reference.sort();
            prop_assert_eq!(matched, reference, "document: {}", doc.to_xml());
        }
    }

    /// The engine and the naive reference must produce identical match sets
    /// on every document of an interleaved add / process / remove schedule.
    ///
    /// Half the cases are padded for steps 0–9 with 240 fillers no generated
    /// document matches.  When they leave, the alphabet is mostly dead, so
    /// the engine rebuilds its index mid-schedule — and the generated
    /// subscriptions are removed and indexed on both sides of that rebuild.
    #[test]
    fn engine_agrees_with_naive_under_churn(
        subs in subscriptions_strategy(),
        docs in proptest::collection::vec(document_strategy(), 14),
        removals in proptest::collection::vec(proptest::num::u8::ANY, 0..6),
        padded in proptest::bool::ANY,
    ) {
        const FILLERS: std::ops::Range<u64> = 1_000..1_240;
        const FILLERS_LEAVE_AT: usize = 10;
        let mut engine = FilterEngine::new();
        let mut naive = NaiveFilter::new();
        if padded {
            for id in FILLERS {
                engine.add(filler(id));
                naive.add(filler(id));
            }
        }

        // Interleave: add a few subscriptions, process a document, remove an
        // arbitrary registered subscription, process again …
        let mut pending = subs.into_iter();
        for (step, doc) in docs.iter().enumerate() {
            for sub in pending.by_ref().take(3) {
                engine.add(sub.clone());
                naive.add(sub);
            }
            let victim = removals.get(step).map(|&seed| u64::from(seed) % 20);
            let leaving = if padded && step == FILLERS_LEAVE_AT {
                FILLERS
            } else {
                0..0
            };
            for id in victim.into_iter().chain(leaving) {
                prop_assert_eq!(
                    engine.remove(SubscriptionId(id)),
                    naive.remove(SubscriptionId(id))
                );
            }
            // Once, one probe per filler too: each must be in the index.
            let probes: Vec<Element> = if padded && step == 8 {
                FILLERS.map(filler_probe).collect()
            } else {
                Vec::new()
            };
            for doc in probes.iter().chain([doc]) {
                let mut matched = engine.process(doc).matched;
                let mut reference = naive.matching(doc);
                matched.sort();
                reference.sort();
                prop_assert_eq!(matched, reference, "step {}: {}", step, doc.to_xml());
            }
        }
    }

    #[test]
    fn active_complex_is_a_superset_of_complex_matches(
        subs in subscriptions_strategy(),
        doc in document_strategy(),
    ) {
        let mut engine = FilterEngine::from_subscriptions(subs.clone());
        let outcome = engine.process(&doc);
        for sub in &subs {
            if !sub.complex.is_empty() && outcome.matched.contains(&sub.id) {
                prop_assert!(
                    outcome.active_complex.contains(&sub.id),
                    "complex subscription {} matched without being active",
                    sub.id
                );
            }
        }
    }
}
