//! Property tests: the staged FilterEngine must agree with the naive
//! reference filter on arbitrary subscription sets and documents, and the
//! YFilter automaton must agree with naive per-pattern matching.

use proptest::prelude::*;

use p2pmon_filter::{
    EngineMode, FilterEngine, FilterSubscription, NaiveFilter, SubscriptionId, YFilter,
};
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{Element, PathPattern};

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

fn pattern_strategy() -> impl Strategy<Value = PathPattern> {
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
            PathPattern::parse(&src).expect("valid pattern")
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

/// A subscription only [`filler_probe`] of the same id matches: padding that
/// takes a database past the adaptive engine's break-even.
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
            let mut staged = engine.process(doc).matched;
            let mut reference = naive.matching(doc);
            staged.sort();
            reference.sort();
            prop_assert_eq!(staged, reference, "document: {}", doc.to_xml());
        }
    }

    #[test]
    fn yfilter_agrees_with_naive_pattern_matching(
        patterns in proptest::collection::vec(pattern_strategy(), 1..30),
        docs in proptest::collection::vec(document_strategy(), 1..6),
    ) {
        let mut yf = YFilter::from_patterns(patterns.clone());
        for doc in &docs {
            let nfa: Vec<usize> = yf.matching_queries(doc);
            let naive: Vec<usize> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| p.matches(doc))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(nfa, naive, "document: {}", doc.to_xml());
        }
    }

    /// The tentpole equivalence: a cost-adaptive engine (which promotes and
    /// demotes itself mid-stream), an always-staged engine and the naive
    /// reference must produce identical match sets on every document of an
    /// interleaved add / process / remove schedule — mode transitions change
    /// nothing observable.
    ///
    /// The generated databases are far below break-even, so half the cases
    /// are padded past it for steps 0–9 with fillers no generated document
    /// matches: those process documents on the scan, across the promotion,
    /// staged, across the demotion and on the scan again.
    #[test]
    fn adaptive_agrees_with_staged_and_naive_under_churn(
        subs in subscriptions_strategy(),
        docs in proptest::collection::vec(document_strategy(), 14),
        removals in proptest::collection::vec(proptest::num::u8::ANY, 0..6),
        padded in proptest::bool::ANY,
    ) {
        // 240 one-condition fillers cost the scan 240 work units a document.
        // The ≤ 19 generated subscriptions (≤ 2 conditions, ≤ 1 pattern each)
        // lift the staged estimate to at most 32 + 0.5 × (240 + 57) = 180.5,
        // and 240 > 1.25 × 180.5: the padded engine promotes on the first
        // document it may (the 8th) whatever was generated, and removing the
        // fillers takes it below half its promotion size.
        const FILLERS: std::ops::Range<u64> = 1_000..1_240;
        const FILLERS_LEAVE_AT: usize = 10;
        let mut adaptive = FilterEngine::adaptive();
        let mut staged = FilterEngine::new();
        let mut naive = NaiveFilter::new();
        if padded {
            for id in FILLERS {
                adaptive.add(filler(id));
                staged.add(filler(id));
                naive.add(filler(id));
            }
        }

        // Interleave: add a few subscriptions, process a document, remove an
        // arbitrary registered subscription, process again …
        let mut pending = subs.into_iter();
        for (step, doc) in docs.iter().enumerate() {
            for sub in pending.by_ref().take(3) {
                adaptive.add(sub.clone());
                staged.add(sub.clone());
                naive.add(sub);
            }
            let victim = removals.get(step).map(|&seed| u64::from(seed) % 20);
            let leaving = if padded && step == FILLERS_LEAVE_AT {
                FILLERS
            } else {
                0..0
            };
            for id in victim.into_iter().chain(leaving) {
                let a = adaptive.remove(SubscriptionId(id));
                let s = staged.remove(SubscriptionId(id));
                let n = naive.remove(SubscriptionId(id));
                prop_assert_eq!(a, s);
                prop_assert_eq!(a, n);
            }
            // While the padded engine is staged, one probe per filler too:
            // each must have reached the index the promotion built.
            let probes: Vec<Element> = if padded && step == 8 {
                FILLERS.map(filler_probe).collect()
            } else {
                Vec::new()
            };
            for doc in probes.iter().chain([doc]) {
                let mut from_adaptive = adaptive.process(doc).matched;
                let mut from_staged = staged.process(doc).matched;
                let mut reference = naive.matching(doc);
                from_adaptive.sort();
                from_staged.sort();
                reference.sort();
                prop_assert_eq!(
                    &from_adaptive, &reference,
                    "adaptive ({} mode) diverged on step {}: {}",
                    adaptive.mode(), step, doc.to_xml()
                );
                prop_assert_eq!(
                    &from_staged, &reference,
                    "staged diverged on step {}: {}",
                    step, doc.to_xml()
                );
            }
            if padded {
                // A change to the cost constants that stops this test from
                // crossing both switches must fail it, not hollow it out.
                let expected = if (7..FILLERS_LEAVE_AT).contains(&step) {
                    EngineMode::Staged
                } else {
                    EngineMode::Naive
                };
                prop_assert_eq!(adaptive.mode(), expected, "mode after step {}", step);
            }
        }
        if padded {
            prop_assert_eq!((adaptive.stats.promotions, adaptive.stats.demotions), (1, 1));
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
