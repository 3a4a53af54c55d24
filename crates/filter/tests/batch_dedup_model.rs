//! `FilterEngine::match_batch` against the dedup it replaced, kept here as
//! the model: a `HashMap<&Element, usize>` keyed on whole trees, one engine
//! pass per document not equal by value to an earlier one.
//!
//! The engine finds a duplicate by address, then by root tag and root
//! attributes, then by a whole-tree comparison.  The batches mix shared
//! references, clones equal by value and the near-misses that key must not
//! merge: the same root and attributes over other children, the same
//! attributes in another order, and a repeated attribute name (which the
//! parser rejects, so it is pushed directly).  Merging by the root key alone
//! fails here.

use std::collections::HashMap;

use proptest::prelude::*;

use p2pmon_filter::{BatchOutcome, FilterEngine, FilterSubscription};
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{parse, Element, XPath};

/// The parent's `match_batch`.
fn model(engine: &mut FilterEngine, docs: &[&Element]) -> BatchOutcome {
    let mut outcomes = Vec::new();
    let mut index = Vec::with_capacity(docs.len());
    let mut first_seen: HashMap<&Element, usize> = HashMap::new();
    for doc in docs {
        match first_seen.get(doc).copied() {
            Some(i) => index.push(i),
            None => {
                first_seen.insert(doc, outcomes.len());
                index.push(outcomes.len());
                outcomes.push(engine.process(doc));
            }
        }
    }
    BatchOutcome { outcomes, index }
}

/// Subscriptions that tell the pool's documents apart: by root attribute,
/// by children, and by tag.
fn engine() -> FilterEngine {
    let simple = |attr: &str, value: &str| vec![AttrCondition::new(attr, CompareOp::Eq, value)];
    let pattern = |text: &str| vec![XPath::parse(text).expect("valid pattern")];
    FilterEngine::from_subscriptions([
        FilterSubscription::new(1).with_simple(simple("kind", "rss")),
        FilterSubscription::new(2)
            .with_simple(simple("kind", "rss"))
            .with_complex(pattern("//item/title")),
        FilterSubscription::new(3)
            .with_simple(simple("kind", "rss"))
            .with_complex(pattern("//item/link")),
        FilterSubscription::new(4).with_simple(simple("callMethod", "M2")),
        FilterSubscription::new(5).with_complex(pattern("/call/item")),
        FilterSubscription::new(6).with_simple(simple("kind", "soap")),
    ])
}

const REFERENCE: &str =
    r#"<alert kind="rss" callMethod="M1"><item><title>x</title></item></alert>"#;

/// Eight documents, pairwise different by value.
fn pool() -> Vec<Element> {
    let doc = |text: &str| parse(text).expect("well-formed");
    let mut repeated = doc(REFERENCE);
    repeated.attributes.push(("kind".into(), "soap".into()));
    vec![
        doc(REFERENCE),
        // The same root and attributes over other children.
        doc(r#"<alert kind="rss" callMethod="M1"><item><link>x</link></item></alert>"#),
        doc(r#"<alert kind="rss" callMethod="M1"><item><title>y</title></item></alert>"#),
        doc(r#"<alert kind="rss" callMethod="M1"/>"#),
        // The same attributes in another order.
        doc(r#"<alert callMethod="M1" kind="rss"><item><title>x</title></item></alert>"#),
        // A repeated name: `attr("kind")` still reads `rss`.
        repeated,
        // The same attributes and children under another tag.
        doc(r#"<call kind="rss" callMethod="M1"><item><title>x</title></item></call>"#),
        doc(r#"<alert kind="soap" callMethod="M2"/>"#),
    ]
}

/// How a batch slot holds its value.
const SHARED: usize = 0;
const TWIN: usize = 1;
const OWN: usize = 2;

/// Runs each batch through `match_batch` and the model on two fresh
/// engines, compares everything but `trees_compared` (which the model does
/// not count) and returns each batch's passes.
fn check(batches: &[Vec<(usize, usize)>]) -> Vec<usize> {
    let pool = pool();
    // A second allocation of every value, shared by the slots that name it.
    let twins = pool.clone();
    let (mut engine, mut oracle) = (engine(), engine());
    let mut passes = Vec::new();
    for picks in batches {
        let own: Vec<Element> = picks.iter().map(|&(v, _)| pool[v].clone()).collect();
        let batch: Vec<&Element> = picks
            .iter()
            .zip(&own)
            .map(|(&(v, how), own)| match how {
                SHARED => &pool[v],
                TWIN => &twins[v],
                _ => own,
            })
            .collect();
        let compared = engine.stats.trees_compared;
        let got = engine.match_batch(&batch);
        let want = model(&mut oracle, &batch);
        assert_eq!(&got.index, &want.index, "picks: {:?}", picks);
        assert_eq!(got.passes(), want.passes());
        for i in 0..batch.len() {
            assert_eq!(got.outcome(i), want.outcome(i), "document {}", i);
        }
        assert_eq!(&got, &want);
        let mut stats = engine.stats;
        stats.trees_compared = 0;
        assert_eq!(stats, oracle.stats);
        // Each allocation merged by value was compared at least once.
        let mut allocations: Vec<*const Element> = batch.iter().map(|&d| d as *const _).collect();
        allocations.sort_unstable();
        allocations.dedup();
        assert!(
            engine.stats.trees_compared - compared >= (allocations.len() - got.passes()) as u64
        );
        passes.push(got.passes());
    }
    passes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn match_batch_agrees_with_the_whole_tree_dedup(
        batches in proptest::collection::vec(
            proptest::collection::vec((0..8usize, 0..3usize), 1..24),
            1..4,
        ),
    ) {
        check(&batches);
    }
}

/// Every near-miss beside every other, each held three ways: eight passes,
/// whatever the order.
#[test]
fn every_near_miss_gets_its_own_pass() {
    let forward: Vec<(usize, usize)> = [SHARED, TWIN, OWN]
        .into_iter()
        .flat_map(|how| (0..8).map(move |v| (v, how)))
        .collect();
    let backward: Vec<(usize, usize)> = forward.iter().rev().copied().collect();
    assert_eq!(check(&[forward, backward]), vec![8, 8]);
}
