//! What a document costs the preFilter, as a count:
//! `FilterStats::condition_probes` — one per index structure consulted, one
//! per condition evaluated one by one — follows the root's attributes, not
//! the alphabet.  The same documents read the same probes against 70 registered `=` / range
//! conditions and against 7 000.  Restoring a per-condition loop in
//! `PreFilter::satisfied` fails the first test here.
//!
//! What a batch costs its dedup, as a count: `FilterStats::trees_compared`
//! reads 0 when every duplicate is a second reference to one allocation, as
//! it is in a monitor's batch, and one per clone whose root no other
//! document shares.  Comparing trees to find a shared allocation fails the
//! third test here.

use p2pmon_filter::{FilterEngine, FilterSubscription};
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::Element;

/// One subscription per condition: `methods` `callMethod =`, as many
/// `callee =`, and `thresholds` over `duration`, alternating `>` and `<=` —
/// the shape of `filter_storm`'s alphabet (32 + 32 + 6 per hub).
fn alphabet(methods: usize, thresholds: usize) -> Vec<FilterSubscription> {
    let equalities = (0..methods).flat_map(|i| {
        [
            AttrCondition::new("callMethod", CompareOp::Eq, format!("M{i}")),
            AttrCondition::new("callee", CompareOp::Eq, format!("http://svc{i}.net")),
        ]
    });
    let ranges = (0..thresholds).map(|i| {
        let op = if i % 2 == 0 {
            CompareOp::Gt
        } else {
            CompareOp::Le
        };
        AttrCondition::new("duration", op, 8 + 4 * i)
    });
    equalities
        .chain(ranges)
        .enumerate()
        .map(|(id, condition)| FilterSubscription::new(id as u64).with_simple(vec![condition]))
        .collect()
}

/// Five root attributes, three of them mentioned by conditions.
fn documents() -> Vec<Element> {
    (0..40usize)
        .map(|i| {
            let mut root = Element::new("alert");
            root.set_attr("callId", i.to_string());
            root.set_attr("callMethod", format!("M{}", i % 32));
            root.set_attr("callee", format!("http://svc{}.net", (i * 7) % 32));
            root.set_attr("caller", "http://hub.net");
            root.set_attr("duration", (1 + i).to_string());
            root
        })
        .collect()
}

/// Probes and matches per document.
fn run(subscriptions: Vec<FilterSubscription>) -> Vec<(u64, usize)> {
    let mut engine = FilterEngine::from_subscriptions(subscriptions);
    documents()
        .iter()
        .map(|document| {
            let before = engine.stats.condition_probes;
            let matched = engine.process(document).matched.len();
            (engine.stats.condition_probes - before, matched)
        })
        .collect()
}

#[test]
fn probes_per_document_do_not_grow_with_the_alphabet() {
    let small = run(alphabet(32, 6));
    let large = run(alphabet(3_200, 600));
    assert_eq!(small.len(), large.len());
    for (i, (&(few, _), &(many, satisfied))) in small.iter().zip(&large).enumerate() {
        assert_eq!(
            few, many,
            "document {i}: 70 conditions cost {few} probes, 7 000 cost {many}"
        );
        // One `=` map for `callMethod`, one for `callee`, the `>` and the
        // `<=` list for `duration`; the two unmentioned attributes cost a
        // hash miss and no probe.  Nothing is evaluated one by one.
        assert_eq!(many, 4, "document {i}");
        // Every condition is its own subscription, so matches count the
        // conditions satisfied: the output may grow with the alphabet (a
        // duration of 40 is above hundreds of thresholds), the probes not.
        assert!(satisfied >= 2, "document {i} matched {satisfied}");
    }
    let total: usize = large.iter().map(|&(_, satisfied)| satisfied).sum();
    assert!(total > 40 * 100, "ranges were satisfied in runs: {total}");
}

#[test]
fn an_alphabet_of_inequalities_is_allowed_to_be_linear() {
    // `!=` holds for every value but one, so it has no index: each such
    // condition on an attribute the root carries is one probe — as is a
    // range over a string constant, which orders by string.  Those are the
    // documented exceptions, and this pins what they cost.
    for n in [10usize, 1_000] {
        let subscriptions = (0..n).map(|i| {
            FilterSubscription::new(i as u64).with_simple(vec![AttrCondition::new(
                "callMethod",
                CompareOp::Ne,
                format!("M{i}"),
            )])
        });
        let mut engine = FilterEngine::from_subscriptions(subscriptions);
        let documents = documents();
        for document in &documents {
            engine.process(document);
        }
        assert_eq!(
            engine.stats.condition_probes,
            (n * documents.len()) as u64,
            "{n} `!=` conditions"
        );
    }
}

#[test]
fn a_shared_allocation_is_found_without_comparing_trees() {
    let documents = documents();
    let clones = documents.clone();
    // Each alert twice, as a monitor's hub batches it: once for its feed and
    // once for its source stream's local multicast group, one allocation.
    let shared: Vec<&Element> = documents.iter().flat_map(|d| [d, d]).collect();
    // Each alert beside a clone of it: equal by value, two allocations.
    let cloned: Vec<&Element> = documents
        .iter()
        .zip(&clones)
        .flat_map(|(d, c)| [d, c])
        .collect();
    for (batch, compared) in [(shared, 0), (cloned, 40)] {
        let mut engine = FilterEngine::from_subscriptions(alphabet(32, 6));
        let outcome = engine.match_batch(&batch);
        assert_eq!(outcome.passes(), 40, "one pass per alert");
        assert_eq!(engine.stats.documents, 40);
        // Every root carries its own `callId`: a clone is compared with the
        // one earlier document of its root, and nothing else is.
        assert_eq!(engine.stats.trees_compared, compared);
    }
}
