//! # p2pmon-filter
//!
//! The Filter stream processor of Section 4 — "whose performance is critical
//! for the usability of the system".  Given a very large set of
//! subscriptions `{Qᵢ}` and a high-rate stream of XML documents, it must
//! find, for every document `t`, the subscriptions that match it.
//!
//! Each subscription is a conjunction `Qᵢ = ∧ⱼ Cᵢⱼ (∧ Q'ᵢ)` of *simple
//! conditions* `Cᵢⱼ` on the root attributes and an optional *complex* part
//! `Q'ᵢ` (tree patterns, each an [`XPath`](p2pmon_xmlkit::XPath)).  The
//! paper restricts them to linear paths for YFilter's shared automaton; here
//! each is evaluated on its own, so any path will do.  The filter exploits
//! that split by running three modules in sequence:
//!
//! 1. [`PreFilter`] — reads only the root tag and looks each attribute's
//!    value up among the registered simple conditions, organised in a hash
//!    table keyed by attribute name and, under each name, indexed by value
//!    (`=` in hash maps, numeric ranges in sorted lists; only `!=` and
//!    string-ordered ranges are evaluated one by one).  It outputs the
//!    ordered list of satisfied conditions.
//! 2. [`AesFilter`] — the Atomic Event Set hash-tree (Nguyen et al., SIGMOD
//!    2001): feeding the satisfied-condition sequence through the tree yields
//!    (i) the *simple* subscriptions that are fully matched and (ii) the
//!    *complex* subscriptions whose simple prefix is satisfied and whose
//!    tree-pattern part still has to be checked ("active" subscriptions).
//! 3. YFilterσ — the tree-pattern stage (after Diao et al., ICDE 2002),
//!    "virtually pruned" to the active subscriptions.  The pruning is applied
//!    per subscription: [`FilterEngine`] evaluates each active
//!    subscription's patterns directly and reads no other pattern.
//!
//! The combined pipeline is [`FilterEngine`], the one index every peer runs:
//! registering and removing a subscription adjust the first two modules in
//! place, at the cost of the subscription except when a removal rebuilds the
//! index (see [`FilterEngine::remove`]).  [`NaiveFilter`] is the
//! baseline that evaluates every subscription from scratch on every
//! document; the benches of experiments E2 and E3 compare the two, and the
//! property tests assert they always agree.

pub mod aes;
pub mod engine;
pub mod naive;
pub mod prefilter;
pub mod subscription;

pub use aes::AesFilter;
pub use engine::{BatchOutcome, EngineMode, FilterEngine, FilterOutcome, FilterStats};
pub use naive::NaiveFilter;
pub use prefilter::PreFilter;
pub use subscription::{FilterSubscription, SubscriptionId};

#[cfg(test)]
mod lib_tests {
    use super::*;
    use p2pmon_streams::AttrCondition;
    use p2pmon_xmlkit::path::CompareOp;
    use p2pmon_xmlkit::{parse, XPath};

    #[test]
    fn end_to_end_filtering_of_the_paper_example() {
        // Q4 = C1, C3, Q'4 ; Q5 = C1 — from the Section 4 walk-through.
        let mut engine = FilterEngine::new();
        let c1 = AttrCondition::new("attr1", CompareOp::Eq, "x");
        let c3 = AttrCondition::new("attr3", CompareOp::Eq, "z");
        engine.add(
            FilterSubscription::new(4)
                .with_simple(vec![c1.clone(), c3.clone()])
                .with_complex(vec![XPath::parse("//c/d").unwrap()]),
        );
        engine.add(FilterSubscription::new(5).with_simple(vec![c1.clone()]));

        let doc = parse(r#"<root attr1="x" attr3="z"><c><d>1</d></c></root>"#).unwrap();
        let outcome = engine.process(&doc);
        let mut ids: Vec<u64> = outcome.matched.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5]);
    }
}
