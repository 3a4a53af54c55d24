//! The combined Filter engine: preFilter → AESFilter → YFilterσ.
//!
//! Figure 5 of the paper: plain arrows are the per-document data flow through
//! the three modules; dotted arrows are the *offline adjustment* performed
//! when the subscription database changes.  The third stage is YFilterσ's
//! pruning applied per subscription: the patterns of the subscriptions the
//! root attributes left active are evaluated directly, and no other pattern
//! is read.
//!
//! Registering a subscription appends its conditions to the preFilter
//! alphabet and inserts its prefix into the AES hash-tree, at the cost of the
//! subscription.  Removing one prunes the hash-tree at the same cost, but the
//! alphabet is append-only: the removal that leaves it mostly dead rebuilds
//! the whole index from the database ([`FilterEngine::remove`] states when),
//! and so does every [`FilterEngine::add_all`].
//! [`NaiveFilter`](crate::NaiveFilter) is the equivalence oracle (see
//! `tests/prop_engine_vs_naive.rs`).

use std::collections::HashMap;
use std::ptr;

use p2pmon_xmlkit::Element;

use crate::aes::AesFilter;
use crate::prefilter::{ConditionId, PreFilter};
use crate::subscription::{FilterSubscription, SubscriptionId};

/// The one strategy there is.  Kept only because the frozen `benchmark/`
/// package names it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The prefilter → AES → YFilterσ pipeline.
    Staged,
}

/// Aggregate statistics maintained by the engine (experiments E2 and E3
/// read these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Documents processed.
    pub documents: u64,
    /// Documents for which at least one subscription matched.
    pub documents_matched: u64,
    /// Active complex subscriptions whose tree patterns were evaluated.
    pub complex_evaluations: u64,
    /// Documents that reached the complex stage at all.
    pub complex_stage_entered: u64,
    /// Always 0.  Kept only because the frozen `benchmark/` package names
    /// it.
    #[doc(hidden)]
    pub promotions: u64,
    /// The preFilter's work: index structures consulted plus simple
    /// conditions evaluated one by one ([`PreFilter::condition_probes`]).
    pub condition_probes: u64,
    /// Whole-tree equality checks [`FilterEngine::match_batch`] made: one per
    /// earlier distinct document of the same root tag and attributes that a
    /// new allocation is checked against.  A second reference to an
    /// allocation costs none.
    pub trees_compared: u64,
}

impl FilterStats {
    /// Accumulates another stats block into this one (used to aggregate the
    /// per-peer engines of a distributed deployment).
    pub fn absorb(&mut self, other: &FilterStats) {
        self.documents += other.documents;
        self.documents_matched += other.documents_matched;
        self.complex_evaluations += other.complex_evaluations;
        self.complex_stage_entered += other.complex_stage_entered;
        self.condition_probes += other.condition_probes;
        self.trees_compared += other.trees_compared;
    }
}

/// The outcome of filtering one document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterOutcome {
    /// Subscriptions that matched, sorted by id.
    pub matched: Vec<SubscriptionId>,
    /// Complex subscriptions that were *active* after the AES stage (their
    /// simple prefix was satisfied), whether or not they finally matched.
    pub active_complex: Vec<SubscriptionId>,
}

/// The outcome of filtering a batch of documents
/// ([`FilterEngine::match_batch`]): one [`FilterOutcome`] per *unique*
/// document, with an index mapping every input document to its (possibly
/// shared) outcome — duplicates cost neither an engine pass nor a clone.
/// Documents equal by value are duplicates; a second reference to one
/// allocation is found by address, a copy by its root and then its tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per unique document, in first-seen order.  Its length is
    /// the number of engine passes the batch actually executed.
    pub outcomes: Vec<FilterOutcome>,
    /// For each input document, the index of its outcome in `outcomes`.
    pub index: Vec<usize>,
}

impl BatchOutcome {
    /// The outcome of input document `i`.
    pub fn outcome(&self, i: usize) -> &FilterOutcome {
        &self.outcomes[self.index[i]]
    }

    /// Number of engine passes the batch executed (unique documents).
    pub fn passes(&self) -> usize {
        self.outcomes.len()
    }
}

/// The subscription database the index is built from.
type Database = HashMap<SubscriptionId, FilterSubscription>;

/// A document's root tag and root attributes, in order: documents equal by
/// value have equal keys, and hashing one reads nothing below the root.
type RootKey<'a> = (&'a str, &'a [(String, String)]);

/// What the simple stage hands back: the subscriptions the root attributes
/// settled as matched, and the complex ones they left active.
type SimpleStage = (Vec<SubscriptionId>, Vec<SubscriptionId>);

/// The staged index: the preFilter alphabet and the AES hash-tree.  The
/// tree-pattern parts stay in the subscription database, where the complex
/// stage reads them.
#[derive(Debug, Clone, Default)]
struct StagedIndex {
    prefilter: PreFilter,
    aes: AesFilter,
    /// Subscriptions with no simple conditions: always active.
    always_active: Vec<SubscriptionId>,
    /// Each subscription's sorted, deduplicated condition ids as inserted
    /// into the AES tree, enabling O(|sub|) removal.
    condition_ids: HashMap<SubscriptionId, Vec<ConditionId>>,
    /// Distinct prefilter conditions still referenced by some subscription
    /// (the alphabet itself is append-only; this is the live count).
    live_condition_refs: HashMap<ConditionId, u32>,
}

impl StagedIndex {
    /// Indexes the database in ascending id order: a deterministic build
    /// order keeps benches reproducible.
    fn build(database: &Database) -> Self {
        let mut subs: Vec<&FilterSubscription> = database.values().collect();
        subs.sort_unstable_by_key(|s| s.id);
        let mut index = StagedIndex::default();
        for sub in subs {
            index.insert(sub);
        }
        index
    }

    /// Indexes one subscription into the two stages; nothing already indexed
    /// is rebuilt.
    fn insert(&mut self, sub: &FilterSubscription) {
        let mut condition_ids: Vec<ConditionId> = sub
            .simple
            .iter()
            .map(|c| self.prefilter.register(c))
            .collect();
        condition_ids.sort_unstable();
        condition_ids.dedup();
        for &cid in &condition_ids {
            *self.live_condition_refs.entry(cid).or_insert(0) += 1;
        }
        if condition_ids.is_empty() {
            // Settled per document in `simple_stage`: matched outright when
            // there is no complex part either.
            self.always_active.push(sub.id);
        } else {
            self.aes.insert(&condition_ids, sub.id, sub.is_simple());
        }
        self.condition_ids.insert(sub.id, condition_ids);
    }

    /// Removes one subscription in O(|sub|): the AES tree prunes what only
    /// it reached, so `aes.node_count` never reports stale structure.
    fn remove(&mut self, sub: &FilterSubscription) {
        let Some(condition_ids) = self.condition_ids.remove(&sub.id) else {
            return;
        };
        if condition_ids.is_empty() {
            self.always_active.retain(|&a| a != sub.id);
        } else {
            self.aes.remove(&condition_ids, sub.id, sub.is_simple());
        }
        for cid in &condition_ids {
            if let Some(refs) = self.live_condition_refs.get_mut(cid) {
                *refs -= 1;
                if *refs == 0 {
                    self.live_condition_refs.remove(cid);
                }
            }
        }
    }

    /// The prefilter alphabet is append-only.  A dead condition is not
    /// scanned, but it keeps its memory, its place in a range list (so it is
    /// still reported when a value satisfies it, and the AES walk steps over
    /// it) and its slot in an `=` map; when dead conditions dominate, the
    /// index is due a rebuild.
    fn alphabet_mostly_dead(&self) -> bool {
        let alphabet = self.prefilter.alphabet_size();
        alphabet > 64 && alphabet > 2 * self.live_condition_refs.len()
    }

    /// Stages 1 and 2: simple conditions on the root attributes, then the
    /// AES hash-tree.
    fn simple_stage(&mut self, document: &Element, database: &Database) -> SimpleStage {
        let satisfied = self.prefilter.satisfied(document);
        let hit = self.aes.matches(&satisfied);
        let (mut matched, mut active) = (hit.matched_simple, hit.active_complex);
        // Subscriptions with no simple conditions are always active (or
        // always matched when they have no complex part either).
        for &id in &self.always_active {
            if database[&id].is_simple() {
                matched.push(id);
            } else {
                active.push(id);
            }
        }
        (matched, active)
    }
}

/// Stage 3: YFilterσ's pruning applied per subscription.  Only the active
/// complex subscriptions are evaluated, each by its own patterns, and one
/// matches when all of them do.
fn complex_stage(
    database: &Database,
    document: &Element,
    active: &[SubscriptionId],
) -> Vec<SubscriptionId> {
    active
        .iter()
        .copied()
        .filter(|id| database[id].complex.iter().all(|p| p.matches(document)))
        .collect()
}

/// The two-stage, many-subscription Filter.
///
/// # Example
///
/// Register a subscription and classify documents against the shared
/// database (one [`FilterEngine::process`] call serves *every*
/// registered subscription; [`FilterEngine::match_batch`] amortizes one
/// pass over a whole batch):
///
/// ```
/// use p2pmon_filter::{FilterEngine, FilterSubscription};
/// use p2pmon_streams::AttrCondition;
/// use p2pmon_xmlkit::{parse, path::CompareOp};
///
/// let mut engine = FilterEngine::new();
/// engine.add(FilterSubscription::new(7).with_simple(vec![
///     AttrCondition::new("callMethod", CompareOp::Eq, "GetTemperature"),
/// ]));
///
/// let hit = parse(r#"<call callMethod="GetTemperature"/>"#).unwrap();
/// let miss = parse(r#"<call callMethod="Ping"/>"#).unwrap();
/// assert_eq!(engine.process(&hit).matched.len(), 1);
/// assert!(engine.process(&miss).matched.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FilterEngine {
    subscriptions: Database,
    stages: StagedIndex,
    /// Engine statistics.
    pub stats: FilterStats,
}

impl FilterEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        FilterEngine::default()
    }

    /// An alias of [`FilterEngine::new`].  Kept only because the frozen
    /// `benchmark/` package names it.
    #[doc(hidden)]
    pub fn adaptive() -> Self {
        FilterEngine::new()
    }

    /// Builds an engine from a set of subscriptions.
    pub fn from_subscriptions(subscriptions: impl IntoIterator<Item = FilterSubscription>) -> Self {
        let mut engine = FilterEngine::new();
        engine.add_all(subscriptions);
        engine
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// True when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Registers a subscription (offline adjustment).
    ///
    /// The adjustment is *incremental*: the subscription's conditions are
    /// appended to the preFilter alphabet and its prefix inserted into the
    /// AES hash-tree — nothing already indexed is rebuilt.  This is what makes deployment of the
    /// N-th subscription O(|subscription|) instead of O(N), so a peer can
    /// absorb hundreds of hosted subscriptions cheaply.  Re-adding an id
    /// replaces the old subscription, at the cost of the two.
    pub fn add(&mut self, subscription: FilterSubscription) {
        let id = subscription.id;
        if let Some(old) = self.subscriptions.insert(id, subscription) {
            // Replacement: the old conditions must disappear.
            self.stages.remove(&old);
        }
        self.stages.insert(&self.subscriptions[&id]);
    }

    /// Registers many subscriptions, rebuilding the index once.
    pub fn add_all(&mut self, subscriptions: impl IntoIterator<Item = FilterSubscription>) {
        for s in subscriptions {
            self.subscriptions.insert(s.id, s);
        }
        self.rebuild();
    }

    /// Removes a subscription; returns `true` when it existed.  The staged
    /// structures shrink symmetrically, so `aes_node_count` never reports
    /// stale structure.
    ///
    /// A removal costs O(|subscription|), except one that leaves the
    /// preFilter alphabet mostly dead — more than 64 conditions, over half of
    /// them referenced by no subscription — which rebuilds the whole index
    /// from the database, in O(|database|).  Only removals kill conditions,
    /// and after a rebuild the alphabet holds only live ones, so more than
    /// half of the alphabet (at least 33 conditions) dies between two
    /// rebuilds: amortized, a removal costs O(|subscription| · |database| /
    /// max(33, live conditions)).  When every subscription has conditions of
    /// its own, removing them all oldest first rebuilds the index about half,
    /// three quarters, seven eighths, … of the way through.
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        let Some(old) = self.subscriptions.remove(&id) else {
            return false;
        };
        self.stages.remove(&old);
        if self.stages.alphabet_mostly_dead() {
            self.rebuild();
        }
        true
    }

    /// Size of the AES hash-tree (number of nodes), exposed for E3.
    pub fn aes_node_count(&self) -> usize {
        self.stages.aes.node_count()
    }

    /// Rebuilds the index from the subscription database.
    fn rebuild(&mut self) {
        self.stages = StagedIndex::build(&self.subscriptions);
    }

    /// Filters one document: simple stage, then the complex stage only if
    /// some complex subscription is still active.
    pub fn process(&mut self, document: &Element) -> FilterOutcome {
        self.stats.documents += 1;
        let probes_before = self.stages.prefilter.condition_probes;
        let (mut matched, mut active) = self.stages.simple_stage(document, &self.subscriptions);
        self.stats.condition_probes += self.stages.prefilter.condition_probes - probes_before;
        active.sort_unstable();
        active.dedup();

        if !active.is_empty() {
            self.stats.complex_stage_entered += 1;
            self.stats.complex_evaluations += active.len() as u64;
            matched.extend(complex_stage(&self.subscriptions, document, &active));
        }

        matched.sort_unstable();
        matched.dedup();
        if !matched.is_empty() {
            self.stats.documents_matched += 1;
        }
        FilterOutcome {
            matched,
            active_complex: active,
        }
    }

    /// Filters a batch of documents, running the three stages once per
    /// *distinct* document: identical documents share a single pass, which is
    /// what amortizes per-tick batched alert dispatch — a peer whose inbox
    /// holds the same alert for many subscriptions pays for one engine
    /// evaluation.  Duplicates are found by address first: a second
    /// reference to an allocation already seen costs one pointer probe.  A
    /// new allocation is keyed by its root tag and root attributes only, and
    /// compared whole ([`FilterStats::trees_compared`]) against the earlier
    /// documents that share that key; no tree is hashed below its root.
    /// Duplicates share their outcome by index instead of cloning it; read
    /// per-input results through [`BatchOutcome::outcome`].
    pub fn match_batch(&mut self, docs: &[&Element]) -> BatchOutcome {
        // Sized for the batch up front: growing `by_root` would hash every
        // root key again.
        let n = docs.len();
        let mut outcomes: Vec<FilterOutcome> = Vec::with_capacity(n);
        let mut index: Vec<usize> = Vec::with_capacity(n);
        let mut by_address: HashMap<*const Element, usize> = HashMap::with_capacity(n);
        // The latest distinct document per root key; `distinct[i]` is outcome
        // `i`'s document and the distinct document before it with that key.
        let mut by_root: HashMap<RootKey<'_>, Option<usize>> = HashMap::with_capacity(n);
        let mut distinct: Vec<(&Element, Option<usize>)> = Vec::with_capacity(n);
        for &doc in docs {
            let i = *by_address.entry(ptr::from_ref(doc)).or_insert_with(|| {
                let latest = by_root
                    .entry((doc.name.as_str(), doc.attributes.as_slice()))
                    .or_default();
                let mut candidate = *latest;
                while let Some(i) = candidate {
                    self.stats.trees_compared += 1;
                    if distinct[i].0 == doc {
                        return i;
                    }
                    candidate = distinct[i].1;
                }
                let i = outcomes.len();
                distinct.push((doc, latest.replace(i)));
                outcomes.push(self.process(doc));
                i
            });
            index.push(i);
        }
        BatchOutcome { outcomes, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::AttrCondition;
    use p2pmon_xmlkit::path::CompareOp;
    use p2pmon_xmlkit::{parse, XPath};

    fn sub_simple(id: u64, attr: &str, value: &str) -> FilterSubscription {
        FilterSubscription::new(id).with_simple(vec![AttrCondition::new(
            attr,
            CompareOp::Eq,
            value,
        )])
    }

    fn sub_complex(id: u64, attr: &str, value: &str, pattern: &str) -> FilterSubscription {
        FilterSubscription::new(id)
            .with_simple(vec![AttrCondition::new(attr, CompareOp::Eq, value)])
            .with_complex(vec![XPath::parse(pattern).unwrap()])
    }

    #[test]
    fn simple_and_complex_subscriptions_match_correctly() {
        let mut engine = FilterEngine::new();
        engine.add(sub_simple(1, "kind", "rss"));
        engine.add(sub_complex(2, "kind", "rss", "//item/title"));
        engine.add(sub_complex(3, "kind", "rss", "//item/enclosure"));
        engine.add(sub_simple(4, "kind", "soap"));

        let doc = parse(r#"<alert kind="rss"><item><title>x</title></item></alert>"#).unwrap();
        let outcome = engine.process(&doc);
        assert_eq!(outcome.matched, vec![SubscriptionId(1), SubscriptionId(2)]);
        assert_eq!(
            outcome.active_complex,
            vec![SubscriptionId(2), SubscriptionId(3)]
        );
    }

    #[test]
    fn no_simple_condition_subscriptions_are_always_considered() {
        let mut engine = FilterEngine::new();
        engine.add(FilterSubscription::new(1)); // matches everything
        engine.add(FilterSubscription::new(2).with_complex(vec![XPath::parse("//x").unwrap()]));
        let doc = parse("<r><x/></r>").unwrap();
        assert_eq!(
            engine.process(&doc).matched,
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        let doc2 = parse("<r><y/></r>").unwrap();
        assert_eq!(engine.process(&doc2).matched, vec![SubscriptionId(1)]);
    }

    #[test]
    fn remove_subscription_takes_effect() {
        let mut engine = FilterEngine::new();
        engine.add(sub_simple(1, "a", "1"));
        engine.add(sub_simple(2, "a", "1"));
        let doc = parse(r#"<r a="1"/>"#).unwrap();
        assert_eq!(engine.process(&doc).matched.len(), 2);
        assert!(engine.remove(SubscriptionId(1)));
        assert!(!engine.remove(SubscriptionId(1)));
        assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(2)]);
    }

    #[test]
    fn remove_shrinks_staged_structures() {
        // Unsubscribing must shrink the structures, not leave them stale.
        let mut engine = FilterEngine::new();
        for i in 0..10 {
            engine.add(sub_complex(
                i,
                "k",
                &format!("v{i}"),
                &format!("//a{i}/b{i}"),
            ));
        }
        let aes_before = engine.aes_node_count();
        for i in 5..10 {
            assert!(engine.remove(SubscriptionId(i)));
        }
        assert!(
            engine.aes_node_count() < aes_before,
            "AES tree must shrink: {} !< {}",
            engine.aes_node_count(),
            aes_before
        );
        // And matching still works for the survivors.
        let doc = parse(r#"<alert k="v2"><a2><b2/></a2></alert>"#).unwrap();
        assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(2)]);
        let gone = parse(r#"<alert k="v7"><a7><b7/></a7></alert>"#).unwrap();
        assert!(engine.process(&gone).matched.is_empty());
    }

    #[test]
    fn subscription_with_multiple_patterns_needs_all_of_them() {
        let mut engine = FilterEngine::new();
        engine.add(
            FilterSubscription::new(9)
                .with_simple(vec![AttrCondition::new("k", CompareOp::Eq, "v")])
                .with_complex(vec![
                    XPath::parse("//a").unwrap(),
                    XPath::parse("//b").unwrap(),
                ]),
        );
        // Pad with other complex subscriptions on the same condition: each
        // active one is judged by its own patterns only.
        for i in 10..20 {
            engine.add(sub_complex(i, "k", "v", "//zzz"));
        }
        let both = parse(r#"<r k="v"><a/><b/></r>"#).unwrap();
        let only_a = parse(r#"<r k="v"><a/></r>"#).unwrap();
        assert!(engine.process(&both).matched.contains(&SubscriptionId(9)));
        assert!(!engine.process(&only_a).matched.contains(&SubscriptionId(9)));
    }

    #[test]
    fn many_active_complex_subscriptions_agree_with_naive() {
        use crate::naive::NaiveFilter;
        // 64 subscriptions share one simple condition and differ in their
        // patterns, so every document leaves all 64 active.
        let subs: Vec<FilterSubscription> = (0..64)
            .map(|i| {
                sub_complex(
                    i,
                    "m",
                    "GetTemperature",
                    &format!("//t{}//t{}", i % 8, i / 8),
                )
            })
            .collect();
        let mut engine = FilterEngine::from_subscriptions(subs.clone());
        let mut naive = NaiveFilter::from_subscriptions(subs);
        // Each document with the number of ancestor/descendant pairs in it.
        let docs = [
            (
                r#"<alert m="GetTemperature"><t1><t2><t5/></t2></t1></alert>"#,
                3,
            ),
            (
                r#"<alert m="GetTemperature"><t0><t0/></t0><t7><t3/></t7></alert>"#,
                2,
            ),
            (r#"<alert m="GetTemperature"><t4/></alert>"#, 0),
        ];
        for (d, pairs) in docs {
            let doc = parse(d).unwrap();
            let outcome = engine.process(&doc);
            assert_eq!(outcome.active_complex.len(), 64, "{d}");
            let mut reference = naive.matching(&doc);
            reference.sort();
            assert_eq!(outcome.matched, reference, "disagreement on {d}");
            assert_eq!(outcome.matched.len(), pairs, "{d}");
        }
    }

    #[test]
    fn agrees_with_naive_filter_on_a_mixed_workload() {
        use crate::naive::NaiveFilter;
        let subs: Vec<FilterSubscription> = vec![
            sub_simple(1, "m", "GetTemperature"),
            sub_simple(2, "callee", "meteo.com"),
            sub_complex(3, "m", "GetTemperature", "//soap/body"),
            sub_complex(4, "m", "GetHumidity", "//soap/body"),
            FilterSubscription::new(5)
                .with_simple(vec![
                    AttrCondition::new("m", CompareOp::Eq, "GetTemperature"),
                    AttrCondition::new("callee", CompareOp::Eq, "meteo.com"),
                ])
                .with_complex(vec![XPath::parse("//city[text()=\"Orsay\"]").unwrap()]),
            FilterSubscription::new(6).with_simple(vec![AttrCondition::new(
                "dur",
                CompareOp::Gt,
                "10",
            )]),
        ];
        let mut engine = FilterEngine::from_subscriptions(subs.clone());
        let mut naive = NaiveFilter::from_subscriptions(subs);
        let docs = [
            r#"<alert m="GetTemperature" callee="meteo.com" dur="15"><soap><body><city>Orsay</city></body></soap></alert>"#,
            r#"<alert m="GetTemperature" callee="other.com" dur="5"><soap><body><city>Paris</city></body></soap></alert>"#,
            r#"<alert m="GetHumidity" callee="meteo.com"/>"#,
            r#"<alert/>"#,
        ];
        for d in docs {
            let doc = parse(d).unwrap();
            let mut a = engine.process(&doc).matched;
            let mut b = naive.matching(&doc);
            a.sort();
            b.sort();
            assert_eq!(a, b, "disagreement on {d}");
        }
    }

    #[test]
    fn incremental_add_agrees_with_bulk_construction() {
        // Interleave adds with processing: the incrementally grown engine
        // must agree with one built in bulk at every prefix.
        let subs: Vec<FilterSubscription> = (0..24)
            .map(|i| match i % 3 {
                0 => sub_simple(i, "m", &format!("v{}", i % 5)),
                1 => sub_complex(i, "m", &format!("v{}", i % 5), "//item/title"),
                _ => FilterSubscription::new(i)
                    .with_complex(vec![XPath::parse("//item/enclosure").unwrap()]),
            })
            .collect();
        let docs = [
            r#"<alert m="v0"><item><title>x</title></item></alert>"#,
            r#"<alert m="v1"><item><enclosure/></item></alert>"#,
            r#"<alert m="v4"/>"#,
        ];
        let mut incremental = FilterEngine::new();
        for (n, sub) in subs.iter().enumerate() {
            incremental.add(sub.clone());
            let mut bulk = FilterEngine::from_subscriptions(subs[..=n].to_vec());
            for d in &docs {
                let doc = parse(d).unwrap();
                assert_eq!(
                    incremental.process(&doc).matched,
                    bulk.process(&doc).matched,
                    "prefix {n} disagrees on {d}"
                );
            }
        }
        // Re-adding an existing id replaces it.
        incremental.add(sub_simple(0, "m", "other"));
        assert_eq!(incremental.len(), 24);
        let doc = parse(r#"<alert m="other"/>"#).unwrap();
        assert!(incremental
            .process(&doc)
            .matched
            .contains(&SubscriptionId(0)));
        let old = parse(r#"<alert m="v0"/>"#).unwrap();
        assert!(!incremental
            .process(&old)
            .matched
            .contains(&SubscriptionId(0)));
    }

    #[test]
    fn replacing_an_id_costs_the_two_subscriptions_not_the_database() {
        let mut engine = FilterEngine::new();
        for i in 0..200 {
            engine.add(sub_complex(i, "k", &format!("v{i}"), &format!("//a{i}/b")));
        }
        let nodes = engine.aes_node_count();
        engine.add(sub_complex(7, "k", "other", "//a7/c"));
        assert_eq!(engine.len(), 200);
        // `k = v7`'s prefix gave up the node only it reached and `k = other`
        // added one.
        assert_eq!(engine.aes_node_count(), nodes);
        let old = parse(r#"<r k="v7"><a7><b/></a7></r>"#).unwrap();
        assert!(engine.process(&old).matched.is_empty());
        let new = parse(r#"<r k="other"><a7><c/></a7></r>"#).unwrap();
        assert_eq!(engine.process(&new).matched, vec![SubscriptionId(7)]);
    }

    #[test]
    fn match_batch_deduplicates_identical_documents() {
        let mut engine = FilterEngine::new();
        engine.add(sub_simple(1, "kind", "rss"));
        engine.add(sub_complex(2, "kind", "rss", "//item/title"));
        let hit = parse(r#"<alert kind="rss"><item><title>x</title></item></alert>"#).unwrap();
        let hit_again =
            parse(r#"<alert kind="rss"><item><title>x</title></item></alert>"#).unwrap();
        let miss = parse(r#"<alert kind="soap"/>"#).unwrap();
        let batch = engine.match_batch(&[&hit, &miss, &hit_again, &hit]);
        assert_eq!(batch.passes(), 2, "identical documents share one pass");
        assert_eq!(engine.stats.documents, 2);
        assert_eq!(
            batch.outcome(0).matched,
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        assert!(batch.outcome(1).matched.is_empty());
        assert_eq!(batch.index, vec![0, 1, 0, 0], "duplicates share by index");
        assert_eq!(batch.outcome(2), batch.outcome(0));
        // `hit_again` is a new allocation with `hit`'s root: one whole-tree
        // comparison.  The second `&hit` is found by address.
        assert_eq!(engine.stats.trees_compared, 1);
        // The batched outcomes agree with one-at-a-time processing.
        let mut fresh = FilterEngine::new();
        fresh.add(sub_simple(1, "kind", "rss"));
        fresh.add(sub_complex(2, "kind", "rss", "//item/title"));
        for (i, doc) in [&hit, &miss, &hit_again].iter().enumerate() {
            assert_eq!(&fresh.process(doc), batch.outcome(i));
        }
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let a = FilterStats {
            documents: 3,
            documents_matched: 2,
            complex_evaluations: 5,
            complex_stage_entered: 1,
            promotions: 0,
            condition_probes: 7,
            trees_compared: 2,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.documents, 6);
        assert_eq!(b.complex_evaluations, 10);
        assert_eq!(b.condition_probes, 14);
        assert_eq!(b.trees_compared, 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut engine = FilterEngine::new();
        engine.add(sub_simple(1, "a", "1"));
        engine.process(&parse(r#"<r a="1"/>"#).unwrap());
        engine.process(&parse(r#"<r a="2"/>"#).unwrap());
        assert_eq!(engine.stats.documents, 2);
        assert_eq!(engine.stats.documents_matched, 1);
    }
}
