//! The combined Filter engine: preFilter → AESFilter → YFilterσ.
//!
//! Figure 5 of the paper: plain arrows are the per-document data flow through
//! the three modules; dotted arrows are the *offline adjustment* performed
//! when the subscription database changes.
//!
//! # Cost-adaptive dispatch
//!
//! The staged pipeline has a fixed per-document overhead (prefilter index
//! lookups, hash-tree walk, automaton set expansion) that only pays for itself
//! past a break-even number of subscriptions; below it, a memoized linear
//! scan is faster.  Both strategies answer the same two questions — which
//! subscriptions do the root attributes settle (the *simple stage*), and
//! which of the still-active ones do the tree patterns confirm (the *complex
//! stage*) — so the engine holds **one index at a time** and runs one match
//! path over whichever it holds.
//!
//! An engine created with [`FilterEngine::adaptive`] starts on the **naive**
//! scan and tracks an online cost model: an EWMA of the measured scan cost
//! (in deterministic work units, not wall-clock, so behaviour is
//! reproducible) against an estimate of what the staged pipeline would cost
//! given the current number of live conditions and patterns.  Past the
//! break-even margin it **promotes** itself: the staged index is built from
//! the subscription database in one step, inside the `process` call that
//! crossed the line, and replaces the scan tables.  When `remove` shrinks the
//! database below a hysteresis fraction of its size at promotion time, the
//! engine **demotes**: the scan tables are built from the database and
//! replace the staged index.  Both indexes produce identical match sets — the
//! naive scan is the equivalence oracle for the staged pipeline (see
//! `tests/prop_engine_vs_naive.rs`).
//!
//! Engines created with [`FilterEngine::new`] are pinned to the staged
//! pipeline, preserving the original behaviour.

use std::collections::HashMap;

use p2pmon_activexml::sc::{materialize, ServiceCall};
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::{Element, PathPattern, Value};

use crate::aes::AesFilter;
use crate::prefilter::{ConditionId, PreFilter};
use crate::subscription::{FilterSubscription, SubscriptionId};
use crate::yfilter::{QueryIdx, YFilter};

/// When at most this many complex subscriptions are active for a document,
/// the engine evaluates their patterns directly instead of running the shared
/// automaton — the "virtually pruned" YFilterσ of the paper degenerates to a
/// handful of direct checks, which is cheaper than touching the big NFA.
const DIRECT_EVALUATION_THRESHOLD: usize = 4;

/// Which matching strategy an engine is currently using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Memoized linear scan over the compiled subscriptions.
    Naive,
    /// The full prefilter → AES → YFilterσ pipeline.
    Staged,
}

impl EngineMode {
    /// Short lowercase label, used by the bench trajectory.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Naive => "naive",
            EngineMode::Staged => "staged",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// The adaptive cost model.  All costs are in abstract *work units* (one
// simple-condition evaluation = 1.0), never wall-clock, so promotion
// decisions are deterministic and testable.  The constants are not settable:
// the engine adapts from what it measures.  They are the values
// `BENCH_filter.json` was taken with; the `adaptive_probe` example of
// `p2pmon-bench` prints the wall-clock figures they were calibrated against.

/// EWMA smoothing factor for the measured naive cost per document.
const EWMA_ALPHA: f64 = 0.2;
/// Documents observed in naive mode before promotion is considered.
const MIN_OBSERVATIONS: u64 = 8;
/// Subscriptions required before promotion is considered at all.
const MIN_SUBSCRIPTIONS: usize = 16;
/// Promote when `naive_ewma > staged_estimate × PROMOTE_MARGIN`.
const PROMOTE_MARGIN: f64 = 1.25;
/// Demote when `remove` shrinks the database below this fraction of its size
/// at promotion time.
const DEMOTE_FRACTION: f64 = 0.5;
/// Fixed per-document overhead of the staged pipeline, in work units.
const STAGED_BASE: f64 = 32.0;
/// Estimated staged cost per live distinct simple condition.  Calibrated
/// when the preFilter evaluated every condition on an attribute the root
/// carries; it now looks the value up, so a live condition costs the staged
/// pipeline less than this says and the engine promotes later than it could
/// (`adaptive_probe` prints where the break-even lies).
const CONDITION_UNIT: f64 = 0.5;
/// Estimated staged cost per live tree pattern.
const PATTERN_UNIT: f64 = 0.5;

/// Work-unit prices of the naive scan: a memo hit is an order of magnitude
/// cheaper than re-evaluating a condition, and a tree-pattern evaluation an
/// order of magnitude dearer.
const COND_EVAL_COST: f64 = 1.0;
const MEMO_HIT_COST: f64 = 0.125;
const PATTERN_EVAL_COST: f64 = 8.0;

/// What the staged pipeline is estimated to cost per document, in work
/// units, over this many live conditions and patterns.
fn staged_estimate(conditions: usize, patterns: usize) -> f64 {
    STAGED_BASE + CONDITION_UNIT * conditions as f64 + PATTERN_UNIT * patterns as f64
}

/// Aggregate statistics maintained by the engine (experiments E2–E5 read
/// these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Documents processed.
    pub documents: u64,
    /// Documents for which at least one subscription matched.
    pub documents_matched: u64,
    /// Complex subscriptions whose tree patterns were evaluated (either via
    /// the automaton or directly).
    pub complex_evaluations: u64,
    /// Documents that reached the complex stage at all.
    pub complex_stage_entered: u64,
    /// Service calls (`sc` elements) materialised.
    pub service_calls_made: u64,
    /// Service calls avoided because no active subscription needed the
    /// payload.
    pub service_calls_avoided: u64,
    /// Documents processed by the naive scan.
    pub naive_documents: u64,
    /// Naive → staged promotions.
    pub promotions: u64,
    /// Staged → naive demotions (hysteresis on `remove`).
    pub demotions: u64,
    /// The preFilter's work on the staged path: index structures consulted
    /// plus simple conditions evaluated one by one
    /// ([`PreFilter::condition_probes`]).  The naive scan has no preFilter
    /// and adds nothing.
    pub condition_probes: u64,
}

impl FilterStats {
    /// Accumulates another stats block into this one (used to aggregate the
    /// per-peer engines of a distributed deployment).
    pub fn absorb(&mut self, other: &FilterStats) {
        self.documents += other.documents;
        self.documents_matched += other.documents_matched;
        self.complex_evaluations += other.complex_evaluations;
        self.complex_stage_entered += other.complex_stage_entered;
        self.service_calls_made += other.service_calls_made;
        self.service_calls_avoided += other.service_calls_avoided;
        self.naive_documents += other.naive_documents;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.condition_probes += other.condition_probes;
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

/// The subscription database both indexes are built from.
type Database = HashMap<SubscriptionId, FilterSubscription>;

/// The database in ascending id order: a deterministic build order keeps
/// benches reproducible.
fn sorted(database: &Database) -> Vec<&FilterSubscription> {
    let mut subs: Vec<&FilterSubscription> = database.values().collect();
    subs.sort_unstable_by_key(|s| s.id);
    subs
}

/// What a simple stage hands back: the subscriptions the root attributes
/// settled as matched, and the complex ones they left active.
type SimpleStage = (Vec<SubscriptionId>, Vec<SubscriptionId>);

/// A subscription compiled for the naive scan: its conditions and patterns
/// are interned into shared tables so evaluations memoize across the many
/// subscriptions that reuse the same condition or pattern.
#[derive(Debug, Clone)]
struct CompiledSub {
    id: SubscriptionId,
    cond_ids: Vec<u32>,
    pattern_ids: Vec<u32>,
}

/// The memoized linear-scan tables of naive mode, with the cost the scan
/// measures on itself.  Conditions and patterns are deduplicated by their
/// canonical text; per-document memo slots are stamped so clearing between
/// documents is O(1).
#[derive(Debug, Clone, Default)]
struct NaiveTables {
    conds: Vec<AttrCondition>,
    /// The typed constant of each condition, parsed once at intern time
    /// (`AttrCondition::eval` would re-parse it per evaluation).
    cond_consts: Vec<Value>,
    cond_index: HashMap<String, u32>,
    cond_refs: Vec<u32>,
    cond_memo: Vec<(u64, bool)>,
    patterns: Vec<PathPattern>,
    pattern_index: HashMap<String, u32>,
    pattern_refs: Vec<u32>,
    pattern_memo: Vec<(u64, bool)>,
    subs: Vec<CompiledSub>,
    pos: HashMap<SubscriptionId, usize>,
    stamp: u64,
    /// Distinct conditions with at least one referencing subscription.
    live_conds: usize,
    /// Distinct patterns with at least one referencing subscription.
    live_patterns: usize,
    /// Work units spent on the current document so far.
    work: f64,
    /// EWMA of the work per document, over `observations` documents.
    ewma: f64,
    observations: u64,
}

impl NaiveTables {
    fn build(database: &Database) -> Self {
        let mut tables = NaiveTables::default();
        for sub in sorted(database) {
            tables.insert(sub);
        }
        tables
    }

    fn intern_cond(&mut self, cond: &AttrCondition) -> u32 {
        let key = cond.key();
        if let Some(&i) = self.cond_index.get(&key) {
            if self.cond_refs[i as usize] == 0 {
                self.live_conds += 1;
            }
            self.cond_refs[i as usize] += 1;
            return i;
        }
        let i = u32::try_from(self.conds.len()).expect("condition table overflow");
        self.cond_consts.push(Value::from_literal(&cond.constant));
        self.conds.push(cond.clone());
        self.cond_refs.push(1);
        self.cond_memo.push((0, false));
        self.cond_index.insert(key, i);
        self.live_conds += 1;
        i
    }

    fn intern_pattern(&mut self, pattern: &PathPattern) -> u32 {
        let key = pattern.to_string();
        if let Some(&i) = self.pattern_index.get(&key) {
            if self.pattern_refs[i as usize] == 0 {
                self.live_patterns += 1;
            }
            self.pattern_refs[i as usize] += 1;
            return i;
        }
        let i = u32::try_from(self.patterns.len()).expect("pattern table overflow");
        self.patterns.push(pattern.clone());
        self.pattern_refs.push(1);
        self.pattern_memo.push((0, false));
        self.pattern_index.insert(key, i);
        self.live_patterns += 1;
        i
    }

    fn insert(&mut self, sub: &FilterSubscription) {
        let cond_ids = sub.simple.iter().map(|c| self.intern_cond(c)).collect();
        let pattern_ids = sub.complex.iter().map(|p| self.intern_pattern(p)).collect();
        self.pos.insert(sub.id, self.subs.len());
        self.subs.push(CompiledSub {
            id: sub.id,
            cond_ids,
            pattern_ids,
        });
    }

    /// Drops a compiled subscription in O(|sub|); dead table entries keep
    /// their slot (the memo stamps make them free) and are resurrected if the
    /// same condition or pattern is registered again.
    fn remove(&mut self, id: SubscriptionId) {
        let Some(pos) = self.pos.remove(&id) else {
            return;
        };
        let cs = self.subs.swap_remove(pos);
        if pos < self.subs.len() {
            self.pos.insert(self.subs[pos].id, pos);
        }
        for &i in &cs.cond_ids {
            self.cond_refs[i as usize] -= 1;
            if self.cond_refs[i as usize] == 0 {
                self.live_conds -= 1;
            }
        }
        for &i in &cs.pattern_ids {
            self.pattern_refs[i as usize] -= 1;
            if self.pattern_refs[i as usize] == 0 {
                self.live_patterns -= 1;
            }
        }
    }

    fn eval_cond(&mut self, i: u32, root_attrs: &[(&str, Value)]) -> bool {
        let i = i as usize;
        let (stamp, value) = self.cond_memo[i];
        if stamp == self.stamp {
            self.work += MEMO_HIT_COST;
            return value;
        }
        let cond = &self.conds[i];
        let value = root_attrs
            .iter()
            .find(|(k, _)| *k == cond.attr)
            .map(|(_, v)| cond.op.apply(v, &self.cond_consts[i]))
            .unwrap_or(false);
        self.cond_memo[i] = (self.stamp, value);
        self.work += COND_EVAL_COST;
        value
    }

    fn eval_pattern(&mut self, i: u32, document: &Element) -> bool {
        let i = i as usize;
        let (stamp, value) = self.pattern_memo[i];
        if stamp == self.stamp {
            self.work += MEMO_HIT_COST;
            return value;
        }
        let value = self.patterns[i].matches(document);
        self.pattern_memo[i] = (self.stamp, value);
        self.work += PATTERN_EVAL_COST;
        value
    }

    /// Simple conditions of every subscription, memoized.  Opens a new
    /// document: one stamp serves both stages, because this one never writes
    /// a pattern memo — so the complex stage may be handed the *materialised*
    /// document (patterns must not run before materialisation).
    fn simple_stage(&mut self, document: &Element) -> SimpleStage {
        self.stamp += 1;
        self.work = 0.0;
        // Typed root attributes, parsed once per document: every condition
        // evaluation against the same document reuses them instead of
        // re-finding and re-parsing the attribute (`AttrCondition::eval` does
        // both per call — that repetition is most of the plain naive filter's
        // cost).
        let root_attrs: Vec<(&str, Value)> = document.typed_attrs().collect();
        let (mut matched, mut active) = (Vec::new(), Vec::new());
        for si in 0..self.subs.len() {
            let holds = (0..self.subs[si].cond_ids.len())
                .all(|k| self.eval_cond(self.subs[si].cond_ids[k], &root_attrs));
            if !holds {
                continue;
            }
            let sub = &self.subs[si];
            if sub.pattern_ids.is_empty() {
                matched.push(sub.id);
            } else {
                active.push(sub.id);
            }
        }
        (matched, active)
    }

    /// Tree patterns of the active subscriptions, memoized.
    fn complex_stage(
        &mut self,
        document: &Element,
        active: &[SubscriptionId],
    ) -> Vec<SubscriptionId> {
        let mut confirmed = Vec::new();
        for &id in active {
            let si = self.pos[&id];
            let holds = (0..self.subs[si].pattern_ids.len())
                .all(|k| self.eval_pattern(self.subs[si].pattern_ids[k], document));
            if holds {
                confirmed.push(id);
            }
        }
        confirmed
    }

    /// Feeds the finished document's work into the EWMA; true when the model
    /// says the staged pipeline would be cheaper by the margin.
    fn observe(&mut self) -> bool {
        self.ewma = if self.observations == 0 {
            self.work
        } else {
            EWMA_ALPHA * self.work + (1.0 - EWMA_ALPHA) * self.ewma
        };
        self.observations += 1;
        self.observations >= MIN_OBSERVATIONS
            && self.subs.len() >= MIN_SUBSCRIPTIONS
            && self.ewma > staged_estimate(self.live_conds, self.live_patterns) * PROMOTE_MARGIN
    }
}

/// Per-subscription back-references into the staged structures, enabling
/// O(|sub|) removal from the AES hash-tree and allowed-list construction
/// without scanning the whole query table.
#[derive(Debug, Clone, Default)]
struct StagedSub {
    /// Sorted, deduplicated condition ids as inserted into the AES tree.
    condition_ids: Vec<ConditionId>,
    /// YFilter query indices owned by this subscription, one per pattern
    /// (none: the subscription is simple).
    queries: Vec<QueryIdx>,
}

/// The staged index: preFilter alphabet, AES hash-tree and YFilter automaton.
#[derive(Debug, Clone, Default)]
struct StagedIndex {
    prefilter: PreFilter,
    aes: AesFilter,
    yfilter: YFilter,
    /// The subscription owning each YFilter query.
    query_owner: Vec<SubscriptionId>,
    /// Subscriptions with no simple conditions: always active.
    always_active: Vec<SubscriptionId>,
    subs: HashMap<SubscriptionId, StagedSub>,
    /// Distinct prefilter conditions still referenced by some subscription
    /// (the alphabet itself is append-only; this is the live count).
    live_condition_refs: HashMap<ConditionId, u32>,
}

impl StagedIndex {
    fn build(database: &Database) -> Self {
        let mut index = StagedIndex::default();
        for sub in sorted(database) {
            index.insert(sub);
        }
        index
    }

    /// Indexes one subscription into the three stages; nothing already
    /// indexed is rebuilt.
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
        self.subs.insert(
            sub.id,
            StagedSub {
                condition_ids,
                queries: Vec::with_capacity(sub.complex.len()),
            },
        );
        for pattern in &sub.complex {
            self.add_query(sub.id, pattern.clone());
        }
    }

    fn add_query(&mut self, owner: SubscriptionId, pattern: PathPattern) {
        let q = self.yfilter.add(pattern);
        debug_assert_eq!(q, self.query_owner.len());
        self.query_owner.push(owner);
        self.subs
            .get_mut(&owner)
            .expect("a query's owner is indexed")
            .queries
            .push(q);
    }

    /// Removes one subscription: AES prune in O(|sub|), automaton rebuild
    /// only when the subscription owned patterns — so `aes.node_count` and
    /// `yfilter.state_count` never report stale structure.
    fn remove(&mut self, id: SubscriptionId) {
        let Some(gone) = self.subs.remove(&id) else {
            return;
        };
        if gone.condition_ids.is_empty() {
            self.always_active.retain(|&a| a != id);
        } else {
            self.aes
                .remove(&gone.condition_ids, id, gone.queries.is_empty());
        }
        for cid in &gone.condition_ids {
            if let Some(refs) = self.live_condition_refs.get_mut(cid) {
                *refs -= 1;
                if *refs == 0 {
                    self.live_condition_refs.remove(cid);
                }
            }
        }
        if !gone.queries.is_empty() {
            // The automaton has no removal: re-add the survivors' queries.
            let automaton = std::mem::take(&mut self.yfilter);
            let owners = std::mem::take(&mut self.query_owner);
            for sub in self.subs.values_mut() {
                sub.queries.clear();
            }
            for (pattern, owner) in automaton.queries().iter().zip(owners) {
                if owner != id {
                    self.add_query(owner, pattern.clone());
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
    fn simple_stage(&mut self, document: &Element) -> SimpleStage {
        let satisfied = self.prefilter.satisfied(document);
        let hit = self.aes.matches(&satisfied);
        let (mut matched, mut active) = (hit.matched_simple, hit.active_complex);
        // Subscriptions with no simple conditions are always active (or
        // always matched when they have no complex part either).
        for &id in &self.always_active {
            if self.subs[&id].queries.is_empty() {
                matched.push(id);
            } else {
                active.push(id);
            }
        }
        (matched, active)
    }

    /// Stage 3: YFilterσ over the active complex subscriptions only, either
    /// directly (few active) or through the pruned automaton (many active).
    fn complex_stage(
        &mut self,
        document: &Element,
        active: &[SubscriptionId],
    ) -> Vec<SubscriptionId> {
        if active.len() <= DIRECT_EVALUATION_THRESHOLD {
            let patterns = self.yfilter.queries();
            return active
                .iter()
                .copied()
                .filter(|id| {
                    let owned = &self.subs[id].queries;
                    owned.iter().all(|&q| patterns[q].matches(document))
                })
                .collect();
        }
        // Restrict the automaton's accepts to the queries owned by active
        // subscriptions.  Each subscription knows its own query indices, so
        // this is O(active · patterns-per-sub), not a scan of every
        // registered query.
        let mut allowed: Vec<QueryIdx> = active
            .iter()
            .flat_map(|id| self.subs[id].queries.iter().copied())
            .collect();
        allowed.sort_unstable();
        let matched_queries = self
            .yfilter
            .matching_queries_filtered(document, Some(&allowed));
        // A subscription is confirmed when *all* of its patterns matched.
        let mut per_subscription: HashMap<SubscriptionId, usize> = HashMap::new();
        for q in matched_queries {
            *per_subscription.entry(self.query_owner[q]).or_insert(0) += 1;
        }
        per_subscription
            .into_iter()
            .filter(|(id, n)| self.subs[id].queries.len() == *n)
            .map(|(id, _)| id)
            .collect()
    }
}

/// The one index an engine holds; [`FilterEngine::mode`] says which.
#[derive(Debug, Clone)]
enum Index {
    Naive(NaiveTables),
    Staged {
        stages: StagedIndex,
        /// Hysteresis: demote when `remove` shrinks the database below this
        /// size.  Zero pins the engine to the staged pipeline.
        demote_below: usize,
    },
}

/// Performs the remote call behind an `sc` element on demand.
type Resolver<'a> = dyn FnMut(&ServiceCall) -> Result<Vec<Element>, String> + 'a;

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
/// let mut engine = FilterEngine::adaptive();
/// engine.add(FilterSubscription::new(7).with_simple(vec![
///     AttrCondition::new("callMethod", CompareOp::Eq, "GetTemperature"),
/// ]));
///
/// let hit = parse(r#"<call callMethod="GetTemperature"/>"#).unwrap();
/// let miss = parse(r#"<call callMethod="Ping"/>"#).unwrap();
/// assert_eq!(engine.process(&hit).matched.len(), 1);
/// assert!(engine.process(&miss).matched.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FilterEngine {
    subscriptions: Database,
    index: Index,
    /// Engine statistics.
    pub stats: FilterStats,
}

impl Default for FilterEngine {
    fn default() -> Self {
        FilterEngine::new()
    }
}

impl FilterEngine {
    fn with_index(index: Index) -> Self {
        FilterEngine {
            subscriptions: HashMap::new(),
            index,
            stats: FilterStats::default(),
        }
    }

    /// Creates an empty, non-adaptive engine: always staged, the original
    /// behaviour.
    pub fn new() -> Self {
        FilterEngine::with_index(Index::Staged {
            stages: StagedIndex::default(),
            demote_below: 0,
        })
    }

    /// Creates an empty cost-adaptive engine: starts in naive mode and
    /// promotes/demotes itself based on the online cost model.
    pub fn adaptive() -> Self {
        FilterEngine::with_index(Index::Naive(NaiveTables::default()))
    }

    /// Builds a (non-adaptive) engine from a set of subscriptions.
    pub fn from_subscriptions(subscriptions: impl IntoIterator<Item = FilterSubscription>) -> Self {
        let mut engine = FilterEngine::new();
        engine.add_all(subscriptions);
        engine
    }

    /// The strategy the engine is currently using.
    pub fn mode(&self) -> EngineMode {
        match self.index {
            Index::Naive(_) => EngineMode::Naive,
            Index::Staged { .. } => EngineMode::Staged,
        }
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
    /// The adjustment is *incremental* in every mode: naive mode compiles the
    /// subscription into the scan tables, staged mode appends its conditions
    /// to the preFilter alphabet, inserts it into the AES hash-tree and adds
    /// its patterns to the shared automaton — nothing already indexed is
    /// rebuilt.  This is what makes deployment of the N-th subscription
    /// O(|subscription|) instead of O(N), so a peer can absorb hundreds of
    /// hosted subscriptions cheaply.  Re-adding an id replaces the old
    /// subscription (that path falls back to a rebuild).
    pub fn add(&mut self, subscription: FilterSubscription) {
        let id = subscription.id;
        if self.subscriptions.insert(id, subscription).is_some() {
            // Replacement: the old conditions/patterns must disappear.
            self.rebuild();
            return;
        }
        let sub = &self.subscriptions[&id];
        match &mut self.index {
            Index::Naive(tables) => tables.insert(sub),
            Index::Staged { stages, .. } => stages.insert(sub),
        }
    }

    /// Registers many subscriptions, rebuilding the index once.
    pub fn add_all(&mut self, subscriptions: impl IntoIterator<Item = FilterSubscription>) {
        for s in subscriptions {
            self.subscriptions.insert(s.id, s);
        }
        self.rebuild();
    }

    /// Removes a subscription; returns `true` when it existed.
    ///
    /// The staged structures shrink symmetrically, so `aes_node_count` and
    /// `yfilter_state_count` never report stale structure.  An adaptive
    /// engine demotes to naive mode when the database falls below the
    /// hysteresis fraction of its promotion size: the scan tables are built
    /// from the (now small) database and replace the staged index.
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        if self.subscriptions.remove(&id).is_none() {
            return false;
        }
        match &mut self.index {
            Index::Naive(tables) => tables.remove(id),
            Index::Staged {
                stages,
                demote_below,
            } => {
                stages.remove(id);
                if self.subscriptions.len() < *demote_below {
                    self.index = Index::Naive(NaiveTables::build(&self.subscriptions));
                    self.stats.demotions += 1;
                } else if stages.alphabet_mostly_dead() {
                    *stages = StagedIndex::build(&self.subscriptions);
                }
            }
        }
        true
    }

    /// Size of the AES hash-tree (number of nodes), exposed for E3.  Zero in
    /// naive mode: no staged structure exists.
    pub fn aes_node_count(&self) -> usize {
        match &self.index {
            Index::Naive(_) => 0,
            Index::Staged { stages, .. } => stages.aes.node_count(),
        }
    }

    /// Number of YFilter NFA states, exposed for E4.  Zero in naive mode.
    pub fn yfilter_state_count(&self) -> usize {
        match &self.index {
            Index::Naive(_) => 0,
            Index::Staged { stages, .. } => stages.yfilter.state_count(),
        }
    }

    /// The staged-pipeline cost estimate of the adaptive model, in work
    /// units, given the current live condition/pattern population.
    pub fn staged_estimate(&self) -> f64 {
        match &self.index {
            Index::Naive(tables) => staged_estimate(tables.live_conds, tables.live_patterns),
            Index::Staged { stages, .. } => {
                staged_estimate(stages.live_condition_refs.len(), stages.query_owner.len())
            }
        }
    }

    /// The measured naive-scan cost EWMA, in work units per document.  Zero
    /// in staged mode: there is no scan to measure.
    pub fn naive_cost_ewma(&self) -> f64 {
        match &self.index {
            Index::Naive(tables) => tables.ewma,
            Index::Staged { .. } => 0.0,
        }
    }

    /// Rebuilds the index the engine holds from the subscription database.
    fn rebuild(&mut self) {
        match &mut self.index {
            Index::Naive(tables) => *tables = NaiveTables::build(&self.subscriptions),
            Index::Staged { stages, .. } => *stages = StagedIndex::build(&self.subscriptions),
        }
    }

    /// Filters one (fully materialised) document.
    pub fn process(&mut self, document: &Element) -> FilterOutcome {
        self.run(document, None).0
    }

    /// The one match path: simple stage → service calls, only if a resolver
    /// was given and something is still active → complex stage → epilogue.
    /// Returns the outcome together with the number of calls made.
    fn run(
        &mut self,
        document: &Element,
        resolver: Option<&mut Resolver<'_>>,
    ) -> (FilterOutcome, usize) {
        self.stats.documents += 1;
        let (mut matched, mut active) = match &mut self.index {
            Index::Naive(tables) => {
                self.stats.naive_documents += 1;
                tables.simple_stage(document)
            }
            Index::Staged { stages, .. } => {
                let probes_before = stages.prefilter.condition_probes;
                let stage = stages.simple_stage(document);
                self.stats.condition_probes += stages.prefilter.condition_probes - probes_before;
                stage
            }
        };
        active.sort_unstable();
        active.dedup();

        let mut calls = 0usize;
        if !active.is_empty() {
            // Some complex subscription is active: materialise and evaluate.
            let materialised = resolver.map(|resolver| {
                let mut materialised = document.clone();
                // A failing call ends materialisation, but the calls before
                // it were made and their results merged into the document the
                // patterns now see: count each where it succeeds.
                let _ = materialize(&mut materialised, &mut |call| {
                    let results = resolver(call)?;
                    calls += 1;
                    Ok(results)
                });
                materialised
            });
            self.stats.service_calls_made += calls as u64;
            let document = materialised.as_ref().unwrap_or(document);
            self.stats.complex_stage_entered += 1;
            self.stats.complex_evaluations += active.len() as u64;
            matched.extend(match &mut self.index {
                Index::Naive(tables) => tables.complex_stage(document, &active),
                Index::Staged { stages, .. } => stages.complex_stage(document, &active),
            });
        } else if resolver.is_some() {
            // No complex subscription cares: the service calls are avoided.
            self.stats.service_calls_avoided += ServiceCall::find_in(document).len() as u64;
        }

        matched.sort_unstable();
        matched.dedup();
        if !matched.is_empty() {
            self.stats.documents_matched += 1;
        }
        if let Index::Naive(tables) = &mut self.index {
            if tables.observe() {
                // Promotion: build the staged index from the whole database
                // and drop the scan tables.
                self.index = Index::Staged {
                    stages: StagedIndex::build(&self.subscriptions),
                    demote_below: (self.len() as f64 * DEMOTE_FRACTION) as usize,
                };
                self.stats.promotions += 1;
            }
        }
        (
            FilterOutcome {
                matched,
                active_complex: active,
            },
            calls,
        )
    }

    /// Filters a batch of documents, running the three stages once per
    /// *distinct* document: identical documents share a single pass, which is
    /// what amortizes per-tick batched alert dispatch — a peer whose inbox
    /// holds the same alert for many subscriptions pays for one engine
    /// evaluation.  Duplicates are detected by hashing the trees directly
    /// (no serialization) and share their outcome by index instead of cloning
    /// it; read per-input results through [`BatchOutcome::outcome`].
    pub fn match_batch(&mut self, docs: &[&Element]) -> BatchOutcome {
        let mut outcomes: Vec<FilterOutcome> = Vec::new();
        let mut index: Vec<usize> = Vec::with_capacity(docs.len());
        let mut first_seen: HashMap<&Element, usize> = HashMap::new();
        for doc in docs {
            match first_seen.get(doc).copied() {
                Some(i) => index.push(i),
                None => {
                    first_seen.insert(doc, outcomes.len());
                    index.push(outcomes.len());
                    outcomes.push(self.process(doc));
                }
            }
        }
        BatchOutcome { outcomes, index }
    }

    /// Filters a document that may contain unevaluated service calls
    /// (`sc` elements).  `resolver` performs the remote call on demand.
    ///
    /// The optimisation of Section 4: the simple conditions are checked on
    /// the root attributes *before* any service call; if no complex
    /// subscription remains active, the (possibly expensive) call is avoided
    /// entirely.  Returns the outcome together with the number of calls made.
    /// The avoidance works in every engine mode.
    pub fn process_intensional(
        &mut self,
        document: &Element,
        resolver: &mut Resolver<'_>,
    ) -> (FilterOutcome, usize) {
        let resolver = ServiceCall::document_is_intensional(document).then_some(resolver);
        self.run(document, resolver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_streams::AttrCondition;
    use p2pmon_xmlkit::path::CompareOp;
    use p2pmon_xmlkit::{parse, PathPattern};

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
            .with_complex(vec![PathPattern::parse(pattern).unwrap()])
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
        engine
            .add(FilterSubscription::new(2).with_complex(vec![PathPattern::parse("//x").unwrap()]));
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
        // Regression: the cost model reads aes_node_count/yfilter_state_count,
        // so unsubscribing must shrink them, not leave stale structure.
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
        let yf_before = engine.yfilter_state_count();
        for i in 5..10 {
            assert!(engine.remove(SubscriptionId(i)));
        }
        assert!(
            engine.aes_node_count() < aes_before,
            "AES tree must shrink: {} !< {}",
            engine.aes_node_count(),
            aes_before
        );
        assert!(
            engine.yfilter_state_count() < yf_before,
            "automaton must shrink: {} !< {}",
            engine.yfilter_state_count(),
            yf_before
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
                    PathPattern::parse("//a").unwrap(),
                    PathPattern::parse("//b").unwrap(),
                ]),
        );
        // Pad with enough other complex subscriptions to push the engine into
        // the shared-automaton path.
        for i in 10..20 {
            engine.add(sub_complex(i, "k", "v", "//zzz"));
        }
        let both = parse(r#"<r k="v"><a/><b/></r>"#).unwrap();
        let only_a = parse(r#"<r k="v"><a/></r>"#).unwrap();
        assert!(engine.process(&both).matched.contains(&SubscriptionId(9)));
        assert!(!engine.process(&only_a).matched.contains(&SubscriptionId(9)));
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
                .with_complex(vec![PathPattern::parse("//city[text()=\"Orsay\"]").unwrap()]),
            FilterSubscription::new(6).with_simple(vec![AttrCondition::new(
                "dur",
                CompareOp::Gt,
                "10",
            )]),
        ];
        let mut engine = FilterEngine::from_subscriptions(subs.clone());
        let mut adaptive = FilterEngine::adaptive();
        adaptive.add_all(subs.clone());
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
            let mut c = adaptive.process(&doc).matched;
            a.sort();
            b.sort();
            c.sort();
            assert_eq!(a, b, "staged disagreement on {d}");
            assert_eq!(c, b, "adaptive disagreement on {d}");
        }
    }

    /// An adaptive engine over `n` subscriptions with pairwise distinct
    /// conditions, so the scan pays one evaluation per subscription.
    fn adaptive_over_distinct_conditions(n: u64) -> FilterEngine {
        let mut engine = FilterEngine::adaptive();
        for i in 0..n {
            engine.add(sub_simple(i, "k", &format!("v{i}")));
        }
        engine
    }

    #[test]
    fn adaptive_engine_promotes_past_break_even() {
        // 200 work units per document against 1.25 × (32 + 0.5 × 200) = 165:
        // the model is convinced as soon as it may decide, on document 8.
        let mut engine = adaptive_over_distinct_conditions(200);
        assert_eq!(engine.mode(), EngineMode::Naive);
        assert_eq!(engine.aes_node_count(), 0, "no staged structure yet");
        let doc = parse(r#"<r k="v1"/>"#).unwrap();
        for n in 1..=12 {
            assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(1)]);
            let expected = if n < 8 {
                EngineMode::Naive
            } else {
                EngineMode::Staged
            };
            assert_eq!(engine.mode(), expected, "after document {n}");
        }
        assert_eq!(engine.stats.promotions, 1);
        assert_eq!(engine.stats.naive_documents, 8);
        assert!(engine.aes_node_count() > 0);
        assert_eq!(engine.naive_cost_ewma(), 0.0, "nothing left to measure");
    }

    #[test]
    fn adaptive_engine_stays_naive_below_break_even() {
        // 40 work units per document against 1.25 × (32 + 0.5 × 40) = 65.
        let mut engine = adaptive_over_distinct_conditions(40);
        let doc = parse(r#"<r k="v1"/>"#).unwrap();
        for _ in 0..64 {
            assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(1)]);
        }
        assert_eq!(engine.mode(), EngineMode::Naive);
        assert_eq!(engine.stats.promotions, 0);
        assert_eq!(engine.stats.naive_documents, 64);
        assert_eq!(engine.naive_cost_ewma(), 40.0);
        assert_eq!(engine.staged_estimate(), 52.0);
    }

    #[test]
    fn adaptive_engine_demotes_on_remove_hysteresis() {
        let mut engine = adaptive_over_distinct_conditions(200);
        let doc = parse(r#"<r k="v150"/>"#).unwrap();
        for _ in 0..8 {
            engine.process(&doc);
        }
        assert_eq!(engine.mode(), EngineMode::Staged);
        // Dropping to 100 subscriptions (not < 200·0.5) keeps the engine
        // staged; one more removal crosses the hysteresis.
        for i in 0..100 {
            engine.remove(SubscriptionId(i));
        }
        assert_eq!(engine.mode(), EngineMode::Staged);
        assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(150)]);
        engine.remove(SubscriptionId(100));
        assert_eq!(engine.mode(), EngineMode::Naive);
        assert_eq!(engine.stats.demotions, 1);
        assert_eq!(engine.aes_node_count(), 0);
        // The demoted engine still matches correctly, and holds exactly the
        // survivors.
        assert_eq!(engine.process(&doc).matched, vec![SubscriptionId(150)]);
        let gone = parse(r#"<r k="v100"/>"#).unwrap();
        assert!(engine.process(&gone).matched.is_empty());
        assert_eq!(engine.staged_estimate(), 32.0 + 0.5 * 99.0);
    }

    #[test]
    fn non_adaptive_engine_never_changes_mode() {
        let mut engine = FilterEngine::new();
        for i in 0..100 {
            engine.add(sub_simple(i, "k", &format!("v{i}")));
        }
        let doc = parse(r#"<r k="v1"/>"#).unwrap();
        for _ in 0..20 {
            engine.process(&doc);
        }
        assert_eq!(engine.mode(), EngineMode::Staged);
        assert_eq!(engine.stats.promotions, 0);
        assert_eq!(engine.stats.naive_documents, 0);
    }

    #[test]
    fn intensional_documents_avoid_service_calls_when_simple_conditions_fail() {
        let mut engine = FilterEngine::new();
        // The paper's example: attr1="x" and attr2="z" and //c/d.
        engine.add(
            FilterSubscription::new(1)
                .with_simple(vec![
                    AttrCondition::new("attr1", CompareOp::Eq, "x"),
                    AttrCondition::new("attr2", CompareOp::Eq, "z"),
                ])
                .with_complex(vec![PathPattern::parse("//c/d").unwrap()]),
        );
        let doc = parse(
            r#"<root attr1="x" attr2="y"><sc service="storage" address="site"><parameters/></sc></root>"#,
        )
        .unwrap();
        let mut calls = 0usize;
        let (outcome, made) = engine.process_intensional(&doc, &mut |_| {
            calls += 1;
            Ok(vec![parse("<c><d/></c>").unwrap()])
        });
        assert!(outcome.matched.is_empty());
        assert_eq!(made, 0, "attr2 failed, the storage call must be avoided");
        assert_eq!(calls, 0);
        assert_eq!(engine.stats.service_calls_avoided, 1);
    }

    #[test]
    fn intensional_avoidance_works_in_naive_mode_too() {
        let mut engine = FilterEngine::adaptive();
        engine.add(
            FilterSubscription::new(1)
                .with_simple(vec![AttrCondition::new("attr1", CompareOp::Eq, "x")])
                .with_complex(vec![PathPattern::parse("//c/d").unwrap()]),
        );
        assert_eq!(engine.mode(), EngineMode::Naive);
        let miss = parse(
            r#"<root attr1="no"><sc service="storage" address="site"><parameters/></sc></root>"#,
        )
        .unwrap();
        let (outcome, made) =
            engine.process_intensional(&miss, &mut |_| panic!("resolver must not be called"));
        assert!(outcome.matched.is_empty());
        assert_eq!(made, 0);
        assert_eq!(engine.stats.service_calls_avoided, 1);
        let hit = parse(
            r#"<root attr1="x"><sc service="storage" address="site"><parameters/></sc></root>"#,
        )
        .unwrap();
        let (outcome, made) =
            engine.process_intensional(&hit, &mut |_| Ok(vec![parse("<c><d/></c>").unwrap()]));
        assert_eq!(outcome.matched, vec![SubscriptionId(1)]);
        assert_eq!(made, 1);
    }

    #[test]
    fn intensional_documents_materialise_when_needed() {
        let mut engine = FilterEngine::new();
        engine.add(
            FilterSubscription::new(1)
                .with_simple(vec![AttrCondition::new("attr1", CompareOp::Eq, "x")])
                .with_complex(vec![PathPattern::parse("//c/d").unwrap()]),
        );
        let doc = parse(
            r#"<root attr1="x"><sc service="storage" address="site"><parameters/></sc></root>"#,
        )
        .unwrap();
        let (outcome, made) =
            engine.process_intensional(&doc, &mut |_| Ok(vec![parse("<c><d/></c>").unwrap()]));
        assert_eq!(outcome.matched, vec![SubscriptionId(1)]);
        assert_eq!(made, 1);
        assert_eq!(engine.stats.service_calls_made, 1);
    }

    #[test]
    fn a_resolver_failing_part_way_keeps_the_calls_already_made() {
        let mut engine = FilterEngine::new();
        engine.add(sub_complex(1, "attr1", "x", "//c/d"));
        engine.add(sub_complex(2, "attr1", "x", "//never"));
        let sc = r#"<sc service="storage" address="site"><parameters/></sc>"#;
        let doc = parse(&format!(r#"<root attr1="x">{sc}{sc}{sc}</root>"#)).unwrap();
        let mut asked = 0usize;
        let (outcome, made) = engine.process_intensional(&doc, &mut |_| {
            asked += 1;
            if asked == 2 {
                return Err("service unreachable".into());
            }
            Ok(vec![parse("<c><d/></c>").unwrap()])
        });
        assert_eq!(asked, 2, "materialisation stops at the failure");
        assert_eq!(made, 1, "the first call was made and merged");
        assert_eq!(engine.stats.service_calls_made, 1);
        assert_eq!(outcome.matched, vec![SubscriptionId(1)]);
        assert_eq!(
            outcome.active_complex,
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
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
                    .with_complex(vec![PathPattern::parse("//item/enclosure").unwrap()]),
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
            service_calls_made: 1,
            service_calls_avoided: 4,
            naive_documents: 2,
            promotions: 1,
            demotions: 1,
            condition_probes: 7,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.documents, 6);
        assert_eq!(b.complex_evaluations, 10);
        assert_eq!(b.service_calls_avoided, 8);
        assert_eq!(b.naive_documents, 4);
        assert_eq!(b.promotions, 2);
        assert_eq!(b.demotions, 2);
        assert_eq!(b.condition_probes, 14);
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
