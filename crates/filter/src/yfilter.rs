//! YFilterσ: a shared NFA over linear path queries.
//!
//! YFilter (Diao, Fischer, Franklin, To — ICDE 2002) indexes a large set of
//! path queries in a single non-deterministic automaton that shares the
//! common *prefixes* of the queries: `/a/b/c` and `/a/b/d` share the states
//! for `/a/b`.  Matching a document costs one traversal of the document with
//! a set of active states, independent of how many queries share each prefix.
//!
//! The variant used by P2P Monitor, YFilterσ, is additionally *pruned per
//! document*: only the subscriptions whose simple conditions passed the AES
//! stage are of interest, so accepts for other queries are suppressed (and
//! when the active set is tiny, the engine skips the automaton entirely and
//! evaluates the few patterns directly — see `FilterEngine`).
//!
//! Differences from the original YFilter, documented for reviewers:
//!
//! * value predicates on a step are part of the transition (two queries share
//!   a prefix only when both the name tests *and* the predicates coincide);
//!   this keeps matching exact at a small cost in sharing;
//! * `//` is implemented with explicit self-loop states reached by an
//!   ε-closure, the standard NFA encoding.
//!
//! Queries also *leave*: every state counts the live queries whose path
//! passes through it, so [`YFilter::remove`] walks the removed query's own
//! steps, unlinks the first state nobody else reaches and hands that suffix
//! to a free list — O(|pattern|), like registration.
//!
//! Hot-path engineering: transition tables are keyed by interned QName
//! [`Symbol`]s (hashed once per *element*, not once per active state), with a
//! Fibonacci-multiply hasher — the per-state lookup is integer arithmetic,
//! never a string comparison.  The per-document accept pruning takes a
//! *sorted* allowed list and binary-searches it, so pruned matching costs
//! `O(accepts · log |active|)` instead of the former linear scan.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use p2pmon_xmlkit::intern::{intern, Symbol};
use p2pmon_xmlkit::path::{Axis, NameTest};
use p2pmon_xmlkit::pattern::{PathPattern, ValuePredicate};
use p2pmon_xmlkit::Element;

/// Index of a registered query.
pub type QueryIdx = usize;

/// A Fibonacci-multiply hasher for interned symbols: symbol ids are small and
/// dense, so multiplying by the 64-bit golden-ratio constant spreads them
/// over the table bits far more cheaply than SipHash.
#[derive(Default)]
pub struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only used via write_u32 on symbol ids; fold arbitrary bytes anyway
        // so the hasher stays correct for any key type.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymbolHasher>>;

/// A transition of the NFA.
#[derive(Debug, Clone)]
struct Transition {
    predicate: Option<ValuePredicate>,
    target: usize,
}

/// One NFA state.
#[derive(Debug, Clone, Default)]
struct State {
    /// Transitions indexed by the interned symbol of the element name.
    by_name: SymbolMap<Vec<Transition>>,
    /// Wildcard (`*`) transitions.
    wildcard: Vec<Transition>,
    /// ε-successor implementing the descendant axis: a state with
    /// `self_loop = true` from which the next step's transition departs.
    descendant: Option<usize>,
    /// True for `//`-states: the state stays active for every descendant.
    self_loop: bool,
    /// Queries accepted when this state is reached.
    accepts: Vec<QueryIdx>,
    /// Live queries whose path passes through this state.  Every query
    /// through a state passes through its parent, so the count never grows
    /// along a path.  (The start state is on every path and is not counted.)
    refs: u32,
}

/// How a state on a query's path hangs off its parent.
#[derive(Debug, Clone, Copy)]
enum Link {
    /// The parent's `//` ε-successor.
    Descendant,
    /// The parent's transition for the name test and predicate of this step.
    Step(usize),
}

/// Stores `value` in a freed slot if there is one, at the end otherwise;
/// returns where.
fn place<T>(slots: &mut Vec<T>, free: &mut Vec<usize>, value: T) -> usize {
    match free.pop() {
        Some(slot) => {
            slots[slot] = value;
            slot
        }
        None => {
            slots.push(value);
            slots.len() - 1
        }
    }
}

/// The shared path-query automaton.
#[derive(Debug, Clone)]
pub struct YFilter {
    states: Vec<State>,
    /// Released state slots, reused by `new_state`.
    free_states: Vec<usize>,
    /// Dense by query index; a removed query's slot keeps its pattern until
    /// `add` reuses it.
    queries: Vec<PathPattern>,
    /// Removed query indices, reused by `add`.
    free_queries: Vec<QueryIdx>,
    /// Number of state-set expansions performed, a work measure for E4.
    pub expansions: u64,
    /// Number of states created (or re-created in a freed slot) so far: the
    /// difference across an adjustment is what it cost.  Removal builds none.
    pub states_built: u64,
}

impl Default for YFilter {
    fn default() -> Self {
        YFilter::new()
    }
}

impl YFilter {
    /// Creates an empty automaton (state 0 is the start state).
    pub fn new() -> Self {
        YFilter {
            states: vec![State::default()],
            free_states: Vec::new(),
            queries: Vec::new(),
            free_queries: Vec::new(),
            expansions: 0,
            states_built: 0,
        }
    }

    /// Builds an automaton over a set of patterns.
    pub fn from_patterns(patterns: impl IntoIterator<Item = PathPattern>) -> Self {
        let mut yf = YFilter::new();
        for p in patterns {
            yf.add(p);
        }
        yf
    }

    /// Number of registered (live) queries.
    pub fn query_count(&self) -> usize {
        self.queries.len() - self.free_queries.len()
    }

    /// Number of live NFA states — the sharing measure: with heavily
    /// overlapping queries this grows much more slowly than the total number
    /// of steps, and it shrinks when queries are removed.
    pub fn state_count(&self) -> usize {
        self.states.len() - self.free_states.len()
    }

    /// The patterns by query index.  The slice is dense: the slot of a
    /// removed query holds its old pattern until [`YFilter::add`] reuses it.
    pub fn queries(&self) -> &[PathPattern] {
        &self.queries
    }

    /// Registers a pattern and returns its query index (a slot a removal
    /// freed, if there is one).
    pub fn add(&mut self, pattern: PathPattern) -> QueryIdx {
        let mut current = 0usize;
        for step in &pattern.steps {
            // Descendant axis: go through (or create) the self-loop state.
            if step.axis == Axis::Descendant {
                current = match self.states[current].descendant {
                    Some(d) => d,
                    None => {
                        let d = self.new_state(true);
                        self.states[current].descendant = Some(d);
                        d
                    }
                };
                self.states[current].refs += 1;
            }
            current = self.transition_target(current, &step.name, &step.predicate);
            self.states[current].refs += 1;
        }
        let idx = place(&mut self.queries, &mut self.free_queries, pattern);
        self.states[current].accepts.push(idx);
        idx
    }

    /// Unregisters a query in O(|pattern|); returns whether it was
    /// registered.  The states only this query reached are released for
    /// reuse, so [`YFilter::state_count`] reads what a fresh automaton over
    /// the surviving queries would.
    pub fn remove(&mut self, idx: QueryIdx) -> bool {
        // The query's own path, as (parent, link, state) per state entered.
        let Some(pattern) = self.queries.get(idx) else {
            return false;
        };
        let mut path: Vec<(usize, Link, usize)> = Vec::with_capacity(2 * pattern.steps.len());
        let mut current = 0usize;
        for (i, step) in pattern.steps.iter().enumerate() {
            if step.axis == Axis::Descendant {
                let Some(d) = self.states[current].descendant else {
                    return false;
                };
                path.push((current, Link::Descendant, d));
                current = d;
            }
            let Some(target) = self.find_transition(current, &step.name, &step.predicate) else {
                return false;
            };
            path.push((current, Link::Step(i), target));
            current = target;
        }
        // A freed slot's pattern may still spell a live path: the accept
        // list is what says the query itself is registered.
        let accepts = &mut self.states[current].accepts;
        let Some(pos) = accepts.iter().position(|&q| q == idx) else {
            return false;
        };
        accepts.swap_remove(pos);
        for &(_, _, state) in &path {
            self.states[state].refs -= 1;
        }
        // Counts never grow along a path, so the states nobody else reaches
        // are a suffix of it: unlink the first from its parent, release all.
        if let Some(first) = path.iter().position(|&(_, _, s)| self.states[s].refs == 0) {
            let (parent, link, dead) = path[first];
            match link {
                Link::Descendant => self.states[parent].descendant = None,
                Link::Step(i) => {
                    let parent = &mut self.states[parent];
                    match &self.queries[idx].steps[i].name {
                        NameTest::Name(n) => {
                            let sym = intern(n);
                            let transitions = parent
                                .by_name
                                .get_mut(&sym)
                                .expect("the walk found this transition");
                            transitions.retain(|t| t.target != dead);
                            if transitions.is_empty() {
                                parent.by_name.remove(&sym);
                            }
                        }
                        NameTest::Wildcard => parent.wildcard.retain(|t| t.target != dead),
                    }
                }
            }
            for &(_, _, state) in &path[first..] {
                debug_assert_eq!(self.states[state].refs, 0, "dead states form a suffix");
                self.states[state] = State::default();
                self.free_states.push(state);
            }
        }
        self.free_queries.push(idx);
        true
    }

    fn new_state(&mut self, self_loop: bool) -> usize {
        self.states_built += 1;
        let state = State {
            self_loop,
            ..State::default()
        };
        place(&mut self.states, &mut self.free_states, state)
    }

    /// The target of the transition for (name test, predicate) out of `from`,
    /// if one exists.
    fn find_transition(
        &self,
        from: usize,
        name: &NameTest,
        predicate: &Option<ValuePredicate>,
    ) -> Option<usize> {
        let transitions = match name {
            NameTest::Name(n) => self.states[from].by_name.get(&intern(n))?,
            NameTest::Wildcard => &self.states[from].wildcard,
        };
        transitions
            .iter()
            .find(|t| &t.predicate == predicate)
            .map(|t| t.target)
    }

    /// Finds or creates the transition for (name test, predicate) out of
    /// `from`, returning the target state.  Name tests are interned here, so
    /// every document name that could ever match is in the interner table.
    fn transition_target(
        &mut self,
        from: usize,
        name: &NameTest,
        predicate: &Option<ValuePredicate>,
    ) -> usize {
        // Look for an existing, shareable transition.
        if let Some(target) = self.find_transition(from, name, predicate) {
            return target;
        }
        let target = self.new_state(false);
        let transition = Transition {
            predicate: predicate.clone(),
            target,
        };
        match name {
            NameTest::Name(n) => self.states[from]
                .by_name
                .entry(intern(n))
                .or_default()
                .push(transition),
            NameTest::Wildcard => self.states[from].wildcard.push(transition),
        }
        target
    }

    /// ε-closure: a state plus its descendant self-loop state.
    fn close_into(&self, state: usize, set: &mut Vec<usize>) {
        if !set.contains(&state) {
            set.push(state);
        }
        if let Some(d) = self.states[state].descendant {
            if !set.contains(&d) {
                set.push(d);
            }
        }
    }

    /// Matches a document against every registered query; returns the sorted,
    /// deduplicated indices of matching queries.
    pub fn matching_queries(&mut self, document: &Element) -> Vec<QueryIdx> {
        self.matching_queries_filtered(document, None)
    }

    /// Matches a document, reporting only queries present in `allowed` (the
    /// per-document pruning of YFilterσ).  `None` means "all".  The allowed
    /// list must be **sorted ascending** — it is binary-searched per accept.
    pub fn matching_queries_filtered(
        &mut self,
        document: &Element,
        allowed: Option<&[QueryIdx]>,
    ) -> Vec<QueryIdx> {
        debug_assert!(
            allowed.is_none_or(|list| list.windows(2).all(|w| w[0] < w[1])),
            "allowed query list must be sorted and deduplicated"
        );
        let mut initial = Vec::new();
        self.close_into(0, &mut initial);
        let mut matches = Vec::new();
        self.visit(document, &initial, allowed, &mut matches);
        matches.sort_unstable();
        matches.dedup();
        matches
    }

    fn visit(
        &mut self,
        element: &Element,
        active: &[usize],
        allowed: Option<&[QueryIdx]>,
        matches: &mut Vec<QueryIdx>,
    ) {
        // Compute the successor state set for this element.  The element's
        // name is resolved to a symbol ONCE; a lookup miss proves no name
        // test anywhere mentions this name (pattern compilation interns every
        // name test), so only wildcard transitions can apply.
        self.expansions += 1;
        let name_sym = element.name_symbol();
        let mut next: Vec<usize> = Vec::new();
        for &s in active {
            let state = &self.states[s];
            if state.self_loop {
                // `//` state stays active below this element.
                if !next.contains(&s) {
                    next.push(s);
                }
            }
            let follow = |transitions: &[Transition], next: &mut Vec<usize>| {
                for t in transitions {
                    let pred_ok = t
                        .predicate
                        .as_ref()
                        .map(|p| p.eval(element))
                        .unwrap_or(true);
                    if pred_ok && !next.contains(&t.target) {
                        next.push(t.target);
                    }
                }
            };
            if let Some(ts) = name_sym.and_then(|sym| state.by_name.get(&sym)) {
                follow(ts, &mut next);
            }
            follow(&state.wildcard, &mut next);
        }
        // ε-closure of the successor set and accept collection.
        let mut closed = Vec::with_capacity(next.len() * 2);
        for s in next {
            self.close_into(s, &mut closed);
        }
        for &s in &closed {
            for &q in &self.states[s].accepts {
                let keep = match allowed {
                    Some(list) => list.binary_search(&q).is_ok(),
                    None => true,
                };
                if keep {
                    matches.push(q);
                }
            }
        }
        if closed.is_empty() {
            return;
        }
        for child in element.child_elements() {
            self.visit(child, &closed, allowed, matches);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn build(queries: &[&str]) -> YFilter {
        YFilter::from_patterns(queries.iter().map(|q| PathPattern::parse(q).unwrap()))
    }

    #[test]
    fn absolute_and_descendant_queries() {
        let mut yf = build(&["/rss/channel/item", "//item/title", "/rss/missing"]);
        let doc = parse("<rss><channel><item><title>x</title></item></channel></rss>").unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0, 1]);
    }

    #[test]
    fn wildcard_queries() {
        let mut yf = build(&["/a/*/c", "/a/b/*"]);
        let doc = parse("<a><b><c/></b></a>").unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0, 1]);
        let doc2 = parse("<a><b><d/></b></a>").unwrap();
        assert_eq!(yf.matching_queries(&doc2), vec![1]);
    }

    #[test]
    fn predicates_on_steps() {
        let mut yf = build(&[
            r#"//alert[@method="GetTemperature"]"#,
            r#"//alert[@method="GetHumidity"]"#,
            "//alert",
        ]);
        let doc = parse(r#"<root><alert method="GetTemperature"/></root>"#).unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0, 2]);
    }

    #[test]
    fn double_descendant_and_deep_nesting() {
        let mut yf = build(&["//b//d", "//d//b"]);
        let doc = parse("<a><b><c><d/></c></b></a>").unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0]);
    }

    #[test]
    fn root_element_is_matchable_by_first_step() {
        let mut yf = build(&["/alert/body", "//alert"]);
        let doc = parse("<alert><body/></alert>").unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0, 1]);
    }

    #[test]
    fn prefix_sharing_reduces_state_count() {
        // 100 queries /a/b/c0 .. /a/b/c99 share the /a/b prefix: expect about
        // 2 shared states + 100 leaf states rather than 300 states.
        let queries: Vec<String> = (0..100).map(|i| format!("/a/b/c{i}")).collect();
        let yf = YFilter::from_patterns(queries.iter().map(|q| PathPattern::parse(q).unwrap()));
        assert_eq!(yf.query_count(), 100);
        assert!(
            yf.state_count() <= 103,
            "expected prefix sharing, got {} states",
            yf.state_count()
        );
    }

    #[test]
    fn filtered_matching_prunes_accepts() {
        let mut yf = build(&["//a", "//b", "//c"]);
        let doc = parse("<r><a/><b/><c/></r>").unwrap();
        assert_eq!(yf.matching_queries(&doc), vec![0, 1, 2]);
        assert_eq!(yf.matching_queries_filtered(&doc, Some(&[1])), vec![1]);
        assert!(yf.matching_queries_filtered(&doc, Some(&[])).is_empty());
    }

    #[test]
    fn unparsed_documents_with_uninterned_names_still_match_wildcards() {
        // Build a document programmatically (never through the tokenizer)
        // with a name no pattern mentions: name tests must not match it, but
        // wildcards must.
        let mut yf = build(&["/*/inner", "//inner"]);
        let mut root = Element::new("completely-uninterned-root-name");
        root.push_element(Element::new("inner"));
        assert_eq!(yf.matching_queries(&root), vec![0, 1]);
        let mut named = build(&["/completely-absent-name/x"]);
        assert!(named.matching_queries(&root).is_empty());
    }

    #[test]
    fn agrees_with_naive_pattern_matching() {
        let queries = [
            "/log/entry/error",
            "//error",
            "//entry[@level=\"warn\"]",
            "/log//message",
            "//entry/*",
            "/log/entry[@level=\"info\"]/message",
        ];
        let docs = [
            r#"<log><entry level="info"><message>ok</message></entry></log>"#,
            r#"<log><entry level="warn"><error>bad</error></entry></log>"#,
            r#"<log><other/></log>"#,
            r#"<audit><error/></audit>"#,
        ];
        let patterns: Vec<PathPattern> = queries
            .iter()
            .map(|q| PathPattern::parse(q).unwrap())
            .collect();
        let mut yf = YFilter::from_patterns(patterns.clone());
        for doc_src in docs {
            let doc = parse(doc_src).unwrap();
            let nfa: Vec<usize> = yf.matching_queries(&doc);
            let naive: Vec<usize> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| p.matches(&doc))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(nfa, naive, "mismatch on {doc_src}");
        }
    }

    #[test]
    fn text_predicate() {
        let mut yf = build(&["//price[text() > 100]"]);
        let expensive = parse("<order><price>250</price></order>").unwrap();
        let cheap = parse("<order><price>50</price></order>").unwrap();
        assert_eq!(yf.matching_queries(&expensive), vec![0]);
        assert!(yf.matching_queries(&cheap).is_empty());
    }
}
