//! The AESFilter: the Atomic Event Set hash-tree.
//!
//! The AES algorithm (Nguyen, Abiteboul, Cobena, Preda — SIGMOD 2001) assumes
//! a total order over the simple conditions.  Each subscription's simple
//! conditions, sorted in that order, form a *prefix path* inserted into a
//! hash-tree: the root hash-table `H` has one entry per condition that starts
//! some subscription; the entry for `Cᵢ₁` may point to a table `Hᵢ₁` holding
//! the conditions that follow `Cᵢ₁` in some subscription, and so on.  A cell
//! is *marked* with the subscriptions whose last simple condition it is.
//!
//! Matching feeds the ordered list of conditions satisfied by a document
//! through the tree: from every visited table, every satisfied condition that
//! has an entry is followed (the satisfied list is a super-sequence of the
//! subscription prefixes we are looking for).  Every marking encountered is a
//! subscription whose simple part is fully satisfied: if the subscription is
//! *simple* it is an immediate match, otherwise it becomes *active* and its
//! tree-pattern part still has to be checked by YFilterσ.
//!
//! As shown in \[15\], the cost of a match is governed by the number of
//! conditions the document satisfies (small) rather than by the number of
//! registered subscriptions (huge) — experiment E3 reproduces that claim
//! against a linear-scan baseline.

use std::collections::HashMap;

use crate::prefilter::ConditionId;
use crate::subscription::SubscriptionId;

/// One node of the hash-tree: a hash table from the next condition id to the
/// child node, plus the markings of subscriptions ending here.
#[derive(Debug, Clone, Default)]
struct HashTreeNode {
    children: HashMap<ConditionId, HashTreeNode>,
    /// Simple subscriptions whose (entire) condition set ends at this cell.
    matched_simple: Vec<SubscriptionId>,
    /// Complex subscriptions whose *simple prefix* ends at this cell.
    activated_complex: Vec<SubscriptionId>,
}

/// The result of feeding one document's satisfied conditions through the
/// hash-tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AesMatch {
    /// Simple subscriptions fully matched by the document.
    pub matched_simple: Vec<SubscriptionId>,
    /// Complex subscriptions whose simple conditions are all satisfied; their
    /// tree-pattern part must still be evaluated.
    pub active_complex: Vec<SubscriptionId>,
}

/// The AES hash-tree over the simple-condition prefixes of all subscriptions.
#[derive(Debug, Clone, Default)]
pub struct AesFilter {
    root: HashTreeNode,
    /// Number of registered subscription paths.
    registered: usize,
    /// Nodes visited by match calls (statistic for E3).
    pub nodes_visited: u64,
}

impl AesFilter {
    /// Creates an empty hash-tree.
    pub fn new() -> Self {
        AesFilter::default()
    }

    /// Number of subscriptions inserted.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// True when no subscription has been inserted.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Inserts a subscription given its *sorted, deduplicated* simple
    /// condition ids.  `is_simple` tells whether the subscription has no
    /// complex part (so that a full prefix match is a final match).
    ///
    /// Subscriptions with an empty condition list are the caller's problem
    /// (the paper ignores them at this stage); inserting one marks the root.
    pub fn insert(&mut self, conditions: &[ConditionId], id: SubscriptionId, is_simple: bool) {
        debug_assert!(
            conditions.windows(2).all(|w| w[0] < w[1]),
            "conditions must be sorted and deduplicated"
        );
        let mut node = &mut self.root;
        for &cid in conditions {
            node = node.children.entry(cid).or_default();
        }
        if is_simple {
            node.matched_simple.push(id);
        } else {
            node.activated_complex.push(id);
        }
        self.registered += 1;
    }

    /// Removes a previously inserted subscription path, pruning hash-tree
    /// nodes that become empty so that [`AesFilter::node_count`] shrinks
    /// symmetrically with [`AesFilter::insert`].  Returns whether the
    /// marking was found.
    pub fn remove(
        &mut self,
        conditions: &[ConditionId],
        id: SubscriptionId,
        is_simple: bool,
    ) -> bool {
        fn rec(
            node: &mut HashTreeNode,
            conditions: &[ConditionId],
            id: SubscriptionId,
            is_simple: bool,
        ) -> bool {
            let Some((&first, rest)) = conditions.split_first() else {
                let list = if is_simple {
                    &mut node.matched_simple
                } else {
                    &mut node.activated_complex
                };
                return match list.iter().position(|&s| s == id) {
                    Some(pos) => {
                        list.remove(pos);
                        true
                    }
                    None => false,
                };
            };
            let Some(child) = node.children.get_mut(&first) else {
                return false;
            };
            let removed = rec(child, rest, id, is_simple);
            if removed
                && child.children.is_empty()
                && child.matched_simple.is_empty()
                && child.activated_complex.is_empty()
            {
                node.children.remove(&first);
            }
            removed
        }
        let removed = rec(&mut self.root, conditions, id, is_simple);
        if removed {
            self.registered -= 1;
        }
        removed
    }

    /// Total number of hash-tree nodes (root included), a measure of the
    /// sharing achieved between subscriptions.
    pub fn node_count(&self) -> usize {
        fn count(node: &HashTreeNode) -> usize {
            1 + node.children.values().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// Feeds the **sorted** list of satisfied conditions through the tree.
    pub fn matches(&mut self, satisfied: &[ConditionId]) -> AesMatch {
        debug_assert!(
            satisfied.windows(2).all(|w| w[0] < w[1]),
            "satisfied conditions must be sorted and deduplicated"
        );
        let mut result = AesMatch::default();
        let mut visited = 0u64;
        Self::walk(&self.root, satisfied, &mut result, &mut visited);
        self.nodes_visited += visited;
        result
    }

    fn walk(
        node: &HashTreeNode,
        satisfied: &[ConditionId],
        result: &mut AesMatch,
        visited: &mut u64,
    ) {
        *visited += 1;
        result
            .matched_simple
            .extend_from_slice(&node.matched_simple);
        result
            .active_complex
            .extend_from_slice(&node.activated_complex);
        if node.children.is_empty() {
            return;
        }
        // Subscription prefixes are ordered, so from this node we may follow
        // any satisfied condition that has an entry, continuing with the
        // *strictly later* satisfied conditions only.  Probe from whichever
        // side is smaller: a node deep in the tree usually has far fewer
        // children than the document has satisfied conditions.
        if node.children.len() < satisfied.len() {
            let mut candidates: Vec<(usize, &HashTreeNode)> = node
                .children
                .iter()
                .filter_map(|(cid, child)| satisfied.binary_search(cid).ok().map(|i| (i, child)))
                .collect();
            // Sort by position in the satisfied list so traversal order (and
            // thus result order) is identical to the satisfied-side loop.
            candidates.sort_unstable_by_key(|&(i, _)| i);
            for (i, child) in candidates {
                Self::walk(child, &satisfied[i + 1..], result, visited);
            }
        } else {
            for (i, &cid) in satisfied.iter().enumerate() {
                if let Some(child) = node.children.get(&cid) {
                    Self::walk(child, &satisfied[i + 1..], result, visited);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SubscriptionId {
        SubscriptionId(n)
    }

    /// The example of Figure 6:
    /// Q1 = C1,C2,Q'1 ; Q2 = C1,C2,Q'2 ; Q3 = C3,Q'3 ; Q4 = C1,C3,Q'4 ;
    /// Q5 = C1 ; Q6 = C1,C2,C4,Q'6.   (Condition ids: C1=0, C2=1, C3=2, C4=3.)
    fn paper_tree() -> AesFilter {
        let mut aes = AesFilter::new();
        aes.insert(&[0, 1], sid(1), false);
        aes.insert(&[0, 1], sid(2), false);
        aes.insert(&[2], sid(3), false);
        aes.insert(&[0, 2], sid(4), false);
        aes.insert(&[0], sid(5), true);
        aes.insert(&[0, 1, 3], sid(6), false);
        aes
    }

    #[test]
    fn paper_walkthrough_c1_c3() {
        // "If we suppose t satisfies C1, C3 […] AESFilter will detect Q5 as a
        // matching simple subscription and Q4, Q3 as active complex
        // subscriptions."
        let mut aes = paper_tree();
        let m = aes.matches(&[0, 2]);
        assert_eq!(m.matched_simple, vec![sid(5)]);
        let mut active = m.active_complex.clone();
        active.sort();
        assert_eq!(active, vec![sid(3), sid(4)]);
    }

    #[test]
    fn all_conditions_satisfied_activates_everything() {
        let mut aes = paper_tree();
        let m = aes.matches(&[0, 1, 2, 3]);
        assert_eq!(m.matched_simple, vec![sid(5)]);
        let mut active = m.active_complex;
        active.sort();
        assert_eq!(
            active,
            vec![sid(1), sid(2), sid(3), sid(4), sid(6)],
            "every complex subscription's prefix is satisfied"
        );
    }

    #[test]
    fn nothing_satisfied_matches_nothing() {
        let mut aes = paper_tree();
        let m = aes.matches(&[]);
        assert!(m.matched_simple.is_empty());
        assert!(m.active_complex.is_empty());
    }

    #[test]
    fn prefix_must_be_complete() {
        let mut aes = paper_tree();
        // Only C2 satisfied: Q1/Q2 need C1 first, so nothing activates.
        let m = aes.matches(&[1]);
        assert!(m.matched_simple.is_empty());
        assert!(m.active_complex.is_empty());
        // C1, C4 — Q6 needs C2 in between, so it must NOT activate.
        let m = aes.matches(&[0, 3]);
        assert_eq!(m.matched_simple, vec![sid(5)]);
        assert!(m.active_complex.is_empty());
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let aes = paper_tree();
        // Paths: [0,1] (x2 marks), [2], [0,2], [0], [0,1,3]
        // Nodes: root, 0, 0-1, 0-1-3, 0-2, 2  => 6
        assert_eq!(aes.node_count(), 6);
        assert_eq!(aes.len(), 6);
    }

    #[test]
    fn duplicate_condition_sets_mark_same_cell() {
        let mut aes = AesFilter::new();
        aes.insert(&[1, 5], sid(10), true);
        aes.insert(&[1, 5], sid(11), true);
        let m = aes.matches(&[0, 1, 3, 5, 9]);
        let mut ids = m.matched_simple;
        ids.sort();
        assert_eq!(ids, vec![sid(10), sid(11)]);
    }

    #[test]
    fn empty_condition_subscription_marks_root() {
        let mut aes = AesFilter::new();
        aes.insert(&[], sid(1), false);
        let m = aes.matches(&[]);
        assert_eq!(m.active_complex, vec![sid(1)]);
    }

    #[test]
    fn remove_prunes_nodes_and_unmarks() {
        let mut aes = paper_tree();
        assert_eq!(aes.node_count(), 6);
        // Removing Q6 ([0,1,3]) prunes the 0-1-3 leaf but keeps 0-1 (still
        // marked by Q1/Q2).
        assert!(aes.remove(&[0, 1, 3], sid(6), false));
        assert_eq!(aes.node_count(), 5);
        assert_eq!(aes.len(), 5);
        // Removing a marking that is not there is a no-op.
        assert!(!aes.remove(&[0, 1, 3], sid(6), false));
        assert!(!aes.remove(&[0, 1], sid(1), true), "wrong kind");
        assert_eq!(aes.node_count(), 5);
        // Remove everything; the tree collapses back to the root.
        assert!(aes.remove(&[0, 1], sid(1), false));
        assert!(aes.remove(&[0, 1], sid(2), false));
        assert!(aes.remove(&[2], sid(3), false));
        assert!(aes.remove(&[0, 2], sid(4), false));
        assert!(aes.remove(&[0], sid(5), true));
        assert_eq!(aes.node_count(), 1);
        assert!(aes.is_empty());
        let m = aes.matches(&[0, 1, 2, 3]);
        assert!(m.matched_simple.is_empty() && m.active_complex.is_empty());
    }

    #[test]
    fn walk_direction_heuristic_gives_identical_results() {
        // A wide root (many children) forces the satisfied-side loop at the
        // root while deep nodes take the children-side loop; results must be
        // identical to the reference evaluation either way.
        let mut aes = AesFilter::new();
        for i in 0..40usize {
            aes.insert(&[i, 40, 41, 42], sid(i as u64), true);
        }
        let satisfied: Vec<usize> = (0..43).collect();
        let m = aes.matches(&satisfied);
        let mut ids = m.matched_simple;
        ids.sort();
        assert_eq!(ids, (0..40).map(sid).collect::<Vec<_>>());
    }

    #[test]
    fn visit_count_grows_with_satisfied_set_not_subscription_count() {
        // Insert many subscriptions over a large alphabet; a document
        // satisfying only 2 conditions visits only a handful of nodes.
        let mut aes = AesFilter::new();
        for i in 0..1000u64 {
            let c = (i as usize % 50) * 2;
            aes.insert(&[c, c + 1], sid(i), true);
        }
        aes.nodes_visited = 0;
        aes.matches(&[4, 5]);
        assert!(
            aes.nodes_visited <= 4,
            "visited {} nodes, expected a handful",
            aes.nodes_visited
        );
    }
}
