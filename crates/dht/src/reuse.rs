//! The Reuse algorithm of Section 5.
//!
//! "The Reuse algorithm works on a monitoring plan, trying to find sub-plans
//! already supported by existing streams.  Reuse starts its search from the
//! sources of the monitoring stream. […] More generally, the algorithm
//! proceeds from the leaves of the monitoring plan, attempting to map nodes
//! in the plan to existing streams.  Operators that have all their operands
//! matched generate queries to the database.  The result of the queries
//! determines whether this operator will be mapped to an existing stream.
//! For a node that is matched, the algorithm searches for possible replicas
//! of the streams to substitute for that node.  The nodes that have not been
//! matched correspond to new streams that have to be produced."

use p2pmon_xmlkit::Name;

use crate::streamdef::StreamDefinitionDatabase;

/// A node of a monitoring plan, in the shape the Reuse algorithm needs: an
/// operator name, a canonical parameter digest and child nodes.  Leaves are
/// alerters at a given peer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name ("inCOM", "outCOM", "Filter", "Join", "Union", …).
    pub operator: String,
    /// Canonical digest of the operator's parameters (filter conditions, join
    /// predicate…); two operators are interchangeable only when operator,
    /// parameters and operands all coincide.
    pub parameters: String,
    /// For alerter leaves: the peer the alerter observes.  `None` for inner
    /// operators.
    pub source_peer: Option<String>,
    /// Child plan nodes (operands).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// An alerter leaf.
    pub fn alerter(operator: impl Into<String>, peer: impl Into<String>) -> Self {
        PlanNode {
            operator: operator.into(),
            parameters: String::new(),
            source_peer: Some(peer.into()),
            children: Vec::new(),
        }
    }

    /// An inner operator node.
    pub fn operator(
        operator: impl Into<String>,
        parameters: impl Into<String>,
        children: Vec<PlanNode>,
    ) -> Self {
        PlanNode {
            operator: operator.into(),
            parameters: parameters.into(),
            source_peer: None,
            children,
        }
    }

    /// Number of nodes in the plan.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }
}

/// One place where a rewritten plan attaches to an existing stream:
/// `(preorder index, original (peer, stream) identity, selected provider)`.
pub type SubscriptionPoint<'a> = (usize, &'a (String, String), &'a (String, String));

/// How one plan node was covered.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeCover {
    /// An existing stream (already published in the system) serves this node;
    /// the provider is the (peer, stream) to subscribe to — possibly a
    /// replica of the original.
    Existing {
        /// The original stream's (peer, stream) identity.
        original: (String, String),
        /// The selected provider (original or replica).
        provider: (String, String),
        /// Plan nodes the stream serves: this node and its descendants,
        /// which follow it in preorder.
        nodes: usize,
    },
    /// No existing stream covers this node: it has to be produced anew.
    New,
}

/// The outcome of running Reuse on a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverOutcome {
    /// Per plan-node coverage, indexed by the node's position in a preorder
    /// walk of the plan (the root is 0, its first child 1, …; children in
    /// plan order).
    pub covers: Vec<NodeCover>,
    /// Number of nodes covered by existing streams.
    pub reused: usize,
    /// Number of nodes that must be newly produced.
    pub new_streams: usize,
}

impl CoverOutcome {
    /// The cover decided for the plan node at a preorder index.
    pub fn cover(&self, index: usize) -> Option<&NodeCover> {
        self.covers.get(index)
    }

    /// True when the whole plan (its root) is served by an existing stream.
    pub fn root_is_reused(&self) -> bool {
        matches!(self.covers.first(), Some(NodeCover::Existing { .. }))
    }

    /// The *subscription points* of the cover: the top-most covered nodes —
    /// covered nodes whose parent is not covered (or that are the root).
    /// These are exactly the places where the rewritten plan attaches to an
    /// existing stream; nodes covered deeper inside such a subtree ride along
    /// without their own subscription.  Returns `(index, original, provider)`
    /// triples in plan order: `original` is the stream's canonical
    /// `(PeerId, StreamId)` identity (what the Stream Definition Database
    /// keys on), `provider` the replica actually subscribed to.
    pub fn subscription_points(&self) -> Vec<SubscriptionPoint<'_>> {
        let mut points = Vec::new();
        let mut at = 0;
        while let Some(cover) = self.covers.get(at) {
            match cover {
                NodeCover::Existing {
                    original,
                    provider,
                    nodes,
                } => {
                    points.push((at, original, provider));
                    at += nodes;
                }
                NodeCover::New => at += 1,
            }
        }
        points
    }
}

/// The Reuse engine: a thin driver around the Stream Definition Database.
pub struct ReuseEngine<'a> {
    db: &'a mut StreamDefinitionDatabase,
}

impl<'a> ReuseEngine<'a> {
    /// Creates a reuse engine over the database.
    pub fn new(db: &'a mut StreamDefinitionDatabase) -> Self {
        ReuseEngine { db }
    }

    /// Runs the bottom-up covering algorithm.  `proximity` gives the
    /// "network closeness" of a candidate provider peer, by interned id
    /// (lower is closer), and drives replica selection.
    pub fn cover(&mut self, plan: &PlanNode, proximity: impl Fn(Name) -> u64) -> CoverOutcome {
        let mut outcome = CoverOutcome::default();
        self.cover_node(plan, &proximity, &mut outcome);
        outcome
    }

    /// Covers one node, recording it at the next preorder index; returns
    /// the (peer, stream) of the *original* stream serving it when it is
    /// covered.
    fn cover_node(
        &mut self,
        node: &PlanNode,
        proximity: &dyn Fn(Name) -> u64,
        outcome: &mut CoverOutcome,
    ) -> Option<(String, String)> {
        let at = outcome.covers.len();
        outcome.covers.push(NodeCover::New);
        // 1. Cover the children first (leaves of the plan first).
        let mut child_streams = Vec::with_capacity(node.children.len());
        let mut all_children_covered = true;
        for child in &node.children {
            match self.cover_node(child, proximity, outcome) {
                Some(stream) => child_streams.push(stream),
                None => all_children_covered = false,
            }
        }

        // 2. Query the database for this node.
        let found = if let Some(peer) = &node.source_peer {
            // Alerter leaf: /Stream[@PeerId=$p][Operator/<alerter>]
            self.db
                .find_alerter_streams(peer, &node.operator)
                .first()
                .map(|d| (d.peer_id.clone(), d.stream_id.clone()))
        } else if all_children_covered {
            // Inner operator: all operands matched, so ask whether someone
            // already computes this operator over those very streams.
            self.db
                .find_derived_streams(&node.operator, &node.parameters, &child_streams)
                .first()
                .map(|d| (d.peer_id.clone(), d.stream_id.clone()))
        } else {
            None
        };

        match found {
            Some(original) => {
                // 3. Replica selection for the matched node.
                let provider = self.db.select_provider(&original.0, &original.1, proximity);
                outcome.covers[at] = NodeCover::Existing {
                    original: original.clone(),
                    provider,
                    nodes: outcome.covers.len() - at,
                };
                outcome.reused += 1;
                Some(original)
            }
            None => {
                outcome.new_streams += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordNetwork;
    use crate::streamdef::{ReplicaDeclaration, StreamDefinition};

    fn database_with_meteo_streams() -> StreamDefinitionDatabase {
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 5));
        // s1@p1: alerter on incoming calls at p1; s2@p2: out-calls at p2.
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        db.publish(StreamDefinition::source("p2", "s2", "outCOM"));
        // s3@p1: a filter over s1.
        db.publish(StreamDefinition::derived(
            "p1",
            "s3",
            "Filter",
            "F",
            vec![("p1".into(), "s1".into())],
        ));
        db
    }

    /// The plan of Section 5:  ⋈P(σF(inCOM@p1), outCOM@p2).
    fn section5_plan() -> PlanNode {
        PlanNode::operator(
            "Join",
            "P",
            vec![
                PlanNode::operator("Filter", "F", vec![PlanNode::alerter("inCOM", "p1")]),
                PlanNode::alerter("outCOM", "p2"),
            ],
        )
    }

    #[test]
    fn leaves_and_filter_are_reused_join_is_new() {
        let mut db = database_with_meteo_streams();
        let mut engine = ReuseEngine::new(&mut db);
        let outcome = engine.cover(&section5_plan(), |_| 10);
        // inCOM@p1 → s1@p1 ; Filter(F) over s1 → s3@p1 ; outCOM@p2 → s2@p2 ;
        // Join not yet published → New.
        assert_eq!(outcome.reused, 3);
        assert_eq!(outcome.new_streams, 1);
        assert!(!outcome.root_is_reused());
        match outcome.cover(1).unwrap() {
            NodeCover::Existing { original, .. } => {
                assert_eq!(original, &("p1".to_string(), "s3".to_string()));
            }
            other => panic!("filter should be reused, got {other:?}"),
        }
        assert_eq!(outcome.cover(0).unwrap(), &NodeCover::New);
    }

    #[test]
    fn published_join_makes_the_whole_plan_reusable() {
        let mut db = database_with_meteo_streams();
        db.publish(StreamDefinition::derived(
            "p1",
            "sJ",
            "Join",
            "P",
            vec![("p1".into(), "s3".into()), ("p2".into(), "s2".into())],
        ));
        let mut engine = ReuseEngine::new(&mut db);
        let outcome = engine.cover(&section5_plan(), |_| 10);
        assert!(outcome.root_is_reused());
        assert_eq!(outcome.new_streams, 0);
    }

    #[test]
    fn different_filter_parameters_are_not_reused() {
        let mut db = database_with_meteo_streams();
        let mut engine = ReuseEngine::new(&mut db);
        let plan = PlanNode::operator(
            "Filter",
            "DIFFERENT",
            vec![PlanNode::alerter("inCOM", "p1")],
        );
        let outcome = engine.cover(&plan, |_| 10);
        assert_eq!(outcome.cover(0).unwrap(), &NodeCover::New);
        // The alerter itself is still reused.
        assert!(matches!(
            outcome.cover(1).unwrap(),
            NodeCover::Existing { .. }
        ));
    }

    #[test]
    fn unmatched_child_blocks_parent_matching() {
        let mut db = database_with_meteo_streams();
        let mut engine = ReuseEngine::new(&mut db);
        // No alerter published at p9, so even though a Filter(F) stream over
        // *p1*'s alerts exists, the parent must not be mapped.
        let plan = PlanNode::operator("Filter", "F", vec![PlanNode::alerter("inCOM", "p9")]);
        let outcome = engine.cover(&plan, |_| 10);
        assert_eq!(outcome.reused, 0);
        assert_eq!(outcome.new_streams, 2);
    }

    #[test]
    fn replica_substitution_uses_proximity() {
        let mut db = database_with_meteo_streams();
        db.publish_replica(ReplicaDeclaration {
            peer_id: "p1".into(),
            stream_id: "s3".into(),
            replica_peer: "edge.com".into(),
            replica_stream: "copy3".into(),
        });
        let mut engine = ReuseEngine::new(&mut db);
        let plan = PlanNode::operator("Filter", "F", vec![PlanNode::alerter("inCOM", "p1")]);
        // edge.com is much closer than p1.
        let proximity = |peer: Name| if peer == "edge.com" { 1 } else { 100 };
        let outcome = engine.cover(&plan, proximity);
        match outcome.cover(0).unwrap() {
            NodeCover::Existing {
                original, provider, ..
            } => {
                assert_eq!(original, &("p1".to_string(), "s3".to_string()));
                assert_eq!(provider, &("edge.com".to_string(), "copy3".to_string()));
            }
            other => panic!("expected reuse, got {other:?}"),
        }
    }

    #[test]
    fn plan_node_size() {
        assert_eq!(section5_plan().size(), 4);
    }

    #[test]
    fn subscription_points_are_the_topmost_covered_nodes() {
        let mut db = database_with_meteo_streams();
        let mut engine = ReuseEngine::new(&mut db);
        let outcome = engine.cover(&section5_plan(), |_| 10);
        // Covered: the filter subtree (index 1, absorbing its alerter at 2)
        // and the right alerter (3); the join root is new.
        let points = outcome.subscription_points();
        let indices: Vec<usize> = points.iter().map(|(at, _, _)| *at).collect();
        assert_eq!(indices, vec![1, 3]);
        assert_eq!(points[0].1, &("p1".to_string(), "s3".to_string()));
        // A fully covered plan has exactly one subscription point: the root.
        db.publish(StreamDefinition::derived(
            "p1",
            "sJ",
            "Join",
            "P",
            vec![("p1".into(), "s3".into()), ("p2".into(), "s2".into())],
        ));
        let outcome = ReuseEngine::new(&mut db).cover(&section5_plan(), |_| 10);
        let points = outcome.subscription_points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].0, 0);
    }

    #[test]
    fn subscription_points_of_a_wide_union_come_in_plan_order() {
        // Twelve covered branches under a new Union: sorting "0.10" before
        // "0.2" as text would put the eleventh branch third.
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 5));
        let branches: Vec<PlanNode> = (0..12)
            .map(|i| {
                let peer = format!("p{i}");
                db.publish(StreamDefinition::source(peer.clone(), "s", "inCOM"));
                PlanNode::alerter("inCOM", peer)
            })
            .collect();
        let plan = PlanNode::operator("Union", "", branches);
        let outcome = ReuseEngine::new(&mut db).cover(&plan, |_| 10);
        assert_eq!(outcome.cover(0), Some(&NodeCover::New));
        let points = outcome.subscription_points();
        let indices: Vec<usize> = points.iter().map(|(at, _, _)| *at).collect();
        assert_eq!(indices, (1..=12).collect::<Vec<_>>());
        let peers: Vec<&str> = points.iter().map(|(_, o, _)| o.0.as_str()).collect();
        let expected: Vec<String> = (0..12).map(|i| format!("p{i}")).collect();
        assert_eq!(peers, expected);
    }
}
