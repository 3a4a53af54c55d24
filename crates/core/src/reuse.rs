//! Stream-reuse integration: rewriting a logical plan against the Stream
//! Definition Database before deployment.
//!
//! The Subscription Manager, "when a new monitoring subscription arrives,
//! […] searches for existing streams that could help support (portions of)
//! the new task".  This module converts a compiled [`LogicalNode`] tree into
//! the [`PlanNode`] shape the Reuse algorithm of `p2pmon-dht` understands,
//! runs the cover, and rewrites the plan so that every covered subtree is
//! replaced by a subscription to the covering channel (original or replica).

use std::collections::HashSet;

use p2pmon_dht::reuse::NodeCover;
use p2pmon_dht::{PlanNode, ReuseEngine, StreamDefinitionDatabase};
use p2pmon_net::PeerId;
use p2pmon_p2pml::plan::LogicalNode;
use p2pmon_p2pml::ValueExpr;
use p2pmon_streams::{AttrCondition, Condition};

/// The result of applying reuse to a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseReport {
    /// Number of plan nodes served by existing streams.
    pub reused_nodes: usize,
    /// Number of plan nodes that will produce new streams.
    pub new_nodes: usize,
    /// The channels the rewritten plan subscribes to — the selected
    /// *providers* (original or replica), one per covered subtree.
    pub subscribed_channels: Vec<(String, String)>,
    /// The canonical `(peer, stream)` identities of the *original* stream
    /// definitions backing each subscription — what the definition database
    /// keys on (and what teardown refcounts), independent of which replica
    /// was picked as the provider.
    pub reused_defs: Vec<(String, String)>,
    /// Operator instances *not* deployed because an existing stream covers
    /// them: plan nodes of covered subtrees minus the channel subscriptions
    /// that replace them.
    pub operators_saved: usize,
}

/// Replica re-publication effectiveness — how much of a hot channel's
/// fan-out the consumer peers carry instead of the origin (Section 5's
/// `<InChannel>` declarations).  Filled on the monitor-wide aggregate
/// ([`ReuseStats::replicas`] via `Monitor::reuse_stats`), zero on
/// per-subscription slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica declarations published (one per consuming peer per replicated
    /// channel; duplicate subscribers on one peer share a declaration).
    pub replicas_created: u64,
    /// Replica declarations retracted again (last local subscriber gone).
    pub replicas_retracted: u64,
    /// Remote consumers (subscribing tasks whose peer differs from the
    /// stream's origin peer) that attached to a replica provider.
    pub consumers_via_replica: u64,
    /// Remote consumers that attached to the origin directly (no closer
    /// replica existed when they deployed).
    pub consumers_via_origin: u64,
    /// Messages replica peers sent on the origin's behalf
    /// (`NetworkStats::replica_forwarded_messages`) — origin-peer load moved
    /// onto consumers.
    pub origin_messages_saved: u64,
    /// Forwarder chains walked to decide whether a surviving replica is
    /// eligible for an orphaned consumer: asked only of a replica closer than
    /// the best provider so far, so this follows the improvements an orphan's
    /// choice makes, not the number of declared replicas.
    pub chains_walked: u64,
}

impl ReplicaStats {
    /// Fraction of remote consumers served by a replica rather than the
    /// origin.
    pub fn replica_share(&self) -> f64 {
        let remote = self.consumers_via_replica + self.consumers_via_origin;
        if remote == 0 {
            0.0
        } else {
            self.consumers_via_replica as f64 / remote as f64
        }
    }
}

/// Aggregate stream-reuse effectiveness — the E7 measures.  Per-subscription
/// slices flow up through [`crate::SubscriptionReport`]; the monitor-wide
/// aggregate through `Monitor::reuse_stats`, which also fills
/// `messages_saved` from the network's multicast accounting and `replicas`
/// from the replica bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Deployments that went through the reuse search.
    pub subscriptions: u64,
    /// Deployments where at least one plan node attached to an existing
    /// stream.
    pub hits: u64,
    /// Plan nodes served by existing streams, across all deployments.
    pub covered_nodes: u64,
    /// Operator instances never deployed thanks to coverage.
    pub operators_saved: u64,
    /// Network messages avoided by sharing one physical stream between
    /// subscribers (`NetworkStats::multicast_saved_messages` delta; filled on
    /// the monitor-wide aggregate, zero on per-subscription slices).
    pub messages_saved: u64,
    /// Evaluations of the provider-proximity function across all
    /// deployments (monitor-wide aggregate only): one per provider a
    /// selection compared, so it follows the origins and replicas the plans
    /// name, never the number of registered peers.
    pub providers_scored: u64,
    /// Rate-table channels summed into provider loads across all
    /// deployments (monitor-wide aggregate only): a load-aware selection
    /// reads the channels of the peers it compares, never the whole table.
    pub loads_read: u64,
    /// Replica re-publication measures (monitor-wide aggregate only).
    pub replicas: ReplicaStats,
}

impl ReuseStats {
    /// The per-subscription slice of a deployment's reuse outcome.
    pub fn of_report(report: &ReuseReport) -> Self {
        ReuseStats {
            subscriptions: 1,
            hits: u64::from(report.reused_nodes > 0),
            covered_nodes: report.reused_nodes as u64,
            operators_saved: report.operators_saved as u64,
            messages_saved: 0,
            providers_scored: 0,
            loads_read: 0,
            replicas: ReplicaStats::default(),
        }
    }

    /// Fraction of deployments that attached to at least one existing
    /// stream.
    pub fn hit_rate(&self) -> f64 {
        if self.subscriptions == 0 {
            0.0
        } else {
            self.hits as f64 / self.subscriptions as f64
        }
    }

    /// Accumulates another stats block.  The replica measures have one
    /// owner, the monitor's replica bookkeeping, and are not summed.
    pub(crate) fn absorb(&mut self, other: &ReuseStats) {
        self.subscriptions += other.subscriptions;
        self.hits += other.hits;
        self.covered_nodes += other.covered_nodes;
        self.operators_saved += other.operators_saved;
        self.messages_saved += other.messages_saved;
        self.providers_scored += other.providers_scored;
        self.loads_read += other.loads_read;
    }
}

/// Canonical digest of a Select's parameters, so that two subscriptions with
/// the same filter are recognised as identical by the reuse machinery.
pub fn select_parameters(
    simple: &[AttrCondition],
    patterns: &[p2pmon_xmlkit::PathPattern],
    derived: &[(String, ValueExpr)],
    conditions: &[Condition],
) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut simple_keys: Vec<String> = simple.iter().map(AttrCondition::key).collect();
    simple_keys.sort();
    parts.extend(simple_keys);
    let mut pattern_keys: Vec<String> = patterns.iter().map(|p| p.source().to_string()).collect();
    pattern_keys.sort();
    parts.extend(pattern_keys);
    let mut derived_keys: Vec<String> = derived.iter().map(|(v, _)| format!("let:{v}")).collect();
    derived_keys.sort();
    parts.extend(derived_keys);
    let mut condition_keys: Vec<String> = conditions.iter().map(|c| c.to_string()).collect();
    condition_keys.sort();
    parts.extend(condition_keys);
    parts.join("&")
}

/// Canonical digest of a Join's parameters.
pub fn join_parameters(
    left_key: &(String, String),
    right_key: &(String, String),
    residual: &[Condition],
) -> String {
    let mut parts = vec![format!(
        "{}.{}={}.{}",
        left_key.0, left_key.1, right_key.0, right_key.1
    )];
    let mut residual_keys: Vec<String> = residual.iter().map(|c| c.to_string()).collect();
    residual_keys.sort();
    parts.extend(residual_keys);
    parts.join("&")
}

/// Converts a logical plan node into the reuse algorithm's [`PlanNode`]
/// shape: one plan node per logical node, children in the same order as the
/// logical node's inputs, so the cover's preorder indices line up with a
/// preorder walk of the logical plan.
pub fn logical_to_plan_node(node: &LogicalNode) -> PlanNode {
    match node {
        LogicalNode::Alerter { function, peer, .. } => {
            PlanNode::alerter(function.clone(), peer.clone())
        }
        LogicalNode::DynamicAlerter {
            function, driver, ..
        } => PlanNode::operator(
            "DynamicAlerter",
            function.clone(),
            vec![logical_to_plan_node(driver)],
        ),
        // Channel sources refer to streams that already exist, but their
        // identity is resolved at deployment time; for covering purposes they
        // are opaque leaves that never match.
        LogicalNode::ChannelIn { peer, stream, .. } => {
            PlanNode::alerter(format!("__channel__{stream}"), peer.clone())
        }
        LogicalNode::Union { inputs, .. } => PlanNode::operator(
            "Union",
            "",
            inputs.iter().map(logical_to_plan_node).collect(),
        ),
        LogicalNode::Select {
            input,
            simple,
            patterns,
            derived,
            conditions,
            ..
        } => PlanNode::operator(
            "Filter",
            select_parameters(simple, patterns, derived, conditions),
            vec![logical_to_plan_node(input)],
        ),
        LogicalNode::Join {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => PlanNode::operator(
            "Join",
            join_parameters(left_key, right_key, residual),
            vec![logical_to_plan_node(left), logical_to_plan_node(right)],
        ),
        LogicalNode::Dedup { input } => {
            PlanNode::operator("DuplicateRemoval", "", vec![logical_to_plan_node(input)])
        }
        LogicalNode::Restructure {
            input, template, ..
        } => PlanNode::operator(
            "Restructure",
            template.source().to_string(),
            vec![logical_to_plan_node(input)],
        ),
        // Aggregates are never published as reusable streams (their output
        // is bounded-size partials, not a subscribable item stream), so the
        // node can never be covered — but its *input* subtrees still
        // participate in the cover search.
        LogicalNode::Aggregate { input, spec, .. } => PlanNode::operator(
            "Aggregate",
            format!("{spec:?}"),
            vec![logical_to_plan_node(input)],
        ),
    }
}

/// Runs the Reuse algorithm over a plan and rewrites covered subtrees into
/// channel subscriptions.  `proximity` scores candidate provider peers by
/// name (lower = closer), driving replica selection.
///
/// The cover scores providers by interned id (`apply_reuse_ids`, what a
/// deployment runs); this entry point resolves each scored id to its name
/// for a caller whose proximity table is keyed by name.
pub fn apply_reuse(
    plan: &LogicalNode,
    db: &mut StreamDefinitionDatabase,
    proximity: &dyn Fn(&str) -> u64,
) -> (LogicalNode, ReuseReport) {
    apply_reuse_ids(plan, db, |peer: PeerId| proximity(&peer))
}

/// [`apply_reuse`] with `proximity` scoring candidate provider peers by
/// interned id: no candidate's name is resolved.
pub(crate) fn apply_reuse_ids(
    plan: &LogicalNode,
    db: &mut StreamDefinitionDatabase,
    proximity: impl Fn(PeerId) -> u64,
) -> (LogicalNode, ReuseReport) {
    let outcome = ReuseEngine::new(db).cover(&logical_to_plan_node(plan), proximity);
    let mut rewriter = Rewriter {
        covers: &outcome.covers,
        next: 0,
        report: ReuseReport {
            reused_nodes: outcome.reused,
            new_nodes: outcome.new_streams,
            subscribed_channels: Vec::new(),
            reused_defs: Vec::new(),
            operators_saved: 0,
        },
        listed: HashSet::new(),
    };
    let rewritten = rewriter.rewrite(plan);
    debug_assert_eq!(
        rewriter.next,
        outcome.covers.len(),
        "one cover per plan node"
    );
    (rewritten, rewriter.report)
}

/// Rewrites covered subtrees into channel subscriptions, filling `report`.
struct Rewriter<'a> {
    /// The cover, by preorder index of the plan node.
    covers: &'a [NodeCover],
    /// Preorder index of the next logical node `rewrite` visits.
    next: usize,
    report: ReuseReport,
    /// The originals already in `report.reused_defs`, so each is listed
    /// once, in first-seen order, without scanning the list.
    listed: HashSet<&'a (String, String)>,
}

impl<'a> Rewriter<'a> {
    fn rewrite(&mut self, node: &LogicalNode) -> LogicalNode {
        let covers = self.covers;
        if let NodeCover::Existing {
            original,
            provider,
            nodes,
        } = &covers[self.next]
        {
            // The whole subtree is served by an existing stream: subscribe to
            // it, and skip the subtree's covers.  Its nodes collapse to one
            // ChannelIn leaf; the rest is operator work the deployment never
            // instantiates.
            self.next += nodes;
            self.report.operators_saved += nodes - 1;
            let var = node
                .output_vars()
                .first()
                .cloned()
                .unwrap_or_else(|| "item".to_string());
            self.report
                .subscribed_channels
                .push((provider.0.clone(), provider.1.clone()));
            if self.listed.insert(original) {
                self.report.reused_defs.push(original.clone());
            }
            return LogicalNode::ChannelIn {
                peer: provider.0.clone(),
                stream: provider.1.clone(),
                var,
            };
        }
        // Not covered: keep the operator, recurse into its children in the
        // order the cover numbered them.
        self.next += 1;
        match node {
            LogicalNode::Alerter { .. } | LogicalNode::ChannelIn { .. } => node.clone(),
            LogicalNode::DynamicAlerter {
                function,
                var,
                driver,
            } => LogicalNode::DynamicAlerter {
                function: function.clone(),
                var: var.clone(),
                driver: Box::new(self.rewrite(driver)),
            },
            LogicalNode::Union { var, inputs } => LogicalNode::Union {
                var: var.clone(),
                inputs: inputs.iter().map(|input| self.rewrite(input)).collect(),
            },
            LogicalNode::Select {
                var,
                input,
                simple,
                patterns,
                derived,
                conditions,
            } => LogicalNode::Select {
                var: var.clone(),
                input: Box::new(self.rewrite(input)),
                simple: simple.clone(),
                patterns: patterns.clone(),
                derived: derived.clone(),
                conditions: conditions.clone(),
            },
            LogicalNode::Join {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => LogicalNode::Join {
                left: Box::new(self.rewrite(left)),
                right: Box::new(self.rewrite(right)),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
                residual: residual.clone(),
            },
            LogicalNode::Dedup { input } => LogicalNode::Dedup {
                input: Box::new(self.rewrite(input)),
            },
            LogicalNode::Restructure {
                input,
                template,
                derived,
            } => LogicalNode::Restructure {
                input: Box::new(self.rewrite(input)),
                template: template.clone(),
                derived: derived.clone(),
            },
            LogicalNode::Aggregate { var, input, spec } => LogicalNode::Aggregate {
                var: var.clone(),
                input: Box::new(self.rewrite(input)),
                spec: spec.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_dht::{ChordNetwork, StreamDefinition};
    use p2pmon_p2pml::compile_subscription;

    fn subscription_plan() -> LogicalNode {
        compile_subscription(
            r#"for $c in inCOM(<p>meteo.com</p>)
               where $c.callMethod = "GetTemperature"
               return <hit id="{$c.callId}"/>
               by publish as channel "hits";"#,
        )
        .unwrap()
        .root
    }

    #[test]
    fn without_published_streams_everything_is_new() {
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(16, 3));
        let plan = subscription_plan();
        let (rewritten, report) = apply_reuse(&plan, &mut db, &|_| 10);
        assert_eq!(report.reused_nodes, 0);
        assert!(report.subscribed_channels.is_empty());
        assert_eq!(rewritten, plan, "nothing to rewrite");
    }

    #[test]
    fn published_alerter_and_filter_are_reused() {
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(16, 3));
        // Someone already runs the inCOM alerter at meteo.com …
        db.publish(StreamDefinition::source("meteo.com", "src-inCOM", "inCOM"));
        let plan = subscription_plan();
        // … and the very same filter, published from a previous deployment.
        let LogicalNode::Restructure { input, .. } = &plan else {
            panic!()
        };
        let LogicalNode::Select {
            simple,
            patterns,
            derived,
            conditions,
            ..
        } = input.as_ref()
        else {
            panic!()
        };
        let params = select_parameters(simple, patterns, derived, conditions);
        db.publish(StreamDefinition::derived(
            "meteo.com",
            "filtered-7",
            "Filter",
            params,
            vec![("meteo.com".into(), "src-inCOM".into())],
        ));

        let (rewritten, report) = apply_reuse(&plan, &mut db, &|_| 10);
        assert!(report.reused_nodes >= 2);
        assert_eq!(
            report.subscribed_channels,
            vec![("meteo.com".to_string(), "filtered-7".to_string())]
        );
        assert_eq!(
            report.reused_defs, report.subscribed_channels,
            "no replicas in play: the original identity is the provider"
        );
        // Filter + Alerter (2 nodes) collapse into one ChannelIn leaf.
        assert_eq!(report.operators_saved, 1);
        let stats = ReuseStats::of_report(&report);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.subscriptions, 1);
        assert!((stats.hit_rate() - 1.0).abs() < f64::EPSILON);
        // The filter subtree collapsed into a channel subscription.
        let LogicalNode::Restructure { input, .. } = &rewritten else {
            panic!()
        };
        assert!(
            matches!(input.as_ref(), LogicalNode::ChannelIn { stream, .. } if stream == "filtered-7")
        );
    }

    #[test]
    fn an_original_covered_twice_is_listed_once_in_first_seen_order() {
        use p2pmon_xmlkit::path::CompareOp;
        let condition = |method: &str| AttrCondition::new("callMethod", CompareOp::Eq, method);
        let select = |method: &str| LogicalNode::Select {
            var: "c".into(),
            input: Box::new(LogicalNode::Alerter {
                function: "inCOM".into(),
                peer: "meteo.com".into(),
                var: "c".into(),
            }),
            simple: vec![condition(method)],
            patterns: Vec::new(),
            derived: Vec::new(),
            conditions: Vec::new(),
        };
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(16, 3));
        db.publish(StreamDefinition::source("meteo.com", "src-inCOM", "inCOM"));
        for method in ["A", "B"] {
            db.publish(StreamDefinition::derived(
                "meteo.com",
                format!("only-{method}"),
                "Filter",
                select_parameters(&[condition(method)], &[], &[], &[]),
                vec![("meteo.com".into(), "src-inCOM".into())],
            ));
        }
        let plan = LogicalNode::Union {
            var: "c".into(),
            inputs: vec![select("B"), select("A"), select("B")],
        };
        let (_, report) = apply_reuse(&plan, &mut db, &|_| 10);
        let only = |method: &str| ("meteo.com".to_string(), format!("only-{method}"));
        assert_eq!(
            report.subscribed_channels,
            vec![only("B"), only("A"), only("B")]
        );
        assert_eq!(report.reused_defs, vec![only("B"), only("A")]);
    }

    #[test]
    fn digests_are_order_insensitive() {
        use p2pmon_xmlkit::path::CompareOp;
        let a = AttrCondition::new("x", CompareOp::Eq, "1");
        let b = AttrCondition::new("y", CompareOp::Gt, "2");
        assert_eq!(
            select_parameters(&[a.clone(), b.clone()], &[], &[], &[]),
            select_parameters(&[b, a], &[], &[], &[])
        );
    }
}
