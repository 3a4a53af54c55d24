//! The Reuse algorithm of Section 5: rewriting a logical plan against the
//! Stream Definition Database before deployment.
//!
//! "The Reuse algorithm works on a monitoring plan, trying to find sub-plans
//! already supported by existing streams. […] the algorithm proceeds from
//! the leaves of the monitoring plan, attempting to map nodes in the plan to
//! existing streams.  Operators that have all their operands matched
//! generate queries to the database.  The result of the queries determines
//! whether this operator will be mapped to an existing stream.  For a node
//! that is matched, the algorithm searches for possible replicas of the
//! streams to substitute for that node."
//!
//! [`apply_reuse`] runs that search as one bottom-up pass over the owned
//! [`LogicalNode`] tree.  Each node covers its inputs, queries the database
//! once all of them are matched, and lets the database select the closest
//! provider (origin or replica) when the query finds a stream.  An unmatched
//! node rewrites each matched input into a [`LogicalNode::ChannelIn`]
//! subscription to its provider as the pass returns; a matched node leaves
//! that to its own parent, so only the topmost matched subtrees become
//! subscriptions.  Only what deployment publishes is looked up: alerter
//! sources, and the five derived operators named below.

use std::collections::HashSet;
use std::fmt;

use p2pmon_dht::StreamDefinitionDatabase;
use p2pmon_net::PeerId;
use p2pmon_p2pml::plan::LogicalNode;
use p2pmon_p2pml::ValueExpr;
use p2pmon_streams::{AttrCondition, ChannelId, Condition};

/// The result of applying reuse to a plan.
#[derive(Clone, Default, PartialEq)]
pub struct ReuseReport {
    /// Number of plan nodes served by existing streams.
    pub reused_nodes: usize,
    /// Number of plan nodes that will produce new streams.
    pub new_nodes: usize,
    /// The channels the rewritten plan subscribes to — the selected
    /// *providers* (original or replica), one per covered subtree.
    pub subscribed_channels: Vec<ChannelId>,
    /// The canonical identities of the *original* stream definitions
    /// backing each subscription — what the definition database keys on
    /// (and what teardown refcounts), independent of which replica was
    /// picked as the provider.
    pub reused_defs: Vec<ChannelId>,
    /// Operator instances *not* deployed because an existing stream covers
    /// them: plan nodes of covered subtrees minus the channel subscriptions
    /// that replace them.
    pub operators_saved: usize,
}

/// Lists each channel as its `(peer, stream)` pair of names: the printed
/// form the recorded reuse outcomes (`reuse_recorded.rs`) digest.
impl fmt::Debug for ReuseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs = |channels: &[ChannelId]| -> Vec<(&str, &str)> {
            channels
                .iter()
                .map(|c| (c.peer.as_str(), c.stream.as_str()))
                .collect()
        };
        f.debug_struct("ReuseReport")
            .field("reused_nodes", &self.reused_nodes)
            .field("new_nodes", &self.new_nodes)
            .field("subscribed_channels", &pairs(&self.subscribed_channels))
            .field("reused_defs", &pairs(&self.reused_defs))
            .field("operators_saved", &self.operators_saved)
            .finish()
    }
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
    patterns: &[p2pmon_xmlkit::XPath],
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

// The operator names derived streams are published under by deployment and
// looked up under by the reuse search.
pub(crate) const FILTER: &str = "Filter";
pub(crate) const JOIN: &str = "Join";
pub(crate) const UNION: &str = "Union";
pub(crate) const DUPLICATE_REMOVAL: &str = "DuplicateRemoval";
pub(crate) const RESTRUCTURE: &str = "Restructure";

/// Runs the Reuse algorithm over a plan and rewrites covered subtrees into
/// channel subscriptions.  `proximity` scores candidate provider peers by
/// name (lower = closer), driving replica selection.
///
/// The search scores providers by interned id (`apply_reuse_ids`, what a
/// deployment runs); this entry point resolves each scored id to its name
/// for a caller whose proximity table is keyed by name.
pub fn apply_reuse(
    plan: &LogicalNode,
    db: &mut StreamDefinitionDatabase,
    proximity: &dyn Fn(&str) -> u64,
) -> (LogicalNode, ReuseReport) {
    apply_reuse_ids(plan.clone(), db, |peer: PeerId| proximity(&peer))
}

/// [`apply_reuse`] over an owned plan, with `proximity` scoring candidate
/// provider peers by interned id: no candidate's name is resolved.
pub(crate) fn apply_reuse_ids(
    plan: LogicalNode,
    db: &mut StreamDefinitionDatabase,
    proximity: impl Fn(PeerId) -> u64,
) -> (LogicalNode, ReuseReport) {
    let mut search = Search {
        db,
        proximity,
        originals: Vec::new(),
        providers: Vec::new(),
        inputs: Vec::new(),
        reused: 0,
        new: 0,
    };
    let root = match search.cover(plan) {
        Cover::Covered(root) => subscribe(root, search.providers[0]),
        Cover::New(root) => root,
    };
    let mut listed = HashSet::new();
    let reused_defs = search
        .originals
        .iter()
        .copied()
        .filter(|original| listed.insert(*original))
        .collect();
    let report = ReuseReport {
        reused_nodes: search.reused,
        new_nodes: search.new,
        // Every covered node lies in exactly one topmost covered subtree,
        // which collapses to one subscription.
        operators_saved: search.reused - search.providers.len(),
        subscribed_channels: search.providers,
        reused_defs,
    };
    (root, report)
}

/// How the search left one node.
enum Cover {
    /// An existing stream serves the node, whose subtree is unchanged; its
    /// identity is the last entry of [`Search::originals`].
    Covered(LogicalNode),
    /// The node has to be produced anew; its covered inputs are channel
    /// subscriptions.
    New(LogicalNode),
}

/// The state of one bottom-up Reuse pass.
struct Search<'a, P> {
    db: &'a mut StreamDefinitionDatabase,
    proximity: P,
    /// The channel identities of the covered nodes whose parent is not
    /// known to be covered, in plan order: what the definition database
    /// keys on, whichever replica serves them.  A node that turns out
    /// covered truncates the list back to its length when the node was
    /// entered (dropping its inputs' entries) and pushes its own, so a node
    /// whose inputs are all covered finds their identities, in input
    /// order, from that mark on — the operands of its query.  At the end the
    /// list holds the topmost covered subtrees.
    originals: Vec<ChannelId>,
    /// The provider selected for each entry of `originals`.
    providers: Vec<ChannelId>,
    /// For each input of the nodes on the path being covered, the index of
    /// its entry in `originals` when it is covered.
    inputs: Vec<Option<usize>>,
    reused: usize,
    new: usize,
}

impl<P: Fn(PeerId) -> u64> Search<'_, P> {
    fn cover(&mut self, node: LogicalNode) -> Cover {
        let mark = self.originals.len();
        let first_input = self.inputs.len();
        let node = node.map_children(|input| {
            let (input, entry) = match self.cover(input) {
                Cover::Covered(input) => (input, Some(self.originals.len() - 1)),
                Cover::New(input) => (input, None),
            };
            self.inputs.push(entry);
            input
        });
        let matched = self.inputs[first_input..].iter().all(Option::is_some);
        let found = if matched {
            self.query(&node, mark)
        } else {
            None
        };
        match found {
            Some(original) => {
                let provider = self
                    .db
                    .select_provider_where(original, &self.proximity, |_| true);
                self.inputs.truncate(first_input);
                self.originals.truncate(mark);
                self.providers.truncate(mark);
                self.originals.push(original);
                self.providers.push(provider);
                self.reused += 1;
                Cover::Covered(node)
            }
            None => {
                self.new += 1;
                let providers = &self.providers;
                let mut entries = self.inputs.drain(first_input..);
                let node = node.map_children(|input| match entries.next().flatten() {
                    Some(entry) => subscribe(input, providers[entry]),
                    None => input,
                });
                Cover::New(node)
            }
        }
    }

    /// The stream already published for `node`, whose inputs are the
    /// entries of `originals` from `mark` on.  Channel subscriptions,
    /// dynamic alerters and aggregates are never published, so they are
    /// never looked up.
    fn query(&mut self, node: &LogicalNode, mark: usize) -> Option<ChannelId> {
        let operands = &self.originals[mark..];
        let found = match node {
            LogicalNode::Alerter { function, peer, .. } => {
                self.db.find_alerter_streams(peer, function)
            }
            LogicalNode::Select {
                simple,
                patterns,
                derived,
                conditions,
                ..
            } => self.db.find_derived_channels(
                FILTER,
                &select_parameters(simple, patterns, derived, conditions),
                operands,
            ),
            LogicalNode::Join {
                left_key,
                right_key,
                residual,
                ..
            } => self.db.find_derived_channels(
                JOIN,
                &join_parameters(left_key, right_key, residual),
                operands,
            ),
            LogicalNode::Union { .. } => self.db.find_derived_channels(UNION, "", operands),
            LogicalNode::Dedup { .. } => {
                self.db
                    .find_derived_channels(DUPLICATE_REMOVAL, "", operands)
            }
            LogicalNode::Restructure { template, .. } => {
                self.db
                    .find_derived_channels(RESTRUCTURE, template.source(), operands)
            }
            LogicalNode::ChannelIn { .. }
            | LogicalNode::DynamicAlerter { .. }
            | LogicalNode::Aggregate { .. } => return None,
        };
        found.first().copied()
    }
}

/// The subscription that replaces a covered subtree: its provider's
/// channel, bound to the subtree's variable.
fn subscribe(covered: LogicalNode, provider: ChannelId) -> LogicalNode {
    let var = covered
        .output_vars()
        .into_iter()
        .next()
        .unwrap_or_else(|| "item".to_string());
    LogicalNode::ChannelIn {
        channel: provider,
        var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_dht::{ChordNetwork, ReplicaDeclaration, StreamDefinition};
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
            vec![ChannelId::new("meteo.com", "filtered-7")]
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
            matches!(input.as_ref(), LogicalNode::ChannelIn { channel, .. } if channel.stream == "filtered-7")
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
        let only = |method: &str| ChannelId::new("meteo.com", format!("only-{method}"));
        assert_eq!(
            report.subscribed_channels,
            vec![only("B"), only("A"), only("B")]
        );
        assert_eq!(report.reused_defs, vec![only("B"), only("A")]);
    }

    fn alerter(function: &str, peer: &str, var: &str) -> LogicalNode {
        LogicalNode::Alerter {
            function: function.into(),
            peer: peer.into(),
            var: var.into(),
        }
    }

    fn channel(peer: &str, stream: &str, var: &str) -> LogicalNode {
        LogicalNode::ChannelIn {
            channel: id(peer, stream),
            var: var.into(),
        }
    }

    fn id(peer: &str, stream: &str) -> ChannelId {
        ChannelId::new(peer, stream)
    }

    fn named(channel: ChannelId) -> (String, String) {
        (channel.peer.to_string(), channel.stream.to_string())
    }

    fn method_is(method: &str) -> AttrCondition {
        use p2pmon_xmlkit::path::CompareOp;
        AttrCondition::new("callMethod", CompareOp::Eq, method)
    }

    /// σ[callMethod = method] over `input`, bound to `$c`.
    fn filter(method: &str, input: LogicalNode) -> LogicalNode {
        LogicalNode::Select {
            var: "c".into(),
            input: Box::new(input),
            simple: vec![method_is(method)],
            patterns: Vec::new(),
            derived: Vec::new(),
            conditions: Vec::new(),
        }
    }

    fn filter_parameters(method: &str) -> String {
        select_parameters(&[method_is(method)], &[], &[], &[])
    }

    const LEFT_KEY: (&str, &str) = ("c", "callId");
    const RIGHT_KEY: (&str, &str) = ("d", "callId");

    fn section5_join_parameters() -> String {
        let key = |(var, attr): (&str, &str)| (var.to_string(), attr.to_string());
        join_parameters(&key(LEFT_KEY), &key(RIGHT_KEY), &[])
    }

    /// ⋈P(left, right), the join of Section 5's plan.
    fn section5_join(left: LogicalNode, right: LogicalNode) -> LogicalNode {
        let key = |(var, attr): (&str, &str)| (var.to_string(), attr.to_string());
        LogicalNode::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_key: key(LEFT_KEY),
            right_key: key(RIGHT_KEY),
            residual: Vec::new(),
        }
    }

    /// The plan of Section 5: ⋈P(σF(inCOM@p1), outCOM@p2).
    fn section5_plan() -> LogicalNode {
        section5_join(
            filter("F", alerter("inCOM", "p1", "c")),
            alerter("outCOM", "p2", "d"),
        )
    }

    /// s1@p1: inCOM at p1; s2@p2: outCOM at p2; s3@p1: σF over s1.
    fn database_with_meteo_streams() -> StreamDefinitionDatabase {
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 5));
        db.publish(StreamDefinition::source("p1", "s1", "inCOM"));
        db.publish(StreamDefinition::source("p2", "s2", "outCOM"));
        db.publish(StreamDefinition::derived(
            "p1",
            "s3",
            FILTER,
            filter_parameters("F"),
            vec![named(id("p1", "s1"))],
        ));
        db
    }

    fn publish_section5_join(db: &mut StreamDefinitionDatabase) {
        db.publish(StreamDefinition::derived(
            "p1",
            "sJ",
            JOIN,
            section5_join_parameters(),
            vec![named(id("p1", "s3")), named(id("p2", "s2"))],
        ));
    }

    #[test]
    fn leaves_and_filter_are_reused_join_is_new() {
        let mut db = database_with_meteo_streams();
        let (rewritten, report) = apply_reuse(&section5_plan(), &mut db, &|_| 10);
        // inCOM@p1 → s1@p1; σF over s1 → s3@p1; outCOM@p2 → s2@p2; the join
        // is not published yet.
        assert_eq!(report.reused_nodes, 3);
        assert_eq!(report.new_nodes, 1);
        assert_eq!(
            rewritten,
            section5_join(channel("p1", "s3", "c"), channel("p2", "s2", "d"))
        );
    }

    #[test]
    fn published_join_makes_the_whole_plan_reusable() {
        let mut db = database_with_meteo_streams();
        publish_section5_join(&mut db);
        let (rewritten, report) = apply_reuse(&section5_plan(), &mut db, &|_| 10);
        assert_eq!(rewritten, channel("p1", "sJ", "c"));
        assert_eq!((report.reused_nodes, report.new_nodes), (4, 0));
        assert_eq!(report.operators_saved, 3);
    }

    #[test]
    fn different_filter_parameters_are_not_reused() {
        let mut db = database_with_meteo_streams();
        let plan = filter("DIFFERENT", alerter("inCOM", "p1", "c"));
        let (rewritten, report) = apply_reuse(&plan, &mut db, &|_| 10);
        assert_eq!((report.reused_nodes, report.new_nodes), (1, 1));
        // The alerter itself is still reused.
        assert_eq!(rewritten, filter("DIFFERENT", channel("p1", "s1", "c")));
    }

    #[test]
    fn unmatched_child_blocks_parent_matching() {
        let mut db = database_with_meteo_streams();
        // No alerter is published at p9, so even though σF over p1's alerts
        // exists, the filter must not be mapped — nor looked up.
        let plan = filter("F", alerter("inCOM", "p9", "c"));
        let before = db.index_stats().query_operations;
        db.find_alerter_streams("p9", "inCOM");
        let alerter_lookup = db.index_stats().query_operations - before;
        let (rewritten, report) = apply_reuse(&plan, &mut db, &|_| 10);
        assert_eq!((report.reused_nodes, report.new_nodes), (0, 2));
        assert_eq!(rewritten, plan);
        assert_eq!(
            db.index_stats().query_operations - before,
            2 * alerter_lookup,
            "only the alerter is looked up"
        );
    }

    #[test]
    fn replica_substitution_uses_proximity() {
        let mut db = database_with_meteo_streams();
        db.publish_replica(ReplicaDeclaration {
            origin: id("p1", "s3"),
            replica: id("edge.com", "copy3"),
        });
        let plan = filter("F", alerter("inCOM", "p1", "c"));
        // edge.com is much closer than p1.
        let proximity = |peer: &str| if peer == "edge.com" { 1 } else { 100 };
        let (rewritten, report) = apply_reuse(&plan, &mut db, &proximity);
        assert_eq!(rewritten, channel("edge.com", "copy3", "c"));
        assert_eq!(report.subscribed_channels, vec![id("edge.com", "copy3")]);
        assert_eq!(report.reused_defs, vec![id("p1", "s3")]);
    }

    #[test]
    fn subscription_points_are_the_topmost_covered_nodes() {
        let mut db = database_with_meteo_streams();
        // Covered: the filter subtree (absorbing its alerter) and the right
        // alerter; the join root is new.
        let (_, report) = apply_reuse(&section5_plan(), &mut db, &|_| 10);
        assert_eq!(
            report.subscribed_channels,
            vec![id("p1", "s3"), id("p2", "s2")]
        );
        assert_eq!(report.reused_defs, report.subscribed_channels);
        assert_eq!(report.operators_saved, 1);
        // A fully covered plan has exactly one subscription point: the root.
        publish_section5_join(&mut db);
        let (_, report) = apply_reuse(&section5_plan(), &mut db, &|_| 10);
        assert_eq!(report.subscribed_channels, vec![id("p1", "sJ")]);
        assert_eq!(report.reused_defs, vec![id("p1", "sJ")]);
    }

    #[test]
    fn subscription_points_of_a_wide_union_come_in_plan_order() {
        // Twelve covered branches under a new union: the eleventh (`p10`)
        // comes after the tenth (`p9`), not third as "10" sorts as text.
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(32, 5));
        let peers: Vec<String> = (0..12).map(|i| format!("p{i}")).collect();
        for peer in &peers {
            db.publish(StreamDefinition::source(peer.clone(), "s", "inCOM"));
        }
        let plan = LogicalNode::Union {
            var: "c".into(),
            inputs: peers.iter().map(|p| alerter("inCOM", p, "c")).collect(),
        };
        let (rewritten, report) = apply_reuse(&plan, &mut db, &|_| 10);
        assert_eq!((report.reused_nodes, report.new_nodes), (12, 1));
        let subscribed: Vec<&str> = report
            .subscribed_channels
            .iter()
            .map(|channel| channel.peer.as_str())
            .collect();
        assert_eq!(subscribed, peers);
        assert_eq!(
            rewritten,
            LogicalNode::Union {
                var: "c".into(),
                inputs: peers.iter().map(|p| channel(p, "s", "c")).collect(),
            }
        );
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
