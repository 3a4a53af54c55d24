//! Operator placement: turning a logical plan into a set of per-peer tasks.
//!
//! "An important issue for scaling with many subscriptions and peers is the
//! placement of operators such as filters close to the data they work on
//! when possible, to save on data transfers."  The default strategy
//! ([`PlacementStrategy::PushToSources`]) therefore keeps selections on the
//! monitored peers, places a union on one of its input peers, a join on the
//! peer of one of its inputs (preferring a peer that already hosts an
//! alerter of the join, as in the Section 3.4 example where the join runs at
//! `meteo.com`), and the final restructure/publisher on the subscription
//! manager.  [`PlacementStrategy::Centralized`] ships every alert to the
//! manager and computes there — the baseline of experiment E6.

use p2pmon_net::PeerId;
use p2pmon_p2pml::plan::{normalize_peer, LogicalNode, LogicalPlan};
use p2pmon_p2pml::{ByClause, ValueExpr};
use p2pmon_streams::{AggregateSpec, AttrCondition, ChannelId, Condition, Template};
use p2pmon_xmlkit::XPath;

use crate::dispatch::source_channel;

/// How operators are assigned to peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Push selections and unions to the monitored peers; joins next to one
    /// of their inputs; restructure and publisher at the manager (the
    /// paper's optimized plan).
    #[default]
    PushToSources,
    /// Every operator runs at the subscription-manager peer; raw alerts cross
    /// the network unfiltered (the baseline of E6).
    Centralized,
}

/// What a deployed task does.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Binds an alerter's output stream: every alert produced by
    /// `function` at `monitored_peer` enters the task, bound to `var`.
    Source {
        /// Alerter function ("inCOM", "outCOM", "rssFeed", …).
        function: String,
        /// The monitored peer.
        monitored_peer: String,
        /// The variable the alerts bind to.
        var: String,
        /// The alerter's source stream, `src-<function>` at the monitored
        /// peer: minted once, where the task is placed, and the id the task
        /// is registered and retracted under in the routing table.
        feed: ChannelId,
    },
    /// A membership-driven source: alerts of `function` from any monitored
    /// peer currently in the membership set (fed by the driver input on
    /// port 1) are bound to `var`.
    DynamicSource {
        /// Alerter function.
        function: String,
        /// The variable the alerts bind to.
        var: String,
    },
    /// Subscribes to an already-published channel (stream reuse or an
    /// explicit channel source).
    ChannelSource {
        /// The channel to subscribe to.
        channel: ChannelId,
        /// The variable received items bind to.
        var: String,
    },
    /// The single-subscription Filter (σ).
    Select {
        /// The variable the conditions apply to.
        var: String,
        /// Simple conditions on root attributes.
        simple: Vec<AttrCondition>,
        /// Tree-pattern conditions.
        patterns: Vec<XPath>,
        /// Derived values computed before evaluating the general conditions.
        derived: Vec<(String, ValueExpr)>,
        /// General conditions.
        conditions: Vec<Condition>,
    },
    /// Union (∪) of its inputs, one per port.
    Union,
    /// Join (⋈) on attribute equality.
    Join {
        /// (variable, attribute) of the left key.
        left_key: (String, String),
        /// (variable, attribute) of the right key.
        right_key: (String, String),
        /// Residual conditions on the joined tuple.
        residual: Vec<Condition>,
    },
    /// Duplicate removal.
    Dedup,
    /// Restructure (Π): the RETURN template.
    Restructure {
        /// The template.
        template: Template,
        /// Derived values the template may reference.
        derived: Vec<(String, ValueExpr)>,
    },
    /// Sketch root: the top of an aggregate's [`MergeTree`].  Input port
    /// `p` is the tree's leaf `p`, which absorbs raw items next to its
    /// input; the root accumulates the partials the tree hands up
    /// cumulatively and materializes the XML answer items that enter the
    /// normal channel/multicast path.
    SketchRoot {
        /// Which sketch to maintain and how often to emit answers.
        spec: AggregateSpec,
    },
}

/// Maximum fan-in of a merge-tree stage: a merge folds the partials of up to
/// this many stages of the level below, and the root those of the top
/// level.  Keeping it constant bounds every stage's work per round and
/// yields `ceil(log_16(leaves))` levels of stages below the root — leaves
/// and three merge levels at 10k monitored peers.
pub const SKETCH_MERGE_FANIN: usize = 16;

/// An aggregate's merge tree, placed as one unit: where each of its leaf
/// and merge stages runs.  The stages are no tasks — they get no
/// [`TaskKind`], channel or route — and deploy as one operator slot with
/// the root ([`TaskKind::SketchRoot`]), whose input port `p` feeds leaf
/// `p`.  Stage `(level, slot)` hands its partial to stage
/// `(level + 1, slot / SKETCH_MERGE_FANIN)`; the level past the last, the
/// root.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeTree {
    /// The [`TaskKind::SketchRoot`] task the tree feeds.
    pub root: usize,
    /// Every stage's host, level by level: `levels[0]` holds one leaf per
    /// input branch, on the branch's peer, so raw items never cross the
    /// network; each level above holds one merge per
    /// [`SKETCH_MERGE_FANIN`] stages of the level below, on the first of
    /// those stages' hosts; the top level has at most that many stages.
    pub levels: Vec<Vec<PeerId>>,
}

impl MergeTree {
    /// Number of leaf and merge stages.
    pub fn stages(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The host of stage `(level, slot)`; `None` for the root's level.
    pub fn host(&self, level: usize, slot: usize) -> Option<PeerId> {
        self.levels.get(level)?.get(slot).copied()
    }

    /// Pairs of (child host, parent host) of every edge of the tree: a
    /// stage and the stage it hands its partial to, the top level's
    /// parent being the root on `root_peer`.
    fn edges(&self, root_peer: PeerId) -> impl Iterator<Item = (PeerId, PeerId)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .flat_map(move |(level, hosts)| {
                hosts.iter().enumerate().map(move |(slot, &host)| {
                    let parent = self.host(level + 1, slot / SKETCH_MERGE_FANIN);
                    (host, parent.unwrap_or(root_peer))
                })
            })
    }
}

/// One placed task.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedTask {
    /// Task identifier, unique within the plan.
    pub id: usize,
    /// The peer executing the task.
    pub peer: PeerId,
    /// What the task does.
    pub kind: TaskKind,
    /// Where its output goes: `(task id, input port)` of the consumer, or
    /// `None` for the plan root (the publisher consumes it).
    pub downstream: Option<(usize, usize)>,
}

/// A fully placed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedPlan {
    /// All tasks, indexed by their id.
    pub tasks: Vec<PlacedTask>,
    /// The merge tree of every aggregate, each feeding its root task.
    pub trees: Vec<MergeTree>,
    /// The root task (whose output feeds the publisher).
    pub root: usize,
    /// The manager peer (hosting the publisher).
    pub manager: PeerId,
    /// The BY clause of the subscription.
    pub by: ByClause,
}

impl PlacedPlan {
    /// The merge tree task `root` roots, when it is an aggregate's root.
    pub fn tree_of(&self, root: usize) -> Option<&MergeTree> {
        self.trees.iter().find(|tree| tree.root == root)
    }

    /// The host of the leaf that input `port` of task `consumer` feeds,
    /// when the consumer is an aggregate's root; any other task runs its
    /// inputs on its own peer.
    pub fn leaf_host(&self, consumer: usize, port: usize) -> Option<PeerId> {
        self.tree_of(consumer)?.host(0, port)
    }

    /// Operators the plan deploys: its tasks, plus the leaf and merge
    /// stages of its merge trees.
    pub fn operators(&self) -> usize {
        self.tasks.len() + self.trees.iter().map(MergeTree::stages).sum::<usize>()
    }

    /// Number of tasks placed on the given peer.
    pub fn tasks_on(&self, peer: &str) -> usize {
        self.tasks.iter().filter(|t| t.peer == peer).count()
    }

    /// All peers hosting at least one task.
    pub fn peers(&self) -> Vec<String> {
        let mut peers: Vec<String> = self.tasks.iter().map(|t| t.peer.into()).collect();
        peers.push(self.manager.into());
        peers.sort();
        peers.dedup();
        peers
    }

    /// Mints the *canonical channel identity* of every task's output stream:
    /// `(producing peer, stream name)`, where the stream name is the BY
    /// clause's channel name for a root published as a channel and the
    /// subscription-scoped `s<sub>-t<task>` name otherwise.  This single
    /// identity is used by the routing tables, the live multicast *and* the
    /// published stream definitions, so a definition always names the peer
    /// that actually emits (see `p2pmon_dht::streamdef`'s identity
    /// invariant).  Every task gets an identity — pass-through tasks
    /// (sources, channel subscriptions) use theirs only for private
    /// plan-internal edges, while derived operators also publish theirs in
    /// the Stream Definition Database.
    pub fn output_channels(&self, sub_idx: usize) -> Vec<ChannelId> {
        self.tasks
            .iter()
            .map(|task| {
                let stream = match (&task.downstream, &self.by) {
                    (None, ByClause::Channel(name)) => name.clone(),
                    _ => format!("s{sub_idx}-t{}", task.id),
                };
                ChannelId::new(task.peer, stream)
            })
            .collect()
    }

    /// Number of plan edges that cross from one peer to another.  A task's
    /// such edge becomes a channel at deployment time, a merge tree's a
    /// partial message per round that the stage absorbed something.
    pub fn cross_peer_edges(&self) -> usize {
        let tasks = self.tasks.iter().filter(|t| match t.downstream {
            Some((consumer, port)) => match self.leaf_host(consumer, port) {
                Some(leaf) => leaf != t.peer,
                None => self.tasks[consumer].peer != t.peer,
            },
            None => t.peer != self.manager,
        });
        let trees = (self.trees.iter())
            .flat_map(|tree| tree.edges(self.tasks[tree.root].peer))
            .filter(|(child, parent)| child != parent);
        tasks.count() + trees.count()
    }
}

/// The algebraic optimization step of the Subscription Manager: selections
/// are pushed *below* unions so that each monitored peer filters its own
/// alerts before anything crosses the network — exactly the shape of the
/// Section 3.3 plan `∪(σF(out@a.com), σF(out@b.com))`.  Pushing below the
/// union also makes each per-source filter an independently publishable
/// (and therefore reusable) stream.
///
/// Alerter peers come out normalized as compilation leaves them
/// ([`normalize_peer`]), so a hand-built plan naming `http://a.com/` is
/// searched for reuse, placed and installed at `a.com`, like its compiled
/// twin.
pub fn push_selections_below_unions(node: LogicalNode) -> LogicalNode {
    match node {
        LogicalNode::Select {
            var,
            input,
            simple,
            patterns,
            derived,
            conditions,
        } => match push_selections_below_unions(*input) {
            LogicalNode::Union {
                var: union_var,
                inputs,
            } => LogicalNode::Union {
                var: union_var,
                inputs: inputs
                    .into_iter()
                    .map(|child| LogicalNode::Select {
                        var: var.clone(),
                        input: Box::new(push_selections_below_unions(child)),
                        simple: simple.clone(),
                        patterns: patterns.clone(),
                        derived: derived.clone(),
                        conditions: conditions.clone(),
                    })
                    .collect(),
            },
            input => LogicalNode::Select {
                var,
                input: Box::new(input),
                simple,
                patterns,
                derived,
                conditions,
            },
        },
        LogicalNode::Alerter {
            function,
            peer,
            var,
        } => LogicalNode::Alerter {
            function,
            peer: normalize_peer(&peer).to_string(),
            var,
        },
        node => node.map_children(push_selections_below_unions),
    }
}

/// Places a logical plan.  `manager` is the subscription-manager peer.
pub fn place(plan: &LogicalPlan, manager: &str, strategy: PlacementStrategy) -> PlacedPlan {
    let manager = PeerId::new(manager);
    let mut builder = Builder {
        tasks: Vec::new(),
        trees: Vec::new(),
        manager,
        strategy,
    };
    let root = builder.place_node(&plan.root);
    let mut placed = PlacedPlan {
        tasks: builder.tasks,
        trees: builder.trees,
        root,
        manager,
        by: plan.by.clone(),
    };
    // Co-place channel sources with their consumer: a subscribing task is
    // movable (it computes nothing), and hosting it on its consumer's peer
    // makes the channel→consumer edge local — the reused stream travels
    // producer→consumer directly instead of bouncing through the manager,
    // one network hop fewer per item.  A channel source that *is* the plan
    // root has no consumer; it moves to the manager, where the publisher
    // wants the results anyway — and where all of a shared stream's
    // same-manager subscribers ride one multicast message.  (A channel
    // source feeding an aggregate moves to its leaf.)
    let moves: Vec<(usize, PeerId)> = placed
        .tasks
        .iter()
        .filter_map(|task| match (&task.kind, task.downstream) {
            (TaskKind::ChannelSource { .. }, Some((consumer, port))) => {
                let peer = placed.leaf_host(consumer, port);
                Some((task.id, peer.unwrap_or(placed.tasks[consumer].peer)))
            }
            (TaskKind::ChannelSource { .. }, None) => Some((task.id, manager)),
            _ => None,
        })
        .collect();
    for (id, peer) in moves {
        placed.tasks[id].peer = peer;
    }
    placed
}

struct Builder {
    tasks: Vec<PlacedTask>,
    trees: Vec<MergeTree>,
    manager: PeerId,
    strategy: PlacementStrategy,
}

impl Builder {
    fn push(&mut self, peer: PeerId, kind: TaskKind) -> usize {
        let id = self.tasks.len();
        self.tasks.push(PlacedTask {
            id,
            peer,
            kind,
            downstream: None,
        });
        id
    }

    fn connect(&mut self, producer: usize, consumer: usize, port: usize) {
        self.tasks[producer].downstream = Some((consumer, port));
    }

    /// The peer a single-input stage runs on: next to its input, so only
    /// its (smaller) output crosses the network — the paper's example
    /// restructures at the join peer and ships only the incidents to the
    /// manager — or at the manager under the centralized strategy.
    fn beside(&self, input_task: usize) -> PeerId {
        match self.strategy {
            PlacementStrategy::Centralized => self.manager,
            PlacementStrategy::PushToSources => self.tasks[input_task].peer,
        }
    }

    /// The peer an inner operator should run on, given its candidate
    /// (anchor) peers: the one currently hosting the fewest tasks, ties to
    /// the first in input order — or the manager under the centralized
    /// strategy.
    fn inner_peer(&self, candidates: &[PeerId]) -> PeerId {
        match self.strategy {
            PlacementStrategy::Centralized => self.manager,
            PlacementStrategy::PushToSources => candidates
                .iter()
                .min_by_key(|&&p| self.tasks.iter().filter(|t| t.peer == p).count())
                .copied()
                .unwrap_or(self.manager),
        }
    }

    /// The input peers that anchor an inner operator's placement.  Channel
    /// sources are movable — they are co-placed with their consumer after
    /// placement — so they only anchor when *every* input is one.
    fn anchor_peers(&self, input_tasks: &[usize]) -> Vec<PeerId> {
        let anchored: Vec<PeerId> = input_tasks
            .iter()
            .filter(|&&t| !matches!(self.tasks[t].kind, TaskKind::ChannelSource { .. }))
            .map(|&t| self.tasks[t].peer)
            .collect();
        if anchored.is_empty() {
            input_tasks.iter().map(|&t| self.tasks[t].peer).collect()
        } else {
            anchored
        }
    }

    /// Source-side peer: where an alerter-bound task runs.  Alerters always
    /// run on the monitored peer's premises; under the centralized strategy
    /// the *consumer* of their raw alerts is the manager, which is what makes
    /// the raw stream cross the network.
    fn place_node(&mut self, node: &LogicalNode) -> usize {
        match node {
            LogicalNode::Alerter {
                function,
                peer,
                var,
            } => {
                let feed = source_channel(function, peer);
                self.push(
                    feed.peer,
                    TaskKind::Source {
                        function: function.clone(),
                        monitored_peer: peer.clone(),
                        var: var.clone(),
                        feed,
                    },
                )
            }
            LogicalNode::DynamicAlerter {
                function,
                var,
                driver,
            } => {
                let driver_task = self.place_node(driver);
                let dynamic = self.push(
                    self.beside(driver_task),
                    TaskKind::DynamicSource {
                        function: function.clone(),
                        var: var.clone(),
                    },
                );
                // Membership events arrive on port 1.
                self.connect(driver_task, dynamic, 1);
                dynamic
            }
            LogicalNode::ChannelIn { channel, var } => {
                // The subscribing task runs wherever its consumer runs (it is
                // co-placed after the fact); until the consumer is known,
                // host it on the *providing* peer — the stream is already
                // there, so operators stacked on top of the subscription
                // (e.g. a filter over a reused source) run next to the data
                // and only their derived output crosses the network.
                self.push(
                    channel.peer,
                    TaskKind::ChannelSource {
                        channel: *channel,
                        var: var.clone(),
                    },
                )
            }
            LogicalNode::Union { var: _, inputs } => {
                let input_tasks: Vec<usize> = inputs.iter().map(|i| self.place_node(i)).collect();
                let input_peers = self.anchor_peers(&input_tasks);
                let peer = self.inner_peer(&input_peers);
                let union = self.push(peer, TaskKind::Union);
                for (port, task) in input_tasks.into_iter().enumerate() {
                    self.connect(task, union, port);
                }
                union
            }
            LogicalNode::Select {
                var,
                input,
                simple,
                patterns,
                derived,
                conditions,
            } => {
                let input_task = self.place_node(input);
                let select = self.push(
                    self.beside(input_task),
                    TaskKind::Select {
                        var: var.clone(),
                        simple: simple.clone(),
                        patterns: patterns.clone(),
                        derived: derived.clone(),
                        conditions: conditions.clone(),
                    },
                );
                self.connect(input_task, select, 0);
                select
            }
            LogicalNode::Join {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let left_task = self.place_node(left);
                let right_task = self.place_node(right);
                let input_tasks = [left_task, right_task];
                let peers = self.anchor_peers(&input_tasks);
                let peer = self.inner_peer(&peers);
                let join = self.push(
                    peer,
                    TaskKind::Join {
                        left_key: left_key.clone(),
                        right_key: right_key.clone(),
                        residual: residual.clone(),
                    },
                );
                self.connect(left_task, join, 0);
                self.connect(right_task, join, 1);
                join
            }
            LogicalNode::Dedup { input } => {
                let input_task = self.place_node(input);
                let dedup = self.push(self.beside(input_task), TaskKind::Dedup);
                self.connect(input_task, dedup, 0);
                dedup
            }
            LogicalNode::Restructure {
                input,
                template,
                derived,
            } => {
                let input_task = self.place_node(input);
                let restructure = self.push(
                    self.beside(input_task),
                    TaskKind::Restructure {
                        template: template.clone(),
                        derived: derived.clone(),
                    },
                );
                self.connect(input_task, restructure, 0);
                restructure
            }
            LogicalNode::Aggregate {
                var: _,
                input,
                spec,
            } => {
                // The single logical aggregate expands into a merge tree: one
                // leaf per input branch (on the branch's peer, so raw items
                // never cross the network), merges over chunks of
                // SKETCH_MERGE_FANIN, and the root task at the manager.  A
                // union input contributes one leaf per union branch — the
                // union node itself would only concentrate all raw items on a
                // single peer, defeating the point.
                let branches: Vec<&LogicalNode> = match input.as_ref() {
                    LogicalNode::Union { inputs, .. } => inputs.iter().collect(),
                    other => vec![other],
                };
                let mut inputs = Vec::with_capacity(branches.len());
                let mut leaves = Vec::with_capacity(branches.len());
                for branch in branches {
                    let upstream = self.place_node(branch);
                    leaves.push(self.beside(upstream));
                    inputs.push(upstream);
                }
                let mut levels = vec![leaves];
                while let Some(level) = levels.last().filter(|l| l.len() > SKETCH_MERGE_FANIN) {
                    // A merge runs on its first child's host: deterministic
                    // and O(1).  Scoring candidates by task count, as joins
                    // and unions do, would cost O(tasks²) at 10k leaves.
                    let merges = level.chunks(SKETCH_MERGE_FANIN).map(|chunk| chunk[0]);
                    levels.push(merges.collect());
                }
                let root = self.push(self.manager, TaskKind::SketchRoot { spec: spec.clone() });
                for (port, task) in inputs.into_iter().enumerate() {
                    self.connect(task, root, port);
                }
                self.trees.push(MergeTree { root, levels });
                root
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_p2pml::{compile_subscription, METEO_SUBSCRIPTION};

    fn meteo_placed(strategy: PlacementStrategy) -> PlacedPlan {
        let plan = compile_subscription(METEO_SUBSCRIPTION).unwrap();
        place(&plan, "p", strategy)
    }

    #[test]
    fn pushdown_keeps_sources_and_filters_on_monitored_peers() {
        let placed = meteo_placed(PlacementStrategy::PushToSources);
        // Alerter tasks on a.com, b.com, meteo.com.
        for peer in ["a.com", "b.com", "meteo.com"] {
            assert!(
                placed
                    .tasks
                    .iter()
                    .any(|t| t.peer == peer && matches!(t.kind, TaskKind::Source { .. })),
                "missing alerter task on {peer}"
            );
        }
        // The select over $c1 runs on one of the client peers, not the manager.
        let select = placed
            .tasks
            .iter()
            .find(|t| matches!(&t.kind, TaskKind::Select { var, .. } if var == "c1"))
            .expect("c1 select exists");
        assert_ne!(select.peer, "p");
        // The join runs on one of the involved peers.
        let join = placed
            .tasks
            .iter()
            .find(|t| matches!(t.kind, TaskKind::Join { .. }))
            .unwrap();
        assert_ne!(join.peer, "p");
        assert!(placed.peers().contains(&"p".to_string()));
    }

    #[test]
    fn centralized_puts_every_processor_on_the_manager() {
        let placed = meteo_placed(PlacementStrategy::Centralized);
        for task in &placed.tasks {
            match &task.kind {
                TaskKind::Source { monitored_peer, .. } => assert_eq!(&task.peer, monitored_peer),
                _ => assert_eq!(task.peer, "p", "{:?} should be at the manager", task.kind),
            }
        }
        // Every alerter edge crosses the network.
        assert!(placed.cross_peer_edges() >= 3);
    }

    #[test]
    fn pushdown_has_fewer_cross_peer_edges_than_centralized() {
        let pushed = meteo_placed(PlacementStrategy::PushToSources);
        let central = meteo_placed(PlacementStrategy::Centralized);
        assert!(
            pushed.cross_peer_edges() <= central.cross_peer_edges(),
            "pushdown {} vs centralized {}",
            pushed.cross_peer_edges(),
            central.cross_peer_edges()
        );
    }

    #[test]
    fn downstream_wiring_is_consistent() {
        let placed = meteo_placed(PlacementStrategy::PushToSources);
        let root = placed.root;
        assert!(placed.tasks[root].downstream.is_none());
        // Exactly one task feeds each consumer port.
        for task in &placed.tasks {
            if let Some((consumer, port)) = task.downstream {
                assert!(consumer < placed.tasks.len());
                let dupes = placed
                    .tasks
                    .iter()
                    .filter(|t| t.downstream == Some((consumer, port)))
                    .count();
                assert_eq!(dupes, 1, "port {port} of task {consumer} fed twice");
            }
        }
    }

    #[test]
    fn task_counts_per_peer() {
        let placed = meteo_placed(PlacementStrategy::PushToSources);
        let total: usize = placed.peers().iter().map(|p| placed.tasks_on(p)).sum();
        assert_eq!(total, placed.tasks.len());
    }

    #[test]
    fn output_channels_name_the_emitting_peer() {
        let placed = meteo_placed(PlacementStrategy::PushToSources);
        let channels = placed.output_channels(3);
        assert_eq!(channels.len(), placed.tasks.len());
        for (task, channel) in placed.tasks.iter().zip(&channels) {
            assert_eq!(
                channel.peer, task.peer,
                "a task's canonical channel is emitted by its own peer"
            );
            if task.downstream.is_some() {
                assert_eq!(channel.stream, format!("s3-t{}", task.id));
            } else {
                // METEO publishes `by channel "alertQoS"`: the root's channel
                // carries the BY name, at the *root task's* peer — not the
                // manager's.
                assert_eq!(channel.stream, "alertQoS");
                assert_ne!(task.peer, placed.manager);
            }
        }
    }

    /// The placed plan of a top-k aggregate over `peers` monitored peers,
    /// managed at `hub`.
    fn aggregate_over(peers: usize, strategy: PlacementStrategy) -> PlacedPlan {
        let list: String = (0..peers).map(|i| format!("<p>s{i}.net</p>")).collect();
        let text =
            format!("for $c in inCOM({list}) return topk($c.callMethod, 1) by email \"o@x.org\";");
        let plan = compile_subscription(&text).unwrap();
        place(&plan, "hub", strategy)
    }

    /// An aggregate over 40 monitored peers places 40 sources and one root
    /// task; its merge tree has 40 leaves on the sources' peers and 3
    /// merges on the peers of leaves 0, 16 and 32.
    #[test]
    fn an_aggregate_places_one_root_task_and_one_merge_tree() {
        let placed = aggregate_over(40, PlacementStrategy::PushToSources);
        assert_eq!(placed.tasks.len(), 41, "40 sources and the root");
        let root = &placed.tasks[placed.root];
        assert!(matches!(root.kind, TaskKind::SketchRoot { .. }));
        assert_eq!(root.peer, "hub");
        let tree = placed.tree_of(placed.root).expect("the root's tree");
        let widths: Vec<usize> = tree.levels.iter().map(Vec::len).collect();
        assert_eq!(widths, [40, 3]);
        assert_eq!((tree.stages(), placed.operators()), (43, 84));
        for task in &placed.tasks[..40] {
            let (consumer, port) = task.downstream.expect("a source feeds the root");
            assert_eq!(consumer, placed.root);
            assert_eq!(
                placed.leaf_host(consumer, port).unwrap().as_str(),
                task.peer
            );
        }
        let merges: Vec<&str> = tree.levels[1].iter().map(|p| p.as_str()).collect();
        assert_eq!(merges, ["s0.net", "s16.net", "s32.net"]);
        assert_eq!(tree.host(2, 0), None, "the root's level");
        // 37 leaves feed a merge on another peer, 3 merges the root.
        assert_eq!(placed.cross_peer_edges(), 40);
    }

    #[test]
    fn a_centralized_aggregate_runs_its_tree_at_the_manager() {
        let placed = aggregate_over(20, PlacementStrategy::Centralized);
        let tree = placed.tree_of(placed.root).expect("the root's tree");
        assert!(tree
            .levels
            .iter()
            .flatten()
            .all(|host| host.as_str() == "hub"));
        // Every raw alert crosses to its leaf; the tree itself is local.
        assert_eq!(placed.cross_peer_edges(), 20);
    }
}
