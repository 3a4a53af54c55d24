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

use p2pmon_p2pml::plan::{normalize_peer, LogicalNode, LogicalPlan};
use p2pmon_p2pml::{ByClause, ValueExpr};
use p2pmon_streams::{AggregateSpec, AttrCondition, ChannelId, Condition, Template};
use p2pmon_xmlkit::PathPattern;

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
        patterns: Vec<PathPattern>,
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
    /// Sketch leaf: absorbs raw items next to a source and hands a *delta*
    /// partial to its parent stage on each dispatch-round boundary.
    SketchLeaf {
        /// Which sketch to maintain and how to key it.
        spec: AggregateSpec,
    },
    /// Interior sketch merge: folds the partials of up to
    /// [`SKETCH_MERGE_FANIN`] children and forwards the combined delta.
    SketchMerge {
        /// Which sketch to maintain.
        spec: AggregateSpec,
    },
    /// Sketch root: accumulates partials cumulatively and materializes the
    /// XML answer items that enter the normal channel/multicast path.
    SketchRoot {
        /// Which sketch to maintain and how often to emit answers.
        spec: AggregateSpec,
    },
}

impl TaskKind {
    /// The operator name used in stream definitions and plan displays.
    pub fn operator_name(&self) -> &'static str {
        match self {
            TaskKind::Source { .. } => "Alerter",
            TaskKind::DynamicSource { .. } => "DynamicAlerter",
            TaskKind::ChannelSource { .. } => "Channel",
            TaskKind::Select { .. } => "Filter",
            TaskKind::Union => "Union",
            TaskKind::Join { .. } => "Join",
            TaskKind::Dedup => "DuplicateRemoval",
            TaskKind::Restructure { .. } => "Restructure",
            TaskKind::SketchLeaf { .. } => "SketchLeaf",
            TaskKind::SketchMerge { .. } => "SketchMerge",
            TaskKind::SketchRoot { .. } => "SketchRoot",
        }
    }
}

/// Maximum fan-in of an interior sketch-merge node.  Keeping it constant
/// bounds every merge's work per round and yields a tree of depth
/// `log_16(leaves)` — 3 levels at 10k monitored peers.
pub const SKETCH_MERGE_FANIN: usize = 16;

/// One placed task.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedTask {
    /// Task identifier, unique within the plan.
    pub id: usize,
    /// The peer executing the task.
    pub peer: String,
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
    /// The root task (whose output feeds the publisher).
    pub root: usize,
    /// The manager peer (hosting the publisher).
    pub manager: String,
    /// The BY clause of the subscription.
    pub by: ByClause,
}

impl PlacedPlan {
    /// Number of tasks placed on the given peer.
    pub fn tasks_on(&self, peer: &str) -> usize {
        self.tasks.iter().filter(|t| t.peer == peer).count()
    }

    /// All peers hosting at least one task.
    pub fn peers(&self) -> Vec<String> {
        let mut peers: Vec<String> = self.tasks.iter().map(|t| t.peer.clone()).collect();
        peers.push(self.manager.clone());
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
                ChannelId::new(task.peer.clone(), stream)
            })
            .collect()
    }

    /// Number of plan edges that cross from one peer to another — each such
    /// edge becomes a channel at deployment time.
    pub fn cross_peer_edges(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| match t.downstream {
                Some((consumer, _)) => self.tasks[consumer].peer != t.peer,
                None => t.peer != self.manager,
            })
            .count()
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
            peer: normalize_peer(&peer),
            var,
        },
        node => node.map_children(push_selections_below_unions),
    }
}

/// Places a logical plan.  `manager` is the subscription-manager peer.
pub fn place(plan: &LogicalPlan, manager: &str, strategy: PlacementStrategy) -> PlacedPlan {
    let mut builder = Builder {
        tasks: Vec::new(),
        manager: manager.to_string(),
        strategy,
    };
    let root = builder.place_node(&plan.root);
    let mut placed = PlacedPlan {
        tasks: builder.tasks,
        root,
        manager: manager.to_string(),
        by: plan.by.clone(),
    };
    // Co-place channel sources with their consumer: a subscribing task is
    // movable (it computes nothing), and hosting it on its consumer's peer
    // makes the channel→consumer edge local — the reused stream travels
    // producer→consumer directly instead of bouncing through the manager,
    // one network hop fewer per item.  A channel source that *is* the plan
    // root has no consumer; it moves to the manager, where the publisher
    // wants the results anyway — and where all of a shared stream's
    // same-manager subscribers ride one multicast message.
    let moves: Vec<(usize, String)> = placed
        .tasks
        .iter()
        .filter_map(|task| match (&task.kind, task.downstream) {
            (TaskKind::ChannelSource { .. }, Some((consumer, _))) => {
                Some((task.id, placed.tasks[consumer].peer.clone()))
            }
            (TaskKind::ChannelSource { .. }, None) => Some((task.id, manager.to_string())),
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
    manager: String,
    strategy: PlacementStrategy,
}

impl Builder {
    fn push(&mut self, peer: String, kind: TaskKind) -> usize {
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
    fn beside(&self, input_task: usize) -> String {
        match self.strategy {
            PlacementStrategy::Centralized => self.manager.clone(),
            PlacementStrategy::PushToSources => self.tasks[input_task].peer.clone(),
        }
    }

    /// The peer an inner operator should run on, given its candidate
    /// (anchor) peers: the one currently hosting the fewest tasks, ties to
    /// the first in input order — or the manager under the centralized
    /// strategy.
    fn inner_peer(&self, candidates: &[String]) -> String {
        match self.strategy {
            PlacementStrategy::Centralized => self.manager.clone(),
            PlacementStrategy::PushToSources => candidates
                .iter()
                .min_by_key(|p| self.tasks.iter().filter(|t| &&t.peer == p).count())
                .cloned()
                .unwrap_or_else(|| self.manager.clone()),
        }
    }

    /// The input peers that anchor an inner operator's placement.  Channel
    /// sources are movable — they are co-placed with their consumer after
    /// placement — so they only anchor when *every* input is one.
    fn anchor_peers(&self, input_tasks: &[usize]) -> Vec<String> {
        let anchored: Vec<String> = input_tasks
            .iter()
            .filter(|&&t| !matches!(self.tasks[t].kind, TaskKind::ChannelSource { .. }))
            .map(|&t| self.tasks[t].peer.clone())
            .collect();
        if anchored.is_empty() {
            input_tasks
                .iter()
                .map(|&t| self.tasks[t].peer.clone())
                .collect()
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
            } => self.push(
                peer.clone(),
                TaskKind::Source {
                    function: function.clone(),
                    monitored_peer: peer.clone(),
                    var: var.clone(),
                    feed: source_channel(function, peer),
                },
            ),
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
            LogicalNode::ChannelIn { peer, stream, var } => {
                // The subscribing task runs wherever its consumer runs (it is
                // co-placed after the fact); until the consumer is known,
                // host it on the *providing* peer — the stream is already
                // there, so operators stacked on top of the subscription
                // (e.g. a filter over a reused source) run next to the data
                // and only their derived output crosses the network.
                self.push(
                    normalize_peer(peer),
                    TaskKind::ChannelSource {
                        channel: ChannelId::new(peer.clone(), stream.clone()),
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
                // sketch leaf per input branch (on the branch's peer, so raw
                // items never cross the network), interior merges over chunks
                // of SKETCH_MERGE_FANIN, and the root at the manager.  A
                // union input contributes one leaf per union branch — the
                // union node itself would only concentrate all raw items on a
                // single peer, defeating the point.
                let branches: Vec<&LogicalNode> = match input.as_ref() {
                    LogicalNode::Union { inputs, .. } => inputs.iter().collect(),
                    other => vec![other],
                };
                let mut level: Vec<usize> = Vec::with_capacity(branches.len());
                for branch in branches {
                    let upstream = self.place_node(branch);
                    let leaf = self.push(
                        self.beside(upstream),
                        TaskKind::SketchLeaf { spec: spec.clone() },
                    );
                    self.connect(upstream, leaf, 0);
                    level.push(leaf);
                }
                while level.len() > SKETCH_MERGE_FANIN {
                    let mut next = Vec::with_capacity(level.len() / SKETCH_MERGE_FANIN + 1);
                    for chunk in level.chunks(SKETCH_MERGE_FANIN) {
                        // The first chunk member's peer: deterministic and
                        // O(1).  Scoring candidates by task count, as joins
                        // and unions do, would cost O(tasks²) at 10k
                        // leaves.
                        let merge = self.push(
                            self.beside(chunk[0]),
                            TaskKind::SketchMerge { spec: spec.clone() },
                        );
                        for (port, &task) in chunk.iter().enumerate() {
                            self.connect(task, merge, port);
                        }
                        next.push(merge);
                    }
                    level = next;
                }
                let manager = self.manager.clone();
                let root = self.push(manager, TaskKind::SketchRoot { spec: spec.clone() });
                for (port, task) in level.into_iter().enumerate() {
                    self.connect(task, root, port);
                }
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
}
