//! Subscription deployment: compile → reuse → place → deploy → publish.
//!
//! The Subscription Manager's pipeline (Section 3 of the paper) lives here:
//! a P2PML subscription is compiled into a logical plan, selections are
//! pushed below unions, the Stream Definition Database is searched for
//! reusable streams, the rewritten plan is placed on peers and finally
//! deployed — instantiating one [`RuntimeOperator`] per task (an
//! aggregate's root with its whole merge tree), wiring routes
//! and consumer registrations, registering every `Select` task's simple
//! conditions and tree patterns with its host peer's shared filter engine
//! (the *offline adjustment* of Figure 5), and publishing the definitions of
//! the newly created streams.
//!
//! **Canonical channel identity.**  Placement mints one [`ChannelId`] per
//! task output ([`PlacedPlan::output_channels`]): `(producing peer, stream
//! name)`.  That same identity is used for (1) the cross-peer routing tables,
//! (2) the live multicast a reuse subscriber attaches to, and (3) the stream
//! definition published in the DHT — so a definition always names the peer
//! that actually emits, and a covered subtree can subscribe to the producing
//! operator's existing output channel without any manager hop or
//! re-deployment.
//!
//! **Shared-stream reference counting.**  Every published definition is
//! refcounted: the owning subscription holds one reference on each derived
//! definition it publishes, and every deployed task that *consumes* a shared
//! stream (`Source` tasks for `src-<function>` definitions, `ChannelSource`
//! tasks for the channel they attach to) holds one reference on that
//! definition.  `Monitor::unsubscribe` releases the owner references and
//! tears down only the tasks no still-referenced stream depends on; the
//! producing subtree of a stream with live subscribers keeps running until
//! the last subscriber lets go, at which point the teardown cascades.

use std::collections::{BTreeSet, HashMap};

use p2pmon_dht::StreamDefinitionDatabase;
use p2pmon_filter::FilterSubscription;
use p2pmon_net::PeerId;
use p2pmon_p2pml::plan::{normalize_peer, LogicalNode, LogicalPlan};
use p2pmon_p2pml::{compile_subscription, ByClause, CompileError};
use p2pmon_streams::ChannelId;

use crate::dispatch::Route;
use crate::monitor::{DeployedSubscription, Monitor, SubscriptionHandle};
use crate::placement::{place, push_selections_below_unions, PlacedPlan, TaskKind};
use crate::profile::{LifetimeProfile, PhaseClock, SUBMIT_PHASES};
use crate::reuse::{
    apply_reuse_ids, join_parameters, select_parameters, ReuseReport, ReuseStats,
    DUPLICATE_REMOVAL, FILTER, JOIN, RESTRUCTURE, UNION,
};
use crate::runtime::RuntimeOperator;
use crate::sink::{Sink, SinkKind};

/// Maps a canonical channel identity to the closest live provider of that
/// stream (the origin or one of its replicas).
type SelectProviders<'a> = dyn Fn(ChannelId) -> ChannelId + 'a;

/// Resolves every explicit channel reference in a plan to its canonical
/// identity, then — when replica re-publication is enabled — routes it to
/// the closest live *provider* of that stream.  A subscription addresses a
/// published channel by the name and manager it was declared with
/// (`channel("#alertQoS@p")`), but the canonical identity names the peer
/// that actually emits the stream (wherever placement put the producer's
/// root); without this step the subscriber would attach to a channel nobody
/// multicasts on.  References minted by the reuse rewriting pass through the
/// same two steps.  Their identity is already canonical (an exact descriptor
/// match, or a live replica's coordinates), but the selection is asked
/// again, because only this step breaks ties by load
/// ([`StreamDefinitionDatabase::select_provider_loaded`]): it can move an
/// origin the reuse search picked by proximity alone to a replica that is as
/// near and carries less load.  Unknown or ambiguous names pass through
/// unchanged.  Counts the references it resolves in `resolved`.
fn canonicalize_channel_refs(
    db: &StreamDefinitionDatabase,
    proximity: Option<&SelectProviders<'_>>,
    node: LogicalNode,
    resolved: &mut u64,
) -> LogicalNode {
    match node {
        LogicalNode::ChannelIn { channel, var } => {
            *resolved += 1;
            let channel = db.canonical_identity(channel);
            let channel = match proximity {
                Some(select) => select(channel),
                None => channel,
            };
            LogicalNode::ChannelIn { channel, var }
        }
        node => {
            node.map_children(|input| canonicalize_channel_refs(db, proximity, input, resolved))
        }
    }
}

impl Monitor {
    /// Submits a P2PML subscription to the given manager peer: compile, apply
    /// stream reuse, place, deploy and publish the new stream definitions.
    pub fn submit(
        &mut self,
        manager: &str,
        subscription_text: &str,
    ) -> Result<SubscriptionHandle, CompileError> {
        let mut clock = PhaseClock::start(&SUBMIT_PHASES);
        let plan = compile_subscription(subscription_text)?;
        clock.lap("core.submit.compile", plan.root.size() as u64);
        Ok(self.deploy_timed(manager, plan, clock))
    }

    /// Deploys an already-compiled logical plan (used by benches that bypass
    /// the parser).  Its profile's compile phase is empty.
    pub fn deploy_plan(&mut self, manager: &str, plan: LogicalPlan) -> SubscriptionHandle {
        self.deploy_timed(manager, plan, PhaseClock::start(&SUBMIT_PHASES))
    }

    /// The per-phase split of the last successful submit or
    /// [`Monitor::deploy_plan`] (see [`crate::profile`]).
    pub fn last_submit_profile(&self) -> &LifetimeProfile {
        &self.last_submit
    }

    /// [`Monitor::deploy_plan`], lapping `clock` at the end of every phase.
    fn deploy_timed(
        &mut self,
        manager: &str,
        plan: LogicalPlan,
        mut clock: PhaseClock,
    ) -> SubscriptionHandle {
        let manager_name = normalize_peer(manager);
        let manager = PeerId::new(manager_name);
        self.host_and_epoch(manager);

        // Algebraic optimization: push selections below unions so that every
        // monitored peer filters its own alerts (Section 3.3's plan shape).
        let plan = LogicalPlan {
            root: push_selections_below_unions(plan.root),
            by: plan.by,
            distinct: plan.distinct,
        };
        clock.lap("core.submit.pushdown", plan.root.size() as u64);

        // Provider proximity, the "close networkwise" criterion of Section 5:
        // the expected latency from the subscribing manager, with the manager
        // itself as the closest possible provider (a replica on the
        // consumer's own peer costs no network hop) and downed peers marked
        // unavailable so replica selection never routes through a dead
        // provider.  Evaluated on demand: a submit scores the providers its
        // selections compare (counted in `ReuseStats::providers_scored`),
        // not the peers that exist.  Scored by id: the manager is interned
        // once per submit, and a candidate's name is never resolved.
        let scored = std::cell::Cell::new(0u64);
        let proximity = |peer: PeerId| {
            scored.set(scored.get() + 1);
            if !self.network.has_peer(peer) {
                u64::MAX / 2
            } else if self.network.is_down(peer) {
                u64::MAX
            } else if peer == manager {
                0
            } else {
                self.network.expected_latency(manager, peer)
            }
        };

        // Stream reuse against the definition database.
        let queries = self.stream_db.index_stats().query_operations;
        let (root, reuse) = if self.config.enable_reuse {
            let (root, reuse) = apply_reuse_ids(plan.root, &mut self.stream_db, proximity);
            self.reuse_totals.absorb(&ReuseStats::of_report(&reuse));
            (root, reuse)
        } else {
            (plan.root, ReuseReport::default())
        };
        let queries = self.stream_db.index_stats().query_operations - queries;
        clock.lap("core.submit.reuse", queries);
        // Measured per-provider-peer load (total outbound channel rate,
        // bytes/sec): `select_provider_loaded` breaks proximity ties toward
        // the least-loaded provider, spreading consumers across equally-near
        // replicas.  Read per candidate peer from its own channels (counted
        // in `ReuseStats::loads_read`); rounding to u64 keeps the ordering
        // deterministic.
        let now = self.network.now();
        let loads_read = std::cell::Cell::new(0u64);
        let select_provider = |origin: ChannelId| {
            self.stream_db
                .select_provider_loaded(origin, proximity, |p: PeerId| {
                    let (load, read) = self.rate_table.peer_load_at(p, now);
                    loads_read.set(loads_read.get() + read as u64);
                    load
                })
        };
        let mut resolved = 0;
        let rewritten = LogicalPlan {
            root: canonicalize_channel_refs(
                &self.stream_db,
                self.config
                    .enable_replicas
                    .then_some(&select_provider as &SelectProviders<'_>),
                root,
                &mut resolved,
            ),
            by: plan.by,
            distinct: plan.distinct,
        };
        self.reuse_totals.providers_scored += scored.get();
        self.reuse_totals.loads_read += loads_read.get();
        clock.lap("core.submit.canonicalize", resolved);

        // Placement, and the canonical channel identity of every task output.
        let placed = place(&rewritten, manager_name, self.config.placement);
        clock.lap("core.submit.place", placed.tasks.len() as u64);
        let sub_idx = self.subscriptions.len();
        let channels = placed.output_channels(sub_idx);
        clock.lap("core.submit.output_channels", channels.len() as u64);

        let mut routes = Vec::with_capacity(placed.tasks.len());
        let mut operators = Vec::with_capacity(placed.tasks.len());

        // Build operators, routes and consumer registrations, fetching each
        // task's host once and registering a peer nobody named before.  A
        // source runs on its monitored peer (placement puts it there), so its
        // alerter goes on the same host; the last reference on its source
        // stream releases it (`Monitor::release_refs`).  The offline
        // adjustment of the per-peer shared filter engines happens on the
        // same visit: a Select task's simple conditions and tree patterns
        // register with its host's engine, so that an incoming alert is
        // filtered once per peer rather than once per subscription.  Tasks
        // that consume a shared stream take a reference on its definition.
        for task in &placed.tasks {
            let operator = RuntimeOperator::for_kind(&task.kind, self.config.join_window);
            operators.push(match placed.tree_of(task.id) {
                Some(tree) => operator.with_tree(tree),
                None => operator,
            });
            let filter = match &task.kind {
                TaskKind::Select {
                    simple, patterns, ..
                } => {
                    let id = self.next_filter_id;
                    self.next_filter_id += 1;
                    let filter = FilterSubscription::new(id).with_simple(simple.clone());
                    Some(filter.with_complex(patterns.clone()))
                }
                _ => None,
            };
            let (host, epoch) = self.host_and_epoch(task.peer);
            if let TaskKind::Source { feed, .. } = &task.kind {
                host.alerters.install(*feed);
            }
            if let Some(filter) = filter {
                host.register_select(sub_idx, task.id, filter, epoch);
            }
            if let Some(key) = self.task_def_key(&task.kind) {
                self.def_refs.entry(key).or_default().refs += 1;
            }
            match &task.kind {
                TaskKind::Source { feed, .. } => {
                    self.routing.attach_source(*feed, sub_idx, task.id);
                }
                TaskKind::DynamicSource { function, .. } => {
                    self.routing.attach_dynamic(function, sub_idx, task.id);
                }
                TaskKind::ChannelSource { channel, .. } => {
                    self.routing.attach(*channel, sub_idx, task.id, 0);
                    // Replica accounting for remote consumers of a live
                    // stream: record whether this subscriber was served by a
                    // replica or pulls from the origin, and re-publish the
                    // stream from the consuming peer so *later* subscribers
                    // can attach to the closest copy.
                    self.note_replica_consumer(sub_idx, task.id, channel, &channels[task.id]);
                }
                _ => {}
            }
            // An aggregate's root runs each input on the leaf of its port.
            let route = match task.downstream {
                Some((consumer, port)) => {
                    let consumer_peer = placed.leaf_host(consumer, port);
                    let consumer_peer = consumer_peer.unwrap_or(channels[consumer].peer);
                    if consumer_peer == channels[task.id].peer {
                        Route::Local {
                            task: consumer,
                            port,
                        }
                    } else {
                        let channel = channels[task.id];
                        self.routing.attach(channel, sub_idx, consumer, port);
                        Route::Channel { channel }
                    }
                }
                None => Route::Publisher,
            };
            routes.push(route);
        }
        self.operators.deploy(sub_idx, operators);
        clock.lap("core.submit.install", placed.tasks.len() as u64);

        // Publish stream definitions for the streams this deployment
        // produces, under their canonical channel identities, and remember
        // each definition's producing subtree for shared teardown.
        let inserts = self.stream_db.index_stats().insert_operations;
        let (owned_defs, def_tasks) = self.publish_definitions(&placed, &channels);
        for key in &owned_defs {
            let entry = self.def_refs.entry(*key).or_default();
            entry.refs += 1;
            entry.owner.get_or_insert(sub_idx);
        }

        // The published result channel, when the BY clause asks for one: the
        // canonical identity of the root task's output — emitted from the
        // producing peer, not the manager.  Subscribers that attached under
        // the *declared* `(manager, name)` identity before this producer
        // existed (submit order is not a contract) are re-pointed to the
        // canonical channel so they start receiving.
        let published_channel = match &placed.by {
            ByClause::Channel(name) => {
                let channel = channels[placed.root];
                let declared = ChannelId::new(manager, name.clone());
                if declared != channel {
                    self.repoint_channel_consumers(&declared, &channel);
                }
                let published = self.routing.published_channels.entry(channel);
                published.or_default().publishers += 1;
                Some(channel)
            }
            _ => None,
        };

        self.subscriptions.push(DeployedSubscription {
            sink: Sink::new(SinkKind::from(&placed.by)),
            placed,
            routes,
            channels,
            reuse,
            published_channel,
            owned_defs,
            def_tasks,
            retired: false,
        });
        let inserts = self.stream_db.index_stats().insert_operations - inserts;
        clock.lap("core.submit.publish", inserts);
        self.last_submit = clock.finish();
        SubscriptionHandle(sub_idx)
    }

    /// Moves every channel subscriber registered under `declared` — a
    /// channel reference deployed before its producer existed, so
    /// [`StreamDefinitionDatabase::canonical_identity`] had nothing to
    /// resolve against — onto the producer's `canonical` identity: the
    /// consumer registrations, each subscribing task's stored [`ChannelId`],
    /// and the definition reference each task holds.
    ///
    /// [`StreamDefinitionDatabase::canonical_identity`]: p2pmon_dht::StreamDefinitionDatabase::canonical_identity
    fn repoint_channel_consumers(&mut self, declared: &ChannelId, canonical: &ChannelId) {
        for (sub, task, port) in self.routing.detach_all(declared) {
            if let TaskKind::ChannelSource { channel, .. } =
                &mut self.subscriptions[sub].placed.tasks[task].kind
            {
                *channel = *canonical;
            }
            self.routing.attach(*canonical, sub, task, port);
            if let Some(entry) = self.def_refs.get_mut(declared) {
                // An entry leaves the map with its last reference.
                debug_assert!(entry.refs > 0, "definition {declared} released twice");
                entry.refs = entry.refs.saturating_sub(1);
                if entry.refs == 0 {
                    self.def_refs.remove(declared);
                }
            }
            self.def_refs.entry(*canonical).or_default().refs += 1;
        }
    }

    /// Publishes the stream definitions created by a deployment: one source
    /// definition per alerter binding, and one derived definition per
    /// operator task whose operand identities are resolvable — *every*
    /// produced stream is discoverable, so a later identical subscription can
    /// be covered node by node up to its root and attach to the live output
    /// channel.  Each derived definition carries its canonical channel
    /// identity (the minted `channels[task]`).  Returns the channels of the
    /// derived definitions this deployment owns, plus each definition's
    /// *producing subtree* (the upstream task closure that must stay
    /// deployed while the stream has subscribers).
    fn publish_definitions(
        &mut self,
        placed: &PlacedPlan,
        channels: &[ChannelId],
    ) -> (Vec<ChannelId>, HashMap<ChannelId, Vec<usize>>) {
        // identities[task] = the channel this task's output stream is known
        // as system-wide, when it is discoverable.
        let mut identities: Vec<Option<ChannelId>> = vec![None; placed.tasks.len()];
        // children[task] = producers feeding it, ordered by port.
        let mut children: Vec<Vec<(usize, usize)>> = vec![Vec::new(); placed.tasks.len()];
        for task in &placed.tasks {
            if let Some((consumer, port)) = task.downstream {
                children[consumer].push((port, task.id));
            }
        }
        for list in &mut children {
            list.sort_unstable();
        }
        // The upstream closure of a task: itself plus everything feeding it.
        let upstream = |task: usize| -> Vec<usize> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![task];
            while let Some(t) = stack.pop() {
                if seen.insert(t) {
                    stack.extend(children[t].iter().map(|&(_, child)| child));
                }
            }
            seen.into_iter().collect()
        };

        let mut owned_defs = Vec::new();
        let mut def_tasks = HashMap::new();
        for task in &placed.tasks {
            match &task.kind {
                TaskKind::Source { function, feed, .. } => {
                    if !self.stream_db.contains(*feed) {
                        self.stream_db
                            .publish_channel(*feed, function, String::new(), Vec::new());
                    }
                    identities[task.id] = Some(*feed);
                }
                TaskKind::ChannelSource { channel, .. } => {
                    // "Derived streams are always described with respect to
                    // the original streams, not the replicas" (Section 5):
                    // operators stacked on a replica subscription publish
                    // operand lists naming the origin, so identical plans
                    // keep matching in the reuse queries no matter which
                    // provider each of them attached to.
                    identities[task.id] = Some(self.replicas.origin(channel));
                }
                TaskKind::DynamicSource { .. } => {}
                // A merge tree exchanges partials as values, not reusable
                // streams: a later identical subscription cannot attach
                // mid-window (it would miss every delta already folded into
                // the tree), so its root is not published to the definition
                // database.  Leaving the identity unset also keeps anything
                // downstream unpublished.
                TaskKind::SketchRoot { .. } => {}
                _ => {
                    let operand_ids: Option<Vec<ChannelId>> = children[task.id]
                        .iter()
                        .map(|(_, child)| identities[*child])
                        .collect();
                    let Some(operands) = operand_ids else {
                        continue;
                    };
                    let (operator, parameters) = match &task.kind {
                        TaskKind::Select {
                            simple,
                            patterns,
                            derived,
                            conditions,
                            ..
                        } => (
                            FILTER,
                            select_parameters(simple, patterns, derived, conditions),
                        ),
                        TaskKind::Join {
                            left_key,
                            right_key,
                            residual,
                        } => (JOIN, join_parameters(left_key, right_key, residual)),
                        TaskKind::Union => (UNION, String::new()),
                        TaskKind::Dedup => (DUPLICATE_REMOVAL, String::new()),
                        TaskKind::Restructure { template, .. } => {
                            (RESTRUCTURE, template.source().to_string())
                        }
                        _ => unreachable!("sources handled above"),
                    };
                    let key = channels[task.id];
                    // Ownership follows publication: when another live
                    // deployment already published this key (two `by channel
                    // "X"` roots placed on the same peer), this one must not
                    // take an owner reference it can never release — its
                    // tasks stay its own and are torn down normally.
                    if !self.stream_db.contains(key) {
                        self.stream_db
                            .publish_channel(key, operator, parameters, operands);
                        def_tasks.insert(key, upstream(task.id));
                        owned_defs.push(key);
                    }
                    identities[task.id] = Some(key);
                }
            }
        }
        (owned_defs, def_tasks)
    }
}
