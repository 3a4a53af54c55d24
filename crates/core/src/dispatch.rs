//! Alert, item and channel routing between [`PeerHost`]s.
//!
//! This module carries the monitor's data plane: the routing tables built at
//! deployment time, the engine-gated batched fan-out of alerts into hosted
//! tasks, the per-peer work loops and the channel/network delivery glue.
//!
//! Every dispatch round is a two-phase step, run on the calling thread:
//!
//! 1. **Local phase** — every peer with local work runs `run_peer`, in
//!    peer order, over its own [`PeerHost`] shard: it drains the peer's
//!    `PendingAlert` batch — deduplicating identical documents and running
//!    **one** amortized pass of the shared [`FilterEngine`] (preFilter →
//!    AESFilter → YFilterσ) per unique document
//!    ([`p2pmon_filter::FilterEngine::match_batch`]) — and then runs the
//!    work queue until empty.  Only matched subscriptions' operators
//!    execute; the `Select` operator keeps its LET-derivation /
//!    general-condition tail as the residual check.  Cross-peer outputs are
//!    buffered as `Effect`s; nothing touches the monitor façade.
//! 2. **Commit phase** — the buffered effects are applied in the same peer
//!    order: channel multicasts and publisher deliveries hit the network and
//!    the sinks.  Buffering is what fixes the commit order (a peer's outputs
//!    reach the network only after every peer of the round has run) and what
//!    lets a host be borrowed mutably while the façade's tables are read.
//!
//! Channels are *shared physical streams*: every task output is also
//! multicast on the task's canonical output channel whenever reuse
//! subscribers are attached (`DispatchSnapshot::tap`), and a channel
//! emission sends **one** message per distinct destination peer — all of a
//! peer's subscribers ride it (`Monitor::multicast_plan` groups them once per
//! batch, `Monitor::run_multicast` emits); subscribers hosted on the producing
//! peer attach with no network hop at all.  Messages avoided this way are
//! recorded as `p2pmon_net::NetworkStats::multicast_saved_messages` (E7).
//!
//! **A round costs what it carries.**  In the paper every peer is its own
//! machine, so a peer that observes nothing costs nothing; here one loop plays
//! every peer, so the monitor keeps a *ready list* of the hosts that have
//! something to do — an undrained alerter, batched or queued work, unflushed
//! sketch state — and every phase of [`Monitor::tick`] walks that list, never
//! the deployment.  A host enters the list on its idle→busy transition
//! (`PeerHost::list_on`, an O(1) flag check at every site that feeds an
//! alerter, batches an alert or enqueues work) and leaves at the end of a
//! round it finished idle; the network likewise reports only the inboxes
//! that were written to.  Debug builds re-derive the list from a full walk at
//! the end of every round and assert the two agree.
//!
//! Setting [`crate::MonitorConfig::naive_dispatch`] disables the engine and
//! fans every alert out to every consumer, re-evaluating each `Select`
//! linearly — the pre-decomposition behaviour, kept as a second oracle.
//!
//! [`FilterEngine`]: p2pmon_filter::FilterEngine

use std::collections::HashMap;
use std::sync::Arc;

use p2pmon_net::PeerId;
use p2pmon_streams::binding::TUPLE_TAG;
use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::Element;

use crate::monitor::{DeployedSubscription, Monitor};
use crate::peer::{PeerHost, PendingAlert, Work};
use crate::placement::TaskKind;

/// A list of delivery targets `(subscription, task, port)`.
type Targets = Vec<(usize, usize, usize)>;

/// A shared target list — one alert batch fans out to the same consumers, so
/// the list is built once.
type SharedTargets = Arc<Targets>;

/// How a task's output is routed.  Independently of the route, every task
/// output is also multicast on the task's canonical output channel whenever
/// that channel has live subscribers (stream reuse attaching downstream of a
/// running operator) — see [`DispatchSnapshot::tap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Route {
    /// Same-peer edge: enqueue directly for the consumer task.
    Local { task: usize, port: usize },
    /// Cross-peer edge or published output: multicast on this channel to
    /// every registered consumer.
    Channel { channel: ChannelId },
    /// The plan root: deliver to the subscription's sink (and, when the BY
    /// clause publishes a channel, also to that channel's subscribers).
    Publisher,
    /// The task's plan-internal consumer was torn down, but the task itself
    /// survives because its output stream still has subscribers: outputs go
    /// only to the canonical channel.
    Dropped,
}

/// The deployment-time routing tables shared by every peer.
#[derive(Default)]
pub(crate) struct RoutingTable {
    /// An alerter's source stream ([`source_channel`]) → consumer source
    /// tasks.
    pub source_consumers: HashMap<ChannelId, Vec<(usize, usize)>>,
    /// function → dynamic-source tasks (membership-filtered feeds).
    pub dynamic_consumers: HashMap<String, Vec<(usize, usize)>>,
    /// channel → consumer (subscription, task, port).
    pub channel_consumers: HashMap<ChannelId, Vec<(usize, usize, usize)>>,
    /// Items published on externally visible channels (BY channel clauses).
    pub published_channels: HashMap<ChannelId, Vec<Arc<Element>>>,
}

/// The source stream of the `function` alerter at `peer`: `src-<function>`,
/// published from the monitored peer itself.  Minted where an alerter is
/// installed or a source task deployed; the alert path carries the id.
pub(crate) fn source_channel(function: &str, peer: &str) -> ChannelId {
    ChannelId::new(peer, format!("src-{function}"))
}

/// Counters for the engine-gated dispatch path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Documents run through a peer's shared filter engine.
    pub engine_documents: u64,
    /// Engine passes skipped because an identical document was already
    /// filtered in the same per-peer batch (batched-dispatch dedup).
    pub batch_dedup_hits: u64,
    /// Gated deliveries that passed the engine (residual check still runs).
    pub gate_passes: u64,
    /// Gated deliveries skipped because the engine rejected them — work the
    /// naive path would have spent on a full `Select` evaluation.
    pub gate_rejections: u64,
    /// Deliveries that bypassed the engine (non-Select consumers, tuple
    /// items, or `naive_dispatch` mode).
    pub plain_deliveries: u64,
    /// Deliveries discarded because their host peer was down: queued work
    /// items plus batched alert targets.  Batched targets are counted before
    /// their engine pass runs, so gated targets the engine would have
    /// rejected are included — the counter measures deliveries the peer
    /// never got to attempt, not results lost.
    pub dropped_by_failure: u64,
    /// Bytes deep-copied out of the shared `Arc` plane at sink delivery —
    /// the single remaining copy point of the zero-copy hot path (results
    /// are detached so `Monitor::results` can hand out owned trees).
    pub sink_clone_bytes: u64,
    /// Hosts visited through the ready list by the round phases (alerter
    /// drain, each local-phase turn, sketch flush, inbox delivery, retirement
    /// of idle hosts): bounded by the hosts that had something to do,
    /// whatever the deployment's size.
    pub host_visits: u64,
}

impl DispatchStats {
    /// Accumulates another stats block (merging per-peer counters).
    pub(crate) fn absorb(&mut self, other: &DispatchStats) {
        self.engine_documents += other.engine_documents;
        self.batch_dedup_hits += other.batch_dedup_hits;
        self.gate_passes += other.gate_passes;
        self.gate_rejections += other.gate_rejections;
        self.plain_deliveries += other.plain_deliveries;
        self.dropped_by_failure += other.dropped_by_failure;
        self.sink_clone_bytes += other.sink_clone_bytes;
        self.host_visits += other.host_visits;
    }
}

/// The immutable, deployment-time view every peer's local phase reads:
/// subscription plans and routes.  All per-task mutable state (operators,
/// engines, queues) lives in the per-peer shards, so a local phase never
/// touches the monitor façade.
pub(crate) struct DispatchSnapshot<'a> {
    /// The deployed subscriptions (placements and routes only).
    pub subs: &'a [DeployedSubscription],
    /// The channel-consumer registrations, read-only during a phase: lets a
    /// local phase see whether a task's canonical output channel has live
    /// subscribers (reuse taps) without touching the routing tables.
    pub taps: &'a HashMap<ChannelId, Vec<(usize, usize, usize)>>,
    /// Bypass the shared engines (naive fan-out oracle).
    pub naive_dispatch: bool,
    /// The logical clock at phase start (constant during a phase).
    pub now: u64,
}

/// A channel emission plan: the channel plus its subscribers grouped by
/// destination peer (one shared target list per peer), computed once per
/// batch by [`Monitor::multicast_plan`].
pub(crate) struct MulticastPlan {
    channel: ChannelId,
    by_peer: Vec<(PeerId, SharedTargets)>,
}

/// A side effect a peer's local processing defers to the commit phase.
pub(crate) enum Effect {
    /// Multicast a task output on its channel.
    Channel {
        /// The emitting channel.
        channel: ChannelId,
        /// The shared output tree.
        output: Arc<Element>,
    },
    /// Deliver a plan-root output to the subscription's publisher.
    Result {
        /// The subscription index.
        sub: usize,
        /// The shared output tree.
        output: Arc<Element>,
    },
}

/// Everything one peer's phase produced: buffered cross-peer effects plus
/// the counters to merge into the façade.
#[derive(Default)]
pub(crate) struct PeerEffects {
    /// Deferred effects, in generation order.
    pub effects: Vec<Effect>,
    /// Dispatch counters accumulated by this peer.
    pub stats: DispatchStats,
    /// Operator invocations performed by this peer.
    pub operator_invocations: u64,
}

impl DispatchSnapshot<'_> {
    /// The canonical output channel of a task, when it currently has
    /// subscribers beyond the plan-internal consumer (reuse attachments).
    /// Not consulted for [`Route::Channel`] tasks — there the route's
    /// multicast already reaches every registered consumer.
    fn tap(&self, sub: usize, task: usize) -> Option<&ChannelId> {
        let channel = &self.subs[sub].channels[task];
        match self.taps.get(channel) {
            Some(consumers) if !consumers.is_empty() => Some(channel),
            _ => None,
        }
    }

    /// Resolves the engine gate for one delivery target, if any: either the
    /// target itself is a hosted `Select`, or it is a pass-through source
    /// whose local downstream is one (in which case the pass-through hop is
    /// collapsed and the select becomes the effective target).
    fn resolve_gate(
        &self,
        host: &PeerHost,
        sub: usize,
        task: usize,
        port: usize,
        tuple: bool,
    ) -> Option<(usize, p2pmon_filter::SubscriptionId)> {
        if self.naive_dispatch || port != 0 || tuple {
            return None;
        }
        let placed = &self.subs[sub].placed;
        match &placed.tasks[task].kind {
            TaskKind::Select { .. } => host.gate(sub, task).map(|id| (task, id)),
            // Pass-through sources: gate on (and collapse into) the Select
            // they feed on the same peer.
            TaskKind::Source { .. } | TaskKind::ChannelSource { .. } => {
                // …unless the pass-through's own output channel has live
                // subscribers (a replica forward, or reuse attached below a
                // plan-internal edge): those subscribers get *every* item of
                // the stream, not just what survives the local consumer's
                // filter, so the pass-through must actually run.
                if self.tap(sub, task).is_some() {
                    return None;
                }
                match &self.subs[sub].routes[task] {
                    Route::Local {
                        task: next,
                        port: 0,
                    } if matches!(placed.tasks[*next].kind, TaskKind::Select { .. }) => {
                        host.gate(sub, *next).map(|id| (*next, id))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// Runs one peer's whole local phase: the batched alert dispatch, then the
/// work queue until it is empty.
pub(crate) fn run_peer(host: &mut PeerHost, snapshot: &DispatchSnapshot<'_>) -> PeerEffects {
    let mut out = PeerEffects::default();
    drain_alert_batch(host, snapshot, &mut out);
    while let Some(work) = host.queue.pop_front() {
        execute(host, snapshot, work, &mut out);
    }
    out
}

/// Drains the peer's pending alerts as one batch: resolves every delivery
/// target's engine gate, runs one amortized engine pass per *unique* gated
/// document, and enqueues work for the matched (or ungated) targets.
fn drain_alert_batch(host: &mut PeerHost, snapshot: &DispatchSnapshot<'_>, out: &mut PeerEffects) {
    if host.pending_alerts.is_empty() {
        return;
    }
    let batch = std::mem::take(&mut host.pending_alerts);
    // Gate resolution depends only on the target list and on whether the
    // document is a tuple — never on the document's content — and a whole
    // feed fans out through one shared targets `Arc`, so each distinct
    // (targets, tuple-ness) pair resolves once per batch instead of once per
    // alert.  (All the `Arc`s are alive for the duration of the batch, so
    // pointer identity is a sound cache key.)
    // The resolved form is split by gating so the per-alert loop below never
    // walks rejected targets: ungated targets deliver unconditionally, and
    // gated targets are looked up *from the engine's matched ids* — per
    // alert that is O(matched) instead of O(targets).
    struct ResolvedTargets {
        /// Targets delivered without an engine gate: (sub, task, port).
        ungated: Vec<(usize, usize, usize)>,
        /// Gated targets, sorted by filter id: (id, sub, select_task).
        gated: Vec<(p2pmon_filter::SubscriptionId, usize, usize)>,
    }
    let mut resolution: HashMap<(usize, bool), ResolvedTargets> = HashMap::new();
    let keys: Vec<(usize, bool)> = batch
        .iter()
        .map(|alert| {
            let tuple = alert.doc.name == TUPLE_TAG;
            let key = (Arc::as_ptr(&alert.targets) as usize, tuple);
            resolution.entry(key).or_insert_with(|| {
                let mut ungated = Vec::new();
                let mut gated = Vec::new();
                for &(sub, task, port) in alert.targets.iter() {
                    match snapshot.resolve_gate(host, sub, task, port, tuple) {
                        Some((select_task, id)) => gated.push((id, sub, select_task)),
                        None => ungated.push((sub, task, port)),
                    }
                }
                gated.sort_unstable_by_key(|&(id, _, _)| id);
                ResolvedTargets { ungated, gated }
            });
            key
        })
        .collect();

    // One amortized engine pass per unique document that has at least one
    // gated target in this batch.  `gated_pos[i]` maps a batch position to
    // its position in the engine's input (and thus its outcome index).
    let mut gated_pos: Vec<Option<usize>> = vec![None; batch.len()];
    let mut docs: Vec<&Element> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        if !resolution[key].gated.is_empty() {
            gated_pos[i] = Some(docs.len());
            docs.push(batch[i].doc.as_ref());
        }
    }
    let batch_outcome = host.engine.match_batch(&docs);
    out.stats.engine_documents += batch_outcome.passes() as u64;
    out.stats.batch_dedup_hits += (docs.len() - batch_outcome.passes()) as u64;

    for (i, (alert, key)) in batch.iter().zip(&keys).enumerate() {
        let resolved = &resolution[key];
        for &(sub, task, port) in &resolved.ungated {
            out.stats.plain_deliveries += 1;
            let item = host.make_item(snapshot.now, alert.doc.clone());
            host.enqueue(Work {
                sub,
                task,
                port,
                item,
                prefiltered: false,
            });
        }
        let Some(pos) = gated_pos[i] else { continue };
        // Deliver only to the gated targets the engine matched: the engine's
        // matched set covers the whole host, so each matched id is looked up
        // in this alert's (sorted) gated targets — ids without a target here
        // belong to other feeds and are skipped.
        let outcome = batch_outcome.outcome(pos);
        let mut hits = 0u64;
        for &id in &outcome.matched {
            let mut at = resolved.gated.partition_point(|&(gid, _, _)| gid < id);
            while at < resolved.gated.len() && resolved.gated[at].0 == id {
                let (_, sub, select_task) = resolved.gated[at];
                hits += 1;
                let item = host.make_item(snapshot.now, alert.doc.clone());
                host.enqueue(Work {
                    sub,
                    task: select_task,
                    port: 0,
                    item,
                    prefiltered: true,
                });
                at += 1;
            }
        }
        out.stats.gate_passes += hits;
        out.stats.gate_rejections += resolved.gated.len() as u64 - hits;
    }
}

/// Runs one work item through its operator and routes the outputs: same-peer
/// edges re-enter the host's queue, everything else is buffered as an effect.
fn execute(
    host: &mut PeerHost,
    snapshot: &DispatchSnapshot<'_>,
    work: Work,
    out: &mut PeerEffects,
) {
    out.operator_invocations += 1;
    let Work {
        sub,
        task,
        port,
        item,
        prefiltered,
    } = work;
    let outputs = host.run_operator(sub, task, port, &item, prefiltered);
    if outputs.is_empty() {
        return;
    }
    let route = snapshot.subs[sub].routes[task];
    // Live stream reuse: whatever the plan-internal route, subscribers of
    // the task's canonical output channel receive every output — a covered
    // subtree attaches here, to the producing operator, with no manager hop
    // and no re-deployment.  (A Channel route already multicasts to every
    // registered consumer, taps included.)
    let tap = match &route {
        Route::Channel { .. } => None,
        _ => snapshot.tap(sub, task),
    };
    for output in outputs {
        if let Some(&channel) = tap {
            out.effects.push(Effect::Channel {
                channel,
                output: Arc::clone(&output),
            });
        }
        match route {
            Route::Local { task, port } => {
                let item = host.make_item(snapshot.now, output);
                host.enqueue(Work {
                    sub,
                    task,
                    port,
                    item,
                    prefiltered: false,
                });
            }
            Route::Channel { channel } => out.effects.push(Effect::Channel { channel, output }),
            Route::Publisher => out.effects.push(Effect::Result { sub, output }),
            Route::Dropped => {}
        }
    }
}

impl Monitor {
    /// Enqueues a payload for a task on whichever peer hosts it (item
    /// creation happens on that host).
    pub(crate) fn enqueue_data(
        &mut self,
        sub: usize,
        task: usize,
        port: usize,
        data: impl Into<Arc<Element>>,
    ) {
        let now = self.network.now();
        let peer = &self.subscriptions[sub].placed.tasks[task].peer;
        let host = self
            .hosts
            .get_mut(peer)
            .expect("every placed task's host is created at deployment");
        host.list_on(&mut self.ready);
        let item = host.make_item(now, data);
        host.enqueue(Work {
            sub,
            task,
            port,
            item,
            prefiltered: false,
        });
    }

    /// Feeds an alert to dynamic-source tasks (membership-filtered feeds);
    /// they filter per item, so the engine does not gate them.
    pub(crate) fn feed_dynamic(
        &mut self,
        origin: PeerId,
        consumers: &[(usize, usize)],
        alert: &Arc<Element>,
    ) {
        for &(sub, task) in consumers {
            let task_peer = self.subscriptions[sub].channels[task].peer;
            if task_peer != origin {
                // Account the transfer of the raw alert to the dynamic source.
                self.network
                    .send(origin, task_peer, None, Arc::clone(alert));
            }
            self.enqueue_data(sub, task, 0, Arc::clone(alert));
        }
    }

    /// Drains every live ready peer's alerters into the consuming peers'
    /// alert batches (processed — engine-gated and deduplicated — by the
    /// next dispatch phase).
    pub(crate) fn drain_alerters(&mut self) {
        let mut feeds: Vec<(&'static str, ChannelId, Vec<Element>)> = Vec::new();
        // Feeds fan out in peer order: it fixes the order multicasts reach
        // the network, and with it message ids and delivery order.
        self.ready.sort_unstable();
        self.dispatch_stats.host_visits += self.ready.len() as u64;
        for peer in &self.ready {
            if self.network.is_down(peer) {
                continue;
            }
            let host = self.hosts.get_mut(peer).expect("ready peers are hosted");
            feeds.extend(host.alerters.drain_all());
        }

        // Each feed names its source stream — `src-<function>` at the
        // alerting peer, minted when the alerter was installed — and that one
        // id finds the feed's consumers, its reuse subscribers and its rate.
        for (function, source_channel, alerts) in feeds {
            // Every alert of this feed fans out to the same consumers: build
            // the target list once and share it across the batch.
            let targets: SharedTargets = Arc::new(
                self.routing
                    .source_consumers
                    .get(&source_channel)
                    .into_iter()
                    .flatten()
                    .map(|&(sub, task)| (sub, task, 0))
                    .collect(),
            );
            // Membership alerters feed dynamic sources through the plan
            // itself (port 1), so only non-membership functions are fanned
            // out here.
            let dynamic = match self.routing.dynamic_consumers.get(function) {
                Some(consumers) if function != "areRegistered" => consumers.clone(),
                _ => Vec::new(),
            };
            // Subscribers of the alerter's *published source stream* (other
            // subscriptions that reuse `src-<function>@peer`) receive every
            // alert as one physical multicast from the alerting peer; the
            // per-peer grouping is computed once for the whole feed.
            let source_plan = self.multicast_plan(&source_channel);
            let peer = source_channel.peer.as_str();
            let now = self.network.now();
            for alert in alerts {
                // Wrap once; every consumer below shares the same tree.
                let alert = Arc::new(alert);
                if !targets.is_empty() {
                    let host = self.hosts.get_mut(peer).expect("alerting peer is hosted");
                    host.list_on(&mut self.ready);
                    host.pending_alerts.push(PendingAlert {
                        doc: Arc::clone(&alert),
                        targets: Arc::clone(&targets),
                    });
                }
                // Source-channel rates are measured exactly once per alert:
                // by the multicast when somebody reuses the feed (it sees the
                // same channel id), here otherwise.
                match &source_plan {
                    Some(plan) => self.run_multicast(plan, &alert),
                    None => self
                        .rate_table
                        .observe(source_channel, now, alert.byte_size()),
                }
                if !dynamic.is_empty() {
                    self.feed_dynamic(source_channel.peer, &dynamic, &alert);
                }
            }
        }
    }

    /// Runs dispatch phases until every peer's batch and queue are empty.
    /// Work queued on a downed peer is discarded (the peer's processors are
    /// gone with it).
    pub(crate) fn process_pending(&mut self) {
        // Channel-consumer registrations and placements are immutable while
        // dispatch runs, so one multicast plan per channel serves every
        // commit of this call instead of being regrouped per emitted item.
        let mut plan_cache: HashMap<ChannelId, Option<std::rc::Rc<MulticastPlan>>> = HashMap::new();
        loop {
            // Downed peers lose their batched alerts and queued work (only
            // a listed host can hold either).  The sweep only runs while a
            // failure is active.
            if self.network.any_down() {
                for peer in &self.ready {
                    if !self.network.is_down(peer) {
                        continue;
                    }
                    let host = self.hosts.get_mut(peer).expect("ready peers are hosted");
                    let dropped = host.queue.len() as u64
                        + host
                            .pending_alerts
                            .iter()
                            .map(|alert| alert.targets.len() as u64)
                            .sum::<u64>();
                    if dropped > 0 {
                        host.queue.clear();
                        host.pending_alerts.clear();
                        self.dispatch_stats.dropped_by_failure += dropped;
                    }
                }
            }

            // Local phase: every peer with local work runs over its own
            // shard plus the immutable snapshot, in peer order (the commit
            // below listed new hosts at the tail).
            self.ready.sort_unstable();
            self.dispatch_stats.host_visits += self.ready.len() as u64;
            let snapshot = DispatchSnapshot {
                subs: &self.subscriptions,
                taps: &self.routing.channel_consumers,
                naive_dispatch: self.config.naive_dispatch,
                now: self.network.now(),
            };
            let hosts = &mut self.hosts;
            let results: Vec<PeerEffects> = self
                .ready
                .iter()
                .filter_map(|peer| {
                    let host = hosts.get_mut(peer).expect("ready peers are hosted");
                    host.has_local_work().then(|| run_peer(host, &snapshot))
                })
                .collect();
            if results.is_empty() {
                break;
            }

            // Commit phase: apply the buffered effects in the same peer order.
            for result in results {
                self.dispatch_stats.absorb(&result.stats);
                self.operator_invocations += result.operator_invocations;
                for effect in result.effects {
                    match effect {
                        Effect::Channel { channel, output } => {
                            let plan = plan_cache
                                .entry(channel)
                                .or_insert_with(|| {
                                    self.multicast_plan(&channel).map(std::rc::Rc::new)
                                })
                                .clone();
                            if let Some(plan) = plan {
                                self.run_multicast(&plan, &output);
                            }
                        }
                        Effect::Result { sub, output } => self.deliver_result(sub, output),
                    }
                }
            }
        }
    }

    /// The per-destination-peer grouping of a channel's subscribers, built
    /// once and reused across a batch of emissions (every alert of a feed
    /// fans out to the same consumers).  `None` when nobody subscribes.
    ///
    /// A consumer's peer is read off its task's own canonical channel — an
    /// id, minted beside the placement ([`PlacedPlan::output_channels`]) —
    /// so grouping is integer work per consumer; only the *distinct* peers
    /// are put in name order, which fixes the order the sends reach the
    /// network.
    ///
    /// [`PlacedPlan::output_channels`]: crate::placement::PlacedPlan::output_channels
    pub(crate) fn multicast_plan(&self, channel: &ChannelId) -> Option<MulticastPlan> {
        let consumers = self.routing.channel_consumers.get(channel)?;
        if consumers.is_empty() {
            return None;
        }
        let mut grouped: HashMap<PeerId, Targets> = HashMap::new();
        for &(sub, task, port) in consumers {
            let peer = self.subscriptions[sub].channels[task].peer;
            grouped.entry(peer).or_default().push((sub, task, port));
        }
        let mut by_peer: Vec<(PeerId, SharedTargets)> = grouped
            .into_iter()
            .map(|(peer, targets)| (peer, Arc::new(targets)))
            .collect();
        by_peer.sort_by_cached_key(|&(peer, _)| peer.as_str());
        Some(MulticastPlan {
            channel: *channel,
            by_peer,
        })
    }

    /// Emits one item according to a multicast plan.  The item is sized
    /// once: the rate table and every destination are charged that number.
    pub(crate) fn run_multicast(&mut self, plan: &MulticastPlan, output: &Arc<Element>) {
        let producer = plan.channel.peer;
        let bytes = output.byte_size();
        // Every emitted item updates the channel's measured rate; placement
        // and the replica policy read these through the monitor's rate table.
        let now = self.network.now();
        self.rate_table.observe(plan.channel, now, bytes);
        let mut saved = 0u64;
        let mut sent = 0u64;
        for &(peer, ref targets) in &plan.by_peer {
            if peer == producer {
                // Local attachment: straight into the peer's alert batch.
                if !self.network.is_down(&peer) {
                    saved += targets.len() as u64;
                    let host = self
                        .hosts
                        .get_mut(peer.as_str())
                        .expect("consumer peer is hosted");
                    host.list_on(&mut self.ready);
                    host.pending_alerts.push(PendingAlert {
                        doc: Arc::clone(output),
                        targets: Arc::clone(targets),
                    });
                }
            } else if self
                .network
                .send_sized(
                    producer,
                    peer,
                    Some(plan.channel),
                    Arc::clone(output),
                    bytes,
                )
                .is_some()
            {
                // Only messages that actually went out count as shared; a
                // drop (downed peer, failure injection) saved nothing.
                saved += targets.len() as u64 - 1;
                sent += 1;
            }
        }
        self.network.record_multicast_saving(saved);
        // A multicast on a replica channel is the forwarded hop of replica
        // re-publication: the consuming peer carries fan-out messages the
        // origin would otherwise have sent itself.
        if self.replica_channels.contains_key(&plan.channel) {
            self.network.record_replica_forward(sent);
        }
    }

    /// Delivers a plan-root output to the subscription's sink.  (Channel
    /// subscribers — the BY-channel audience and any reuse attachments — are
    /// served by the root task's canonical-channel multicast, straight from
    /// the producing peer.)  The result is sized once, for the rate table,
    /// the hop to the manager and the sink counter alike.
    fn deliver_result(&mut self, sub_idx: usize, output: Arc<Element>) {
        let sub = &self.subscriptions[sub_idx];
        if sub.retired {
            return;
        }
        let bytes = output.byte_size();
        // The root task's canonical channel names the peer that produced
        // the result.
        let root_channel = sub.channels[sub.placed.root];
        let manager = sub.manager;
        // Keep the root channel's rate fresh even when nobody taps it yet:
        // a later subscription deciding whether to reuse this stream needs a
        // measured rate, and the multicast path (which also observes) only
        // runs once consumers exist.
        let tapped = self
            .routing
            .channel_consumers
            .get(&root_channel)
            .is_some_and(|consumers| !consumers.is_empty());
        if !tapped {
            let now = self.network.now();
            self.rate_table.observe(root_channel, now, bytes);
        }
        // Ship the result from the peer that produced it to the manager's
        // publisher (counted as network traffic when they differ).
        if root_channel.peer != manager {
            self.network
                .send_sized(root_channel.peer, manager, None, Arc::clone(&output), bytes);
        }
        // The sink is the one place a result tree is deep-copied: delivered
        // results are owned history, detached from the shared pipeline.
        self.dispatch_stats.sink_clone_bytes += bytes as u64;
        self.subscriptions[sub_idx].sink.deliver((*output).clone());
        if let Some(channel) = self.subscriptions[sub_idx].published_channel {
            self.routing
                .published_channels
                .entry(channel)
                .or_default()
                .push(output);
        }
    }

    /// Delivers in-flight network messages and batches channel traffic into
    /// the consuming peers' alert inboxes (engine-gated and deduplicated by
    /// the next dispatch phase).  Returns the number of delivered messages.
    pub(crate) fn deliver_network(&mut self) -> usize {
        let delivered = self.network.run_until_idle();
        if delivered == 0 {
            return 0;
        }
        for (peer, inbox) in self.network.take_woken_inboxes() {
            self.dispatch_stats.host_visits += 1;
            // Resolved once per inbox: every use of an interned name as a
            // string goes through the interner's lock.
            let host = self
                .hosts
                .get_mut(peer.as_str())
                .expect("every network peer is hosted");
            // Per-channel targets are the same for every message of a round:
            // compute once and share the list across the batch.
            let mut channel_targets: HashMap<ChannelId, SharedTargets> = HashMap::new();
            for message in inbox {
                let Some(channel) = message.channel else {
                    continue;
                };
                let targets = channel_targets.entry(channel).or_insert_with(|| {
                    Arc::new(
                        self.routing
                            .channel_consumers
                            .get(&channel)
                            .into_iter()
                            .flatten()
                            .copied()
                            .filter(|&(sub, task, _)| {
                                self.subscriptions[sub].channels[task].peer == peer
                            })
                            .collect(),
                    )
                });
                if targets.is_empty() {
                    continue;
                }
                host.list_on(&mut self.ready);
                host.pending_alerts.push(PendingAlert {
                    doc: message.payload,
                    targets: Arc::clone(targets),
                });
            }
        }
        delivered
    }

    /// Round-boundary sketch pass over the ready hosts.  Every non-empty
    /// leaf/merge stage serializes the partial it accumulated this round and
    /// forwards it along the task's normal route — one bounded-size message
    /// per stage per round, however many raw items the stage absorbed — and
    /// every root stage due per its `every` cadence materializes an
    /// `<aggregate>` answer into the subscription's ordinary delivery path.
    /// Returns `true` while any stage flushed or still holds unpropagated
    /// state, so [`Monitor::run_until_idle`] keeps ticking until the merge
    /// tree has fully drained into root answers.
    fn flush_sketches(&mut self) -> bool {
        // Collect first (per-host mutable walk), route after (routing needs
        // the whole façade).  Partials are sorted into (sub, task) order so
        // the committed effects are identical for any order of the ready
        // list, mirroring the deterministic commit phase of
        // `process_pending`.
        let mut flushed: Vec<(usize, usize, Element)> = Vec::new();
        let mut pending = false;
        self.dispatch_stats.host_visits += self.ready.len() as u64;
        for peer in &self.ready {
            // A downed host keeps its deltas for its recovery, and keeps
            // nobody waiting for them.
            if !self.network.is_down(peer) {
                let host = self.hosts.get_mut(peer).expect("ready peers are hosted");
                pending |= host.flush_sketches(&mut flushed);
            }
        }
        let any = !flushed.is_empty();
        flushed.sort_by_key(|entry| (entry.0, entry.1));
        for (sub, task, output) in flushed {
            if self.subscriptions[sub].retired {
                continue;
            }
            match self.subscriptions[sub].routes[task] {
                Route::Local { task: next, port } => self.enqueue_data(sub, next, port, output),
                Route::Channel { channel } => {
                    // The multicast path counts the partial's bytes on the
                    // wire and feeds the channel's measured rate — the
                    // sublinearity the sketch bench gates rides exactly
                    // this accounting.
                    if let Some(plan) = self.multicast_plan(&channel) {
                        self.run_multicast(&plan, &Arc::new(output));
                    }
                }
                Route::Publisher => self.deliver_result(sub, Arc::new(output)),
                Route::Dropped => {}
            }
        }
        any || pending
    }

    /// One simulation round: drain alerters, process local work, flush
    /// sketch stages at the round boundary, deliver network traffic.
    /// Returns `true` when any work was done.
    ///
    /// Every phase walks the ready list — the hosts that have something to
    /// do — so a round costs what it carries, not what is deployed.
    pub fn tick(&mut self) -> bool {
        self.drain_alerters();
        let had_local = self
            .ready
            .iter()
            .any(|peer| self.hosts[peer].has_local_work());
        // With self-monitoring on, the processing phase is timed and the
        // duration recorded for the next `monStats` snapshot (bounded ring,
        // so an unconsumed buffer cannot grow without limit).
        let round_start = self.config.self_monitor.then(std::time::Instant::now);
        self.process_pending();
        if let Some(start) = round_start {
            if self.round_micros.len() >= 4096 {
                self.round_micros.pop_front();
            }
            self.round_micros
                .push_back(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        let flushed = self.flush_sketches();
        let delivered = self.deliver_network();
        self.retire_idle_hosts();
        #[cfg(debug_assertions)]
        self.audit_ready_list();
        had_local || flushed || delivered > 0
    }

    /// Drops from the ready list every host that has nothing left to do.  A
    /// downed host with buffered alerts or sketch deltas stays listed until
    /// its recovery lets a round drain them.
    pub(crate) fn retire_idle_hosts(&mut self) {
        self.dispatch_stats.host_visits += self.ready.len() as u64;
        let hosts = &mut self.hosts;
        self.ready.retain(|peer| {
            let host = hosts.get_mut(peer).expect("ready peers are hosted");
            host.ready = host.is_busy();
            host.ready
        });
    }

    /// The full walk the ready list replaced, kept as its test oracle (debug
    /// builds only, so every `cargo test` round runs it and no measured
    /// build does): no host off the list has anything to do, the list and
    /// the hosts' flags agree, every pending sketch stage is listed on its
    /// host, and no inbox holds a message past the round's delivery.
    #[cfg(debug_assertions)]
    fn audit_ready_list(&self) {
        for (peer, host) in &self.hosts {
            assert!(
                host.ready || !host.is_busy(),
                "{peer} has work but is not on the ready list"
            );
            host.audit_pending_sketches();
        }
        let unread = self.network.unread_peers();
        assert!(
            unread.is_empty(),
            "{unread:?} still have queued messages after the round's delivery"
        );
        let flagged = self.hosts.values().filter(|host| host.ready).count();
        assert_eq!(flagged, self.ready.len(), "ready flags and list disagree");
        for peer in &self.ready {
            assert!(self.hosts[peer].ready, "{peer} is listed but not flagged");
        }
    }

    /// Runs rounds until the system is quiescent.  With
    /// [`MonitorConfig::self_monitor`](crate::MonitorConfig::self_monitor)
    /// on, one self-metrics snapshot is emitted first, so `monStats`
    /// subscribers observe the state the monitor had accumulated before
    /// this call.
    pub fn run_until_idle(&mut self) {
        if self.config.self_monitor {
            self.emit_self_metrics();
        }
        while self.tick() {}
    }
}
