//! Alert, item and channel routing between [`PeerHost`]s.
//!
//! This module carries the monitor's data plane: the routing tables built at
//! deployment time, the engine-gated batched fan-out of alerts into hosted
//! tasks, the per-peer work loops and the channel/network delivery glue.
//!
//! Every dispatch round is a two-phase step, run on the calling thread:
//!
//! 1. **Local phase** — every peer with local work runs `run_peer`, in
//!    peer order, over its [`PeerHost`] and the operators of the tasks it
//!    hosts (two `Vec` indexes into the monitor's operator store, a field
//!    apart from the hosts and the snapshot): it folds the sketch
//!    partials handed to the peer's merge and root stages into them, drains
//!    the peer's `PendingAlert` batch — deduplicating identical documents
//!    (an alert batched twice as one `Arc` by address, a copy by its root
//!    and then its whole tree) and running **one** amortized pass of the
//!    shared [`FilterEngine`]
//!    (preFilter → AESFilter → YFilterσ) per unique document
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
//! deployment epoch, `Monitor::run_multicast` emits); subscribers hosted on
//! the producing peer attach with no network hop at all.  Messages avoided
//! this way are recorded as
//! `p2pmon_net::NetworkStats::multicast_saved_messages` (E7).
//!
//! **Deploy compiles, dispatch executes.**  The paper's peer adjusts its
//! shared filter offline, when a subscription is deployed (Figure 5), and
//! from then on only executes.  Three things are compiled from the
//! deployment and read by every batch: a channel's `MulticastPlan`, an
//! alerter feed's target list, and the hosting peer's resolution of the
//! engine gates of each such list (kept in the list itself, `TargetList`:
//! one peer hosts all of a list's targets, so one peer resolves it).  Each
//! is stamped with the monitor's one `FanoutEpoch` and recompiled — by the
//! function that compiled it before it was kept, at the next lookup — only
//! when the stamp is stale.  The epoch is bumped, in O(1), by everything that
//! edits what they are compiled from: the `RoutingTable`'s edit methods (the
//! consumer maps are private behind them; `deploy_plan` attaches,
//! `sweep_retired` retracts through `RoutingTable::retract`, which edits only
//! the entries the removed tasks registered in, and
//! `repoint_channel_consumers` and `reattach_orphaned_consumers` move),
//! `PeerHost::register_select` /
//! `unregister_select`, and the
//! `Route::Dropped` rewrite of a swept subscription.  `fail_peer` /
//! `recover_peer` do not bump: down-ness is read at emission time.  Gates
//! are still resolved at drain time against the current tables: an alert
//! batched before a deploy carries a list of the older epoch, and the drain
//! resolves a copy of it under the current stamp, so it sees the new tap.
//! Debug builds recompile a kept value when a round (a host's batch, for
//! gates) first hits it and assert the kept value equal — nothing edits a
//! deployment while a round runs, so the first hit speaks for the rest — so
//! every `cargo test` round runs the uncached code as the oracle and no
//! measured build does; [`DispatchStats::plans_compiled`] and
//! [`DispatchStats::gates_resolved`] count the real compiles.
//!
//! **A round costs what it carries.**  In the paper every peer is its own
//! machine, so a peer that observes nothing costs nothing; here one loop plays
//! every peer, so the monitor keeps a *ready list* of the hosts that have
//! something to do — an undrained alerter, batched or queued work, handed-over
//! or unflushed sketch state — and every phase of [`Monitor::tick`] walks
//! that list, never the deployment.  A host enters the list on its idle→busy
//! transition (`PeerHost::list_on`, an O(1) flag check at every site that
//! feeds an alerter, batches an alert, hands over a partial or enqueues
//! work) and leaves at the end of a round it finished idle; the network
//! likewise reports only the inboxes that were written to.  Debug builds
//! re-derive the list from a full walk at the end of every round and assert
//! the two agree.
//!
//! Setting [`crate::MonitorConfig::naive_dispatch`] disables the engine and
//! fans every alert out to every consumer, re-evaluating each `Select`
//! linearly — the pre-decomposition behaviour, kept as a second oracle.
//!
//! [`FilterEngine`]: p2pmon_filter::FilterEngine

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use p2pmon_filter::{BatchOutcome, SubscriptionId};
use p2pmon_net::{Payload, PeerId};
use p2pmon_streams::binding::TUPLE_TAG;
use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::Element;

use crate::monitor::{DeployedSubscription, Monitor};
use crate::peer::{PeerHost, PendingAlert, Work};
use crate::placement::TaskKind;
use crate::slots::OperatorSlots;

/// A delivery target `(subscription, task, port)`.
pub(crate) type Target = (usize, usize, usize);

/// A shared target list — every alert of a feed or a channel fans out to the
/// same consumers until the deployment changes, so the list is built once per
/// [`FanoutEpoch`] — together with what its hosting peer made of it.
///
/// Every target of one list is hosted on one peer (a feed's list on the
/// alerting peer, a [`MulticastPlan`] group on the group's peer), so only
/// that peer ever drains it, and its resolution of the list's engine gates is
/// kept here, in the list, rather than in a table of the host's: the drain
/// already holds the list, so finding the resolution touches no memory a
/// table would add.
#[derive(Debug)]
pub(crate) struct TargetList {
    /// The epoch the list was compiled in.  Resolutions are kept only while
    /// it is current: within one epoch every resolution of a list is the same.
    epoch: FanoutEpoch,
    targets: Box<[Target]>,
    /// The gates of `targets` as resolved by the first batch that drained the
    /// list, for ordinary documents and for tuples.
    resolved: [OnceLock<ResolvedTargets>; 2],
}

/// The shared handle every alert of a feed or channel carries.
pub(crate) type SharedTargets = Arc<TargetList>;

impl TargetList {
    /// A list compiled in `epoch`, not yet drained.
    pub(crate) fn new(epoch: FanoutEpoch, targets: impl Into<Box<[Target]>>) -> SharedTargets {
        Arc::new(TargetList {
            epoch,
            targets: targets.into(),
            resolved: Default::default(),
        })
    }

    /// The epoch the list was compiled in.
    pub(crate) fn epoch(&self) -> FanoutEpoch {
        self.epoch
    }

    /// The delivery targets.
    pub(crate) fn targets(&self) -> &[Target] {
        &self.targets
    }
}

/// Two lists are the same fan-out when they were compiled in the same epoch
/// from the same consumers; what their host resolved since is derived state.
impl PartialEq for TargetList {
    fn eq(&self, other: &Self) -> bool {
        (self.epoch, &self.targets) == (other.epoch, &other.targets)
    }
}

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

/// The monitor's one fan-out epoch: a counter bumped by every edit of what a
/// fan-out is compiled from — the [`RoutingTable`]'s consumer registrations,
/// a host's engine gates, a deployed task's [`Route`] or a `ChannelSource`'s
/// channel.  Whatever is compiled from those tables is stamped with the epoch
/// it was compiled in and is valid exactly while the stamp is current; a bump
/// touches nothing else, so the stale entries are found (and replaced) by the
/// next lookup that wants them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FanoutEpoch(u64);

impl FanoutEpoch {
    /// Invalidates every compiled fan-out and gate resolution.
    pub(crate) fn bump(&mut self) {
        self.0 += 1;
    }
}

/// One routing entry: the registered consumers, and the fan-out compiled from
/// them in the epoch it is stamped with.  The compiled form belongs to the
/// entry it was compiled from, so finding it is the lookup that found the
/// consumers, and a stream nobody consumes has nothing to look up.  It is
/// boxed: most entries of a large deployment never carry an item and every
/// operator output probes the channel table for a tap, so an entry is one
/// word larger than its consumer list.
struct Fanout<C, P> {
    consumers: Vec<C>,
    compiled: Option<Box<(FanoutEpoch, P)>>,
}

impl<C, P> Default for Fanout<C, P> {
    fn default() -> Self {
        Fanout {
            consumers: Vec::new(),
            compiled: None,
        }
    }
}

impl<C, P: PartialEq + std::fmt::Debug> Fanout<C, P> {
    /// The entry's compiled fan-out: the kept one when its stamp is current,
    /// else compiled now (counted in `compiles`) and kept.  With `audit` set
    /// — debug builds only, see [`RoutingTable::plan`] — a hit recompiles
    /// and compares: the uncached code is the cache's oracle in every `cargo
    /// test` round, and no measured build pays for it.
    fn compiled(
        &mut self,
        epoch: FanoutEpoch,
        audit: bool,
        compiles: &mut u64,
        compile: impl Fn(&[C]) -> P,
    ) -> &P {
        match self.compiled.as_deref() {
            Some((stamp, plan)) if *stamp == epoch => {
                if audit {
                    assert_eq!(
                        *plan,
                        compile(&self.consumers),
                        "an edit of this fan-out did not bump the epoch"
                    );
                }
            }
            _ => {
                *compiles += 1;
                self.compiled = Some(Box::new((epoch, compile(&self.consumers))));
            }
        }
        let (_, plan) = self.compiled.as_deref().expect("compiled just above");
        plan
    }
}

/// The deployment-time routing tables shared by every peer.
///
/// The three consumer maps are private: they change only through the edit
/// methods below, each of which bumps [`RoutingTable::epoch`], so no edit can
/// leave a compiled fan-out or a resolved gate behind it.  No entry is ever
/// empty — the last retraction removes it.
#[derive(Default)]
pub(crate) struct RoutingTable {
    /// An alerter's source stream ([`source_channel`]) → consumer source
    /// tasks, with the feed's shared target list.
    source_consumers: HashMap<ChannelId, Fanout<(usize, usize), SharedTargets>>,
    /// function → dynamic-source tasks (membership-filtered feeds).
    dynamic_consumers: HashMap<String, Vec<(usize, usize)>>,
    /// channel → consumer (subscription, task, port), with the channel's
    /// multicast plan.
    channel_consumers: HashMap<ChannelId, Fanout<Target, MulticastPlan>>,
    /// Items published on externally visible channels (BY channel clauses).
    pub published_channels: HashMap<ChannelId, PublishedChannel>,
    /// The fan-out epoch (see [`FanoutEpoch`]).  Public within the crate so
    /// the edits that live outside this table — a host's gate registrations,
    /// a route rewrite — bump through the same door.
    pub epoch: FanoutEpoch,
    /// The channels whose kept plan was audited this round (debug builds
    /// only; [`Monitor::tick`] clears it).  Nothing edits a deployment while
    /// a round runs, so a plan's first hit of the round speaks for the rest —
    /// and the audit costs a round what compiling per batch used to.
    #[cfg(debug_assertions)]
    audited: std::collections::HashSet<ChannelId>,
}

impl RoutingTable {
    /// Registers a source task as a consumer of an alerter's source stream.
    pub(crate) fn attach_source(&mut self, source: ChannelId, sub: usize, task: usize) {
        self.epoch.bump();
        let entry = self.source_consumers.entry(source).or_default();
        entry.consumers.push((sub, task));
    }

    /// Registers a dynamic-source task as a consumer of `function`'s alerts.
    pub(crate) fn attach_dynamic(&mut self, function: &str, sub: usize, task: usize) {
        self.epoch.bump();
        let entry = self.dynamic_consumers.entry(function.to_string());
        entry.or_default().push((sub, task));
    }

    /// Registers `(sub, task, port)` as a consumer of `channel`.
    pub(crate) fn attach(&mut self, channel: ChannelId, sub: usize, task: usize, port: usize) {
        self.epoch.bump();
        let entry = self.channel_consumers.entry(channel).or_default();
        entry.consumers.push((sub, task, port));
    }

    /// Drops the registrations of the `(subscription, task)`s matching
    /// `removed` from the entries `named` lists, and the entries left empty.
    /// Only those entries are read (counted in
    /// [`DispatchStats::registrations_scanned`]): a retraction costs the
    /// lists its tasks registered in, not the deployment.  The caller must
    /// name every entry a removed task is registered in; debug builds walk
    /// the whole table afterwards and assert that it did.
    pub(crate) fn retract(
        &mut self,
        named: &RouteEntries<'_>,
        removed: impl Fn(usize, usize) -> bool,
        stats: &mut DispatchStats,
    ) {
        self.epoch.bump();
        let scanned = &mut stats.registrations_scanned;
        for &source in &named.sources {
            let Entry::Occupied(mut entry) = self.source_consumers.entry(source) else {
                continue;
            };
            if retract_from(
                &mut entry.get_mut().consumers,
                |&(s, t)| removed(s, t),
                scanned,
            ) {
                entry.remove();
            }
        }
        for &function in &named.functions {
            let Some(consumers) = self.dynamic_consumers.get_mut(function) else {
                continue;
            };
            if retract_from(consumers, |&(s, t)| removed(s, t), scanned) {
                self.dynamic_consumers.remove(function);
            }
        }
        for &channel in &named.channels {
            let Entry::Occupied(mut entry) = self.channel_consumers.entry(channel) else {
                continue;
            };
            if retract_from(
                &mut entry.get_mut().consumers,
                |&(s, t, _)| removed(s, t),
                scanned,
            ) {
                entry.remove();
            }
        }
        debug_assert!(
            self.source_consumers
                .values()
                .flat_map(|entry| &entry.consumers)
                .chain(self.dynamic_consumers.values().flatten())
                .all(|&(s, t)| !removed(s, t))
                && self
                    .channel_consumers
                    .values()
                    .flat_map(|entry| &entry.consumers)
                    .all(|&(s, t, _)| !removed(s, t)),
            "a removed task is still registered in an entry its retraction did not name"
        );
    }

    /// Takes every consumer registration off `channel`, for the caller to
    /// [`RoutingTable::attach`] elsewhere (a re-pointed declaration, orphan
    /// re-attachment).
    pub(crate) fn detach_all(&mut self, channel: &ChannelId) -> Vec<Target> {
        self.epoch.bump();
        let entry = self.channel_consumers.remove(channel);
        entry.map(|entry| entry.consumers).unwrap_or_default()
    }

    /// True when `channel` has at least one registered consumer.
    pub(crate) fn has_consumers(&self, channel: &ChannelId) -> bool {
        self.channel_consumers.contains_key(channel)
    }

    /// Every consumed channel with its number of registrations.
    pub(crate) fn consumed_channels(&self) -> impl Iterator<Item = (&ChannelId, usize)> {
        self.channel_consumers
            .iter()
            .map(|(channel, entry)| (channel, entry.consumers.len()))
    }

    /// The dynamic-source tasks fed by `function`'s alerts.
    pub(crate) fn dynamic_consumers(&self, function: &str) -> &[(usize, usize)] {
        self.dynamic_consumers
            .get(function)
            .map_or(&[], Vec::as_slice)
    }

    /// The shared target list of an alerter feed — its source tasks, on port
    /// 0 — compiled once per epoch.  `None` when no source task consumes it.
    fn feed_targets(
        &mut self,
        source: &ChannelId,
        stats: &mut DispatchStats,
    ) -> Option<&SharedTargets> {
        let entry = self.source_consumers.get_mut(source)?;
        // One lookup per feed per round: every hit is audited.
        let audit = cfg!(debug_assertions);
        let epoch = self.epoch;
        let compile = |consumers: &[(usize, usize)]| {
            let targets: Vec<Target> = consumers.iter().map(|&(s, t)| (s, t, 0)).collect();
            TargetList::new(epoch, targets)
        };
        Some(entry.compiled(self.epoch, audit, &mut stats.plans_compiled, compile))
    }

    /// The multicast plan of `channel`, compiled once per epoch by
    /// [`MulticastPlan::compile`].  `None` when nobody subscribes.
    fn plan(
        &mut self,
        channel: &ChannelId,
        subs: &[DeployedSubscription],
        stats: &mut DispatchStats,
    ) -> Option<&MulticastPlan> {
        let entry = self.channel_consumers.get_mut(channel)?;
        #[cfg(debug_assertions)]
        let audit = self.audited.insert(*channel);
        #[cfg(not(debug_assertions))]
        let audit = false;
        let epoch = self.epoch;
        let compile =
            |consumers: &[Target]| MulticastPlan::compile(*channel, consumers, subs, epoch);
        Some(entry.compiled(self.epoch, audit, &mut stats.plans_compiled, compile))
    }
}

/// A BY channel's history, and the number of deployments publishing under
/// its identity whose producing subtree is not yet swept (colliding names on
/// one peer share the entry).  The entry goes when the count reaches zero.
#[derive(Default)]
pub(crate) struct PublishedChannel {
    pub publishers: usize,
    pub items: Vec<Arc<Element>>,
}

/// The routing entries a [`RoutingTable::retract`] edits, named from the
/// removed tasks' plan: the alerter feeds their `Source`s consume, the
/// functions their `DynamicSource`s follow, and the channels holding their
/// channel registrations — a `ChannelSource`'s current channel, and the
/// channel of each cross-peer edge into a removed consumer.
#[derive(Default)]
pub(crate) struct RouteEntries<'a> {
    pub sources: Vec<ChannelId>,
    pub functions: Vec<&'a str>,
    pub channels: Vec<ChannelId>,
}

/// Drops the registrations `gone` matches from one consumer list, counting
/// the registrations read; true when the list is left empty.
fn retract_from<C>(consumers: &mut Vec<C>, gone: impl Fn(&C) -> bool, scanned: &mut u64) -> bool {
    *scanned += consumers.len() as u64;
    consumers.retain(|c| !gone(c));
    consumers.is_empty()
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
    /// items, or `naive_dispatch` mode).  Sketch partials are not among
    /// them: they go straight to the stage they are handed to.
    pub plain_deliveries: u64,
    /// Deliveries discarded because their host peer was down: queued work
    /// items, handed-over sketch partials and batched alert targets.
    /// Batched targets are counted before their engine pass runs, so gated
    /// targets the engine would have rejected are included — the counter
    /// measures deliveries the peer never got to attempt, not results lost.
    pub dropped_by_failure: u64,
    /// Bytes deep-copied out of the shared `Arc` plane at sink delivery.
    /// Always 0: a sink keeps the handle the plane shares, so the hot path
    /// copies no result tree from alerter to sink.
    pub sink_clone_bytes: u64,
    /// Hosts visited through the ready list by the round phases (alerter
    /// drain, each local-phase turn, sketch flush, inbox delivery, retirement
    /// of idle hosts): bounded by the hosts that had something to do,
    /// whatever the deployment's size.
    pub host_visits: u64,
    /// Fan-outs compiled: a channel's multicast plan or an alerter feed's
    /// shared target list, each built when a batch wants it and the one kept
    /// from the current deployment epoch is missing or stale.  A standing
    /// deployment compiles what its first batch touches and nothing after.
    pub plans_compiled: u64,
    /// Delivery targets whose engine gate was resolved: the hosting peer
    /// resolves each shared target list once per deployment epoch.  (Like
    /// `plans_compiled`, never counts the debug-build audit's
    /// recompilations.)
    pub gates_resolved: u64,
    /// Consumer registrations read by teardowns: a retraction reads the
    /// lists its removed tasks registered in, whatever else is deployed.
    /// (The debug-build check that nothing else held one is not counted.)
    pub registrations_scanned: u64,
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
        self.plans_compiled += other.plans_compiled;
        self.gates_resolved += other.gates_resolved;
        self.registrations_scanned += other.registrations_scanned;
    }
}

/// The immutable, deployment-time view every peer's local phase reads:
/// subscription plans and routes.  What a local phase mutates is the host
/// (engine, batch, queue) and the operator store, both lent beside this
/// view, so it never touches the rest of the monitor façade.
pub(crate) struct DispatchSnapshot<'a> {
    /// The deployed subscriptions (placements and routes only).
    pub subs: &'a [DeployedSubscription],
    /// The routing tables, read-only during a phase: lets a local phase see
    /// whether a task's canonical output channel has live subscribers (reuse
    /// taps), and which fan-out epoch its gate resolutions belong to.
    pub routing: &'a RoutingTable,
    /// Bypass the shared engines (naive fan-out oracle).
    pub naive_dispatch: bool,
    /// The logical clock at phase start (constant during a phase).
    pub now: u64,
}

/// A channel's compiled fan-out: the channel plus its subscribers grouped by
/// destination peer (one shared target list per peer).  Compiled once per
/// deployment epoch ([`FanoutEpoch`]) and kept in the channel's routing
/// entry; [`Monitor::multicast_plan`] hands it to the emitting side, and the
/// receiving side reads its own group back out of it
/// ([`MulticastPlan::targets_at`]).  Cloning shares the groups.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MulticastPlan {
    channel: ChannelId,
    /// In peer-name order: the order the sends reach the network.
    groups: Arc<[PeerGroup]>,
}

/// One destination peer of a [`MulticastPlan`].
#[derive(Debug, PartialEq)]
struct PeerGroup {
    peer: PeerId,
    /// The channel's consumers hosted on `peer`.
    targets: SharedTargets,
    /// A second order over the same slice: the position of the group whose
    /// peer has the `i`-th smallest symbol, stored in slot `i` — what lets a
    /// receiving peer find its group by integer comparisons.
    by_symbol: u32,
}

impl MulticastPlan {
    /// Groups a channel's consumers by the peer hosting them.
    ///
    /// A consumer's peer is read off its task's own canonical channel — an
    /// id, minted beside the placement ([`PlacedPlan::output_channels`]) —
    /// so grouping is integer work per consumer; only the *distinct* peers
    /// are put in name order, which fixes the order the sends reach the
    /// network.
    ///
    /// [`PlacedPlan::output_channels`]: crate::placement::PlacedPlan::output_channels
    fn compile(
        channel: ChannelId,
        consumers: &[Target],
        subs: &[DeployedSubscription],
        epoch: FanoutEpoch,
    ) -> Self {
        let mut grouped: HashMap<PeerId, Vec<Target>> = HashMap::new();
        for &(sub, task, port) in consumers {
            let peer = subs[sub].channels[task].peer;
            grouped.entry(peer).or_default().push((sub, task, port));
        }
        let mut groups: Vec<PeerGroup> = grouped
            .into_iter()
            .map(|(peer, targets)| PeerGroup {
                peer,
                targets: TargetList::new(epoch, targets),
                by_symbol: 0,
            })
            .collect();
        groups.sort_by_cached_key(|group| group.peer.as_str());
        let mut by_symbol: Vec<u32> = (0..groups.len() as u32).collect();
        by_symbol.sort_unstable_by_key(|&at| groups[at as usize].peer.symbol());
        for (slot, at) in groups.iter_mut().zip(by_symbol) {
            slot.by_symbol = at;
        }
        MulticastPlan {
            channel,
            groups: groups.into(),
        }
    }

    /// The channel's consumers hosted on `peer`: what a message of this
    /// channel arriving there is delivered to.
    fn targets_at(&self, peer: PeerId) -> Option<&SharedTargets> {
        let ranked = |slot: &PeerGroup| &self.groups[slot.by_symbol as usize];
        let slot = self
            .groups
            .binary_search_by_key(&peer.symbol(), |slot| ranked(slot).peer.symbol())
            .ok()?;
        Some(&ranked(&self.groups[slot]).targets)
    }
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
        self.routing.has_consumers(channel).then_some(channel)
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
    ) -> Option<(usize, SubscriptionId)> {
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

    /// Resolves the engine gate of every target of one shared list, split by
    /// gating.  Depends on the target list, on whether the document is a
    /// tuple and on the deployment — never on the document's content.
    fn resolve_targets(&self, host: &PeerHost, targets: &[Target], tuple: bool) -> ResolvedTargets {
        let mut ungated = Vec::new();
        let mut gated = Vec::new();
        for &(sub, task, port) in targets {
            match self.resolve_gate(host, sub, task, port, tuple) {
                Some((select_task, id)) => gated.push((id, sub, select_task)),
                None => ungated.push((sub, task, port)),
            }
        }
        gated.sort_unstable_by_key(|&(id, _, _)| id);
        ResolvedTargets {
            ungated: (!gated.is_empty()).then(|| ungated.into()),
            gated,
        }
    }
}

/// One shared target list with its engine gates resolved, split by gating so
/// the per-alert loop of [`drain_alert_batch`] never walks rejected targets:
/// ungated targets deliver unconditionally, and gated targets are looked up
/// *from the engine's matched ids* — per alert that is O(matched) instead of
/// O(targets).
#[derive(Debug, PartialEq)]
struct ResolvedTargets {
    /// Targets delivered without an engine gate; `None` when no target of
    /// the list is gated — the list is then its own ungated half.
    ungated: Option<Box<[Target]>>,
    /// Gated targets, sorted by filter id: (id, sub, select_task).
    gated: Vec<(SubscriptionId, usize, usize)>,
}

/// Runs one peer's whole local phase: the sketch partials handed to its
/// stages, the batched alert dispatch, then the work queue until it is empty.
pub(crate) fn run_peer(
    host: &mut PeerHost,
    slots: &mut OperatorSlots,
    snapshot: &DispatchSnapshot<'_>,
) -> PeerEffects {
    let mut out = PeerEffects::default();
    out.operator_invocations += host.absorb_partials(slots);
    drain_alert_batch(host, snapshot, &mut out);
    while let Some(work) = host.queue.pop_front() {
        execute(host, slots, snapshot, work, &mut out);
    }
    out
}

/// Drains the peer's pending alerts as one batch: finds every alert's
/// resolved target list — resolving it against the current tables when this
/// is the first batch to drain the list in the current deployment epoch —
/// runs one amortized engine pass per *unique* gated document, and enqueues
/// work for the matched (or ungated) targets.
fn drain_alert_batch(host: &mut PeerHost, snapshot: &DispatchSnapshot<'_>, out: &mut PeerEffects) {
    if host.pending_alerts.is_empty() {
        return;
    }
    let mut batch = std::mem::take(&mut host.pending_alerts);
    // An alert batched before the deployment was last edited carries a list
    // of an older epoch, whose kept resolution (if it has one) predates the
    // edit.  It gets a copy of its list under the current stamp, one per
    // distinct list, so that every list of this batch — batched before the
    // edit or after — resolves against the tables as they are now.
    let epoch = snapshot.routing.epoch;
    let mut restamped: Vec<(SharedTargets, SharedTargets)> = Vec::new();
    for alert in &mut batch {
        if alert.targets.epoch == epoch {
            continue;
        }
        let copied = restamped
            .iter()
            .find(|(stale, _)| Arc::ptr_eq(stale, &alert.targets));
        let current = match copied {
            Some((_, current)) => Arc::clone(current),
            None => {
                let current = TargetList::new(epoch, alert.targets.targets.clone());
                restamped.push((Arc::clone(&alert.targets), Arc::clone(&current)));
                current
            }
        };
        alert.targets = current;
    }
    // Debug builds re-resolve each kept resolution on its first hit of the
    // batch and compare: the uncached resolution is the cache's oracle.
    #[cfg(debug_assertions)]
    let mut audited = std::collections::HashSet::new();
    let resolution: Vec<&ResolvedTargets> = batch
        .iter()
        .map(|alert| {
            let tuple = alert.doc.name == TUPLE_TAG;
            let list = &*alert.targets;
            let slot = &list.resolved[usize::from(tuple)];
            #[cfg(debug_assertions)]
            if let Some(kept) = slot.get() {
                if audited.insert((Arc::as_ptr(&alert.targets), tuple)) {
                    assert_eq!(
                        *kept,
                        snapshot.resolve_targets(host, &list.targets, tuple),
                        "{}: an edit of a gate, a route or a tap did not bump the epoch",
                        host.name()
                    );
                }
            }
            slot.get_or_init(|| {
                out.stats.gates_resolved += list.targets.len() as u64;
                snapshot.resolve_targets(host, &list.targets, tuple)
            })
        })
        .collect();

    // One amortized engine pass per unique document that has at least one
    // gated target in this batch.  `gated_pos[i]` maps a batch position to
    // its position in the engine's input (and thus its outcome index).
    let mut gated_pos: Vec<Option<usize>> = vec![None; batch.len()];
    let mut docs: Vec<&Element> = Vec::new();
    for (i, resolved) in resolution.iter().enumerate() {
        if !resolved.gated.is_empty() {
            gated_pos[i] = Some(docs.len());
            docs.push(batch[i].doc.as_ref());
        }
    }
    let batch_outcome = if docs.is_empty() {
        BatchOutcome::default()
    } else {
        host.engine.match_batch(&docs)
    };
    out.stats.engine_documents += batch_outcome.passes() as u64;
    out.stats.batch_dedup_hits += (docs.len() - batch_outcome.passes()) as u64;

    for (i, (alert, resolved)) in batch.iter().zip(&resolution).enumerate() {
        let ungated = resolved
            .ungated
            .as_deref()
            .unwrap_or(&alert.targets.targets);
        for &(sub, task, port) in ungated {
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
    slots: &mut OperatorSlots,
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
    let outputs = host.run_operator(slots, sub, task, port, &item, prefiltered);
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

    /// Feeds an alert to `function`'s dynamic-source tasks
    /// (membership-filtered feeds); they filter per item, so the engine does
    /// not gate them.
    pub(crate) fn feed_dynamic(&mut self, origin: PeerId, function: &str, alert: &Arc<Element>) {
        // Indexed, not borrowed: enqueuing needs the whole façade, and no
        // step of the loop edits the registrations it walks.
        let consumers = self.routing.dynamic_consumers(function).len();
        for at in 0..consumers {
            let (sub, task) = self.routing.dynamic_consumers(function)[at];
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
            // Every alert of this feed fans out to the same consumers: one
            // shared target list, kept from the first feed of the epoch.
            let targets = self
                .routing
                .feed_targets(&source_channel, &mut self.dispatch_stats)
                .cloned();
            // Membership alerters feed dynamic sources through the plan
            // itself (port 1), so only non-membership functions are fanned
            // out here.
            let dynamic =
                function != "areRegistered" && !self.routing.dynamic_consumers(function).is_empty();
            // Subscribers of the alerter's *published source stream* (other
            // subscriptions that reuse `src-<function>@peer`) receive every
            // alert as one physical multicast from the alerting peer.
            let source_plan = self.multicast_plan(&source_channel);
            let peer = source_channel.peer.as_str();
            let now = self.network.now();
            for alert in alerts {
                // Wrap once; every consumer below shares the same tree.
                let payload = Payload::from(alert);
                let Payload::Xml(alert) = &payload else {
                    unreachable!("an alert is wrapped as a tree");
                };
                if let Some(targets) = &targets {
                    let host = self.hosts.get_mut(peer).expect("alerting peer is hosted");
                    host.list_on(&mut self.ready);
                    host.pending_alerts.push(PendingAlert {
                        doc: Arc::clone(alert),
                        targets: Arc::clone(targets),
                    });
                }
                // Source-channel rates are measured exactly once per alert:
                // by the multicast when somebody reuses the feed (it sees the
                // same channel id), here otherwise.
                match &source_plan {
                    Some(plan) => self.run_multicast(plan, &payload),
                    None => self
                        .rate_table
                        .observe(source_channel, now, alert.byte_size()),
                }
                if dynamic {
                    self.feed_dynamic(source_channel.peer, function, alert);
                }
            }
        }
    }

    /// Runs dispatch phases until every peer's batch and queue are empty.
    /// Work queued on a downed peer is discarded (the peer's processors are
    /// gone with it).
    pub(crate) fn process_pending(&mut self) {
        loop {
            // Downed peers lose their batched alerts, handed-over partials
            // and queued work (only a listed host can hold any).  The sweep
            // only runs while a failure is active.
            if self.network.any_down() {
                for peer in &self.ready {
                    if !self.network.is_down(peer) {
                        continue;
                    }
                    let host = self.hosts.get_mut(peer).expect("ready peers are hosted");
                    let dropped = host.queue.len() as u64
                        + host.pending_partials.len() as u64
                        + host
                            .pending_alerts
                            .iter()
                            .map(|alert| alert.targets.targets().len() as u64)
                            .sum::<u64>();
                    if dropped > 0 {
                        host.queue.clear();
                        host.pending_partials.clear();
                        host.pending_alerts.clear();
                        self.dispatch_stats.dropped_by_failure += dropped;
                    }
                }
            }

            // Local phase: every peer with local work runs over its host
            // and the operator store plus the immutable snapshot, in peer
            // order (the commit below listed new hosts at the tail).
            self.ready.sort_unstable();
            self.dispatch_stats.host_visits += self.ready.len() as u64;
            let snapshot = DispatchSnapshot {
                subs: &self.subscriptions,
                routing: &self.routing,
                naive_dispatch: self.config.naive_dispatch,
                now: self.network.now(),
            };
            let hosts = &mut self.hosts;
            let slots = &mut self.operators;
            let results: Vec<PeerEffects> = self
                .ready
                .iter()
                .filter_map(|peer| {
                    let host = hosts.get_mut(peer).expect("ready peers are hosted");
                    host.has_local_work()
                        .then(|| run_peer(host, slots, &snapshot))
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
                            if let Some(plan) = self.multicast_plan(&channel) {
                                self.run_multicast(&plan, &Payload::Xml(output));
                            }
                        }
                        Effect::Result { sub, output } => self.deliver_result(sub, output),
                    }
                }
            }
        }
    }

    /// The per-destination-peer grouping of a channel's subscribers: compiled
    /// once per deployment epoch, kept in the channel's routing entry and
    /// shared by every emission — an alerter feed's, a committed effect's, a
    /// flushed sketch partial's — until a deploy or a teardown bumps the
    /// epoch.  `None` when nobody subscribes.
    pub(crate) fn multicast_plan(&mut self, channel: &ChannelId) -> Option<MulticastPlan> {
        self.routing
            .plan(channel, &self.subscriptions, &mut self.dispatch_stats)
            .cloned()
    }

    /// Emits one payload according to a multicast plan.  The payload is
    /// sized once: the rate table and every destination are charged that
    /// number.
    pub(crate) fn run_multicast(&mut self, plan: &MulticastPlan, output: &Payload) {
        let producer = plan.channel.peer;
        let bytes = output.byte_size();
        // Every emitted item updates the channel's measured rate; placement
        // and provider selection read these through the monitor's rate table.
        let now = self.network.now();
        self.rate_table.observe(plan.channel, now, bytes);
        let mut saved = 0u64;
        let mut sent = 0u64;
        for &PeerGroup {
            peer, ref targets, ..
        } in plan.groups.iter()
        {
            if peer == producer {
                // Local attachment: straight to the peer's consumers.
                if !self.network.is_down(peer) {
                    saved += targets.targets().len() as u64;
                    let host = self
                        .hosts
                        .get_mut(peer.as_str())
                        .expect("consumer peer is hosted");
                    host.receive(output.clone(), targets, &mut self.ready);
                }
            } else if self
                .network
                .send_sized(producer, peer, Some(plan.channel), output.clone(), bytes)
                .is_some()
            {
                // Only messages that actually went out count as shared; a
                // drop (downed peer, failure injection) saved nothing.
                saved += targets.targets().len() as u64 - 1;
                sent += 1;
            }
        }
        self.network.record_multicast_saving(saved);
        // A multicast on a replica channel is the forwarded hop of replica
        // re-publication: the consuming peer carries fan-out messages the
        // origin would otherwise have sent itself.
        if self.replicas.is_replica(&plan.channel) {
            self.network.record_replica_forward(sent);
        }
    }

    /// Delivers a plan-root output to the subscription's sink.  (Channel
    /// subscribers — the BY-channel audience and any reuse attachments — are
    /// served by the root task's canonical-channel multicast, straight from
    /// the producing peer.)  The result is sized once, for the rate table
    /// and the hop to the manager alike, and the sink keeps its handle.
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
        if !self.routing.has_consumers(&root_channel) {
            let now = self.network.now();
            self.rate_table.observe(root_channel, now, bytes);
        }
        // Ship the result from the peer that produced it to the manager's
        // publisher (counted as network traffic when they differ).
        if root_channel.peer != manager {
            self.network
                .send_sized(root_channel.peer, manager, None, Arc::clone(&output), bytes);
        }
        // The sink keeps the shared tree: every sink of a reused stream and
        // the published channel's history hold one copy of a result.
        let sub = &mut self.subscriptions[sub_idx];
        if let Some(channel) = sub.published_channel {
            self.routing
                .published_channels
                .entry(channel)
                .or_default()
                .items
                .push(Arc::clone(&output));
        }
        sub.sink.deliver(output);
    }

    /// Delivers in-flight network messages and files channel traffic with
    /// the consuming peers: items join the alert batch (engine-gated and
    /// deduplicated by the next dispatch phase), sketch partials are handed
    /// to their stages.  A message's targets are the receiving
    /// peer's group of its channel's [`MulticastPlan`] — the plan the sender
    /// emitted by, compiled once per deployment epoch — not a per-inbox
    /// filter of the channel's consumers.  Returns the number of delivered
    /// messages.
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
            for message in inbox {
                let Some(channel) = message.channel else {
                    continue;
                };
                // The channel's consumers on this peer are this peer's group
                // of the plan the sender emitted by, read on the other side
                // of the wire — from the plan as it is now, so a consumer
                // retracted while the message was in flight is gone.
                let plan =
                    self.routing
                        .plan(&channel, &self.subscriptions, &mut self.dispatch_stats);
                let Some(targets) = plan.and_then(|plan| plan.targets_at(peer)) else {
                    continue;
                };
                host.receive(message.payload, targets, &mut self.ready);
            }
        }
        delivered
    }

    /// Round-boundary sketch pass over the ready hosts.  Every non-empty
    /// leaf/merge stage hands the partial it accumulated this round to its
    /// parent stage, as a value — on the parent's host when the edge is
    /// local, else as one bounded-size message per stage per round, however
    /// many raw items the stage absorbed — and every root stage due per its
    /// `every` cadence materializes an `<aggregate>` answer into the
    /// subscription's ordinary delivery path.  Either way the parent absorbs
    /// the partial in the next round.  Returns `true` while any stage
    /// flushed or still holds unpropagated state, so
    /// [`Monitor::run_until_idle`] keeps ticking until the merge tree has
    /// fully drained into root answers.
    fn flush_sketches(&mut self) -> bool {
        // Collect first (per-host mutable walk), route after (routing needs
        // the whole façade).  Partials are sorted into (sub, task) order so
        // the committed effects are identical for any order of the ready
        // list, mirroring the deterministic commit phase of
        // `process_pending`.
        let mut flushed: Vec<(usize, usize, Payload)> = Vec::new();
        let mut pending = false;
        self.dispatch_stats.host_visits += self.ready.len() as u64;
        for peer in &self.ready {
            // A downed host keeps its deltas for its recovery, and keeps
            // nobody waiting for them.
            if !self.network.is_down(peer) {
                let host = self.hosts.get_mut(peer).expect("ready peers are hosted");
                pending |= host.flush_sketches(&mut self.operators, &mut flushed);
            }
        }
        let any = !flushed.is_empty();
        flushed.sort_by_key(|entry| (entry.0, entry.1));
        for (sub, task, output) in flushed {
            let subscription = &self.subscriptions[sub];
            if subscription.retired {
                continue;
            }
            let route = subscription.routes[task];
            debug_assert!(
                matches!(
                    (&output, route),
                    (
                        Payload::Sketch(_),
                        Route::Local { .. } | Route::Channel { .. }
                    ) | (Payload::Xml(_), Route::Publisher)
                ),
                "placement gives every leaf and merge stage a parent and makes \
                 the root its plan's root"
            );
            match (output, route) {
                (Payload::Sketch(partial), Route::Local { task: parent, .. }) => {
                    let peer = &subscription.placed.tasks[parent].peer;
                    let host = self
                        .hosts
                        .get_mut(peer)
                        .expect("every placed task's host is created at deployment");
                    host.list_on(&mut self.ready);
                    host.pending_partials.push((sub, parent, partial));
                }
                (partial @ Payload::Sketch(_), Route::Channel { channel }) => {
                    // The multicast path charges the partial's wire size to
                    // the network and the channel's measured rate — the
                    // sublinearity the sketch bench gates rides exactly
                    // this accounting.
                    if let Some(plan) = self.multicast_plan(&channel) {
                        self.run_multicast(&plan, &partial);
                    }
                }
                (Payload::Xml(answer), Route::Publisher) => self.deliver_result(sub, answer),
                _ => {}
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
        {
            self.audit_ready_list();
            self.routing.audited.clear();
        }
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
    /// the hosts' flags agree, the sketch stages holding state are exactly
    /// the stages listed on their tasks' hosts, and no inbox holds a message
    /// past the round's delivery.
    #[cfg(debug_assertions)]
    fn audit_ready_list(&self) {
        for (peer, host) in &self.hosts {
            assert!(
                host.ready || !host.is_busy(),
                "{peer} has work but is not on the ready list"
            );
        }
        let mut holding: Vec<(&str, usize, usize)> = self
            .operators
            .iter()
            .filter(|(_, _, operator)| operator.sketch_pending())
            .map(|(sub, task, _)| {
                let peer = self.subscriptions[sub].placed.tasks[task].peer.as_str();
                (peer, sub, task)
            })
            .collect();
        holding.sort_unstable();
        let mut listed: Vec<(&str, usize, usize)> = self
            .hosts
            .iter()
            .flat_map(|(peer, host)| {
                let stages = host.pending_sketches.iter();
                stages.map(move |&(sub, task)| (peer.as_str(), sub, task))
            })
            .collect();
        listed.sort_unstable();
        assert_eq!(
            holding, listed,
            "sketch stages holding state vs stages listed for the flush, as (host, sub, task)"
        );
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
