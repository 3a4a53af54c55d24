//! The per-peer runtime: one [`PeerHost`] per participating peer.
//!
//! The paper's Figure 2 peer hosts alerters, stream processors and a *shared*
//! two-stage filtering processor (preFilter → AESFilter → YFilterσ, Figure 5;
//! the third stage evaluates the active subscriptions' tree patterns directly)
//! through which every alert entering the peer flows once, no matter how many
//! hosted subscriptions want it.  `PeerHost` reproduces that decomposition:
//!
//! * the peer's **alerters** (one slot per alerter function, `AlerterSet`),
//! * the peer's **shared [`FilterEngine`]**, holding the simple conditions
//!   and tree patterns of every `Select` task deployed on this peer,
//! * the peer's **alert batch** (`PendingAlert`s awaiting the next
//!   amortized engine pass), the **sketch partials** handed to its merge and
//!   root stages, the sketch stages its next flush must visit, and its
//!   **work queue** of pending `Work` items.
//!
//! The [`RuntimeOperator`] of a task hosted here is not the host's: it lives
//! in its subscription's slot of the monitor's operator store, which a
//! deploy fills with one `Vec` and a teardown empties without visiting a
//! host.  A merge-tree stage hosted here lives in its root's operator, and
//! the host names it by its [`StageId`].  A dispatch round runs each host's
//! local phase with that store beside it, against an immutable routing
//! snapshot of the [`crate::Monitor`] façade, which commits the buffered
//! cross-peer effects afterwards ([`crate::dispatch`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use p2pmon_alerters::{
    Alerter, AxmlAlerter, CallDirection, MembershipAlerter, RssAlerter, WebPageAlerter, WsAlerter,
};
use p2pmon_filter::{EngineMode, FilterEngine, FilterStats, FilterSubscription, SubscriptionId};
use p2pmon_net::{Payload, PeerId, StageId};
use p2pmon_streams::{AnySketch, ChannelId, StreamItem};
use p2pmon_xmlkit::Element;

use crate::dispatch::{source_function, FanoutEpoch, SharedTargets, TargetList};
use crate::runtime::RuntimeOperator;
use crate::slots::OperatorSlots;

/// The monitor's ready list: each listed host's name beside its id, so it
/// sorts into name order with no interner lock (names are unique).
pub(crate) type ReadyList = Vec<(&'static str, PeerId)>;

/// One unit of pending work: an item addressed to a hosted task.
#[derive(Debug, Clone)]
pub(crate) struct Work {
    /// Subscription index.
    pub sub: usize,
    /// Task id within the subscription's placed plan.
    pub task: usize,
    /// Input port of the task.
    pub port: usize,
    /// The item to deliver.
    pub item: StreamItem,
    /// True when the peer's shared engine already verified the simple
    /// conditions and tree patterns of the (Select) task this work is
    /// addressed to — the operator then only runs its residual check
    /// (LET derivations + general conditions).
    pub prefiltered: bool,
}

/// One alert awaiting the peer's next batched dispatch pass, together with
/// its delivery targets `(subscription, task, port)` — all of them tasks
/// hosted on this peer.  The target list is shared (`Arc`) because every
/// alert of a feed or a channel fans out to the same consumers for as long as
/// the deployment stands.
#[derive(Debug, Clone)]
pub(crate) struct PendingAlert {
    /// The alert document (shared with every other consumer of the alert).
    pub doc: Arc<Element>,
    /// Delivery targets on this peer.
    pub targets: SharedTargets,
}

/// The alerter functions in the fixed order a drain visits them.  An
/// alerter's slot in [`AlerterSet`] is its function's index here.
const FUNCTIONS: [&str; 7] = [
    "inCOM",
    "outCOM",
    "rssFeed",
    "webPage",
    "axmlUpdate",
    "areRegistered",
    "monStats",
];
pub(crate) const IN_COM: usize = 0;
pub(crate) const OUT_COM: usize = 1;
pub(crate) const RSS_FEED: usize = 2;
pub(crate) const WEB_PAGE: usize = 3;
pub(crate) const AXML_UPDATE: usize = 4;
pub(crate) const ARE_REGISTERED: usize = 5;
pub(crate) const MON_STATS: usize = 6;

/// The slot of an alerter function.
fn slot_of(function: &str) -> Option<usize> {
    FUNCTIONS.iter().position(|&f| f == function)
}

/// The self-monitoring feed's state (`monStats`): the snapshots the monitor
/// façade builds of its own runtime counters
/// ([`crate::Monitor::emit_self_metrics`]), drained like any other alerter,
/// so aggregate subscriptions ride the normal dispatch path.
#[derive(Default)]
pub(crate) struct MonStats {
    /// Snapshot items not yet drained.
    pub buffer: Vec<Element>,
    /// The `core.round.process_pending` time of recent dispatch rounds in
    /// microseconds, for the next snapshot's `<metric kind="dispatchRound"/>`
    /// items.  Bounded, so an unconsumed buffer cannot grow without limit.
    pub round_micros: VecDeque<u64>,
    /// Per-channel byte counts already reported: channel metrics carry
    /// *deltas*, so repeated snapshots sum to the true totals under the
    /// sketch plane's additive merges.
    pub reported_bytes: HashMap<ChannelId, u64>,
}

/// What an installed alerter is: one of the five alerter types, or the
/// `monStats` state.  The Web-service alerter, installed on every peer a
/// call source watches, is held inline and owns no heap memory while
/// drained, so releasing one frees nothing; the other kinds are boxed to
/// keep the slots small.
pub(crate) enum AlerterKind {
    Ws(WsAlerter),
    Rss(Box<RssAlerter>),
    Page(Box<WebPageAlerter>),
    Axml(Box<AxmlAlerter>),
    Membership(Box<MembershipAlerter>),
    MonStats(Box<MonStats>),
}

impl AlerterKind {
    fn drain(&mut self) -> Vec<Element> {
        match self {
            AlerterKind::Ws(a) => a.drain(),
            AlerterKind::Rss(a) => a.drain(),
            AlerterKind::Page(a) => a.drain(),
            AlerterKind::Axml(a) => a.drain(),
            AlerterKind::Membership(a) => a.drain(),
            AlerterKind::MonStats(m) => std::mem::take(&mut m.buffer),
        }
    }

    fn pending(&self) -> bool {
        match self {
            AlerterKind::Ws(a) => a.pending() > 0,
            AlerterKind::Rss(a) => a.pending() > 0,
            AlerterKind::Page(a) => a.pending() > 0,
            AlerterKind::Axml(a) => a.pending() > 0,
            AlerterKind::Membership(a) => a.pending() > 0,
            AlerterKind::MonStats(m) => !m.buffer.is_empty(),
        }
    }
}

/// One installed alerter and the source stream it feeds (its `Source` task's
/// `feed`, a [`source_channel`](crate::dispatch::source_channel)): a drained
/// feed carries the id instead of rebuilding it from two strings per batch.
struct Installed {
    source: ChannelId,
    kind: AlerterKind,
}

/// The alerters installed on one peer, one slot per alerter function.  A
/// deployed `Source` task installs its function's alerter
/// ([`AlerterSet::install`]); the last reference on its source stream
/// releases it with whatever state it holds ([`AlerterSet::release`]).
#[derive(Default)]
pub(crate) struct AlerterSet([Option<Installed>; 7]);

impl AlerterSet {
    /// Installs the alerter whose source stream is `feed`, a
    /// [`source_channel`](crate::dispatch::source_channel) (idempotent; a
    /// channel that is no alerter's source installs nothing).
    pub fn install(&mut self, feed: ChannelId) {
        let Some(slot) = source_function(&feed).and_then(slot_of) else {
            return;
        };
        self.0[slot].get_or_insert_with(|| {
            let peer = feed.peer.as_str();
            Installed {
                source: feed,
                kind: match slot {
                    IN_COM => AlerterKind::Ws(WsAlerter::new(peer, CallDirection::Incoming)),
                    OUT_COM => AlerterKind::Ws(WsAlerter::new(peer, CallDirection::Outgoing)),
                    RSS_FEED => AlerterKind::Rss(Box::new(RssAlerter::new(peer))),
                    WEB_PAGE => AlerterKind::Page(Box::new(WebPageAlerter::new(peer))),
                    AXML_UPDATE => AlerterKind::Axml(Box::new(AxmlAlerter::new(peer))),
                    ARE_REGISTERED => AlerterKind::Membership(Box::default()),
                    _ => AlerterKind::MonStats(Box::default()),
                },
            }
        });
    }

    /// Drops the alerter feeding `source`, if one is installed, with
    /// everything it buffers and remembers.  The source stream names the
    /// one slot to visit.
    pub fn release(&mut self, source: &ChannelId) {
        if let Some(slot) = source_function(source).and_then(slot_of) {
            if self.0[slot]
                .as_ref()
                .is_some_and(|fed| fed.source == *source)
            {
                self.0[slot] = None;
            }
        }
    }

    /// The alerter installed in `slot` (one of the function indices).
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut AlerterKind> {
        self.0[slot].as_mut().map(|installed| &mut installed.kind)
    }

    /// True when an installed alerter buffers an alert not yet drained.
    pub fn has_pending(&self) -> bool {
        self.0
            .iter()
            .flatten()
            .any(|installed| installed.kind.pending())
    }

    /// Drains every installed alerter, returning `(function, source stream,
    /// alerts)` triples in the fixed function order.
    pub fn drain_all(&mut self) -> Vec<(&'static str, ChannelId, Vec<Element>)> {
        let mut out = Vec::new();
        for (function, slot) in FUNCTIONS.into_iter().zip(&mut self.0) {
            if let Some(installed) = slot {
                let alerts = installed.kind.drain();
                if !alerts.is_empty() {
                    out.push((function, installed.source, alerts));
                }
            }
        }
        out
    }
}

/// A monitoring peer: its alerters, its shared filtering processor and its
/// work queue.
pub struct PeerHost {
    /// The peer (normalized), the key of its host.
    name: PeerId,
    /// The peer's name, resolved once when the host is registered.
    label: &'static str,
    /// The shared two-stage filtering processor for every `Select` task
    /// hosted on this peer.
    pub(crate) engine: FilterEngine,
    /// `(subscription, task)` of a hosted Select → its engine registration.
    gates: HashMap<(usize, usize), SubscriptionId>,
    /// The hosted sketch stages holding state the next round-boundary flush
    /// must visit: a stage is listed exactly while its root reports it
    /// [`RuntimeOperator::stage_pending`] (it enters in
    /// [`PeerHost::run_operator`] or [`PeerHost::absorb_partials`], leaves in
    /// [`PeerHost::flush_sketches`] or
    /// [`PeerHost::purge_subscription_tasks`]), so a flush costs the stages
    /// that absorbed something, not the stages deployed.
    pub(crate) pending_sketches: Vec<StageId>,
    /// True while the host sits on the monitor's ready list (see
    /// [`crate::Monitor::tick`]); only [`PeerHost::list_on`] and
    /// `Monitor::retire_idle_hosts` flip it, in step with the list.
    pub(crate) ready: bool,
    /// Alerts awaiting the next batched dispatch pass.
    pub(crate) pending_alerts: Vec<PendingAlert>,
    /// Sketch partials handed to hosted merge and root stages, in the order
    /// they were handed over: the next local phase absorbs them before
    /// anything else.
    pub(crate) pending_partials: Vec<(StageId, Arc<AnySketch>)>,
    /// Pending work for tasks hosted on this peer.
    pub(crate) queue: VecDeque<Work>,
    /// The alerters installed on this peer.
    pub(crate) alerters: AlerterSet,
    /// Sequence numbers for items created on this peer: monotonic (and
    /// therefore deterministic) per peer.
    next_seq: u64,
    /// Deep-copy every item at creation instead of sharing its `Arc` — the
    /// zero-copy equivalence oracle: with fully isolated trees no operator
    /// can observe another consumer's rewrite, so any divergence from the
    /// shared-`Arc` default is an aliasing bug.
    pub(crate) deep_clone_items: bool,
}

impl PeerHost {
    /// Creates an empty host for `name`.
    pub(crate) fn new(name: impl Into<PeerId>) -> Self {
        let name = name.into();
        PeerHost {
            name,
            label: name.as_str(),
            engine: FilterEngine::new(),
            gates: HashMap::new(),
            pending_sketches: Vec::new(),
            ready: false,
            pending_alerts: Vec::new(),
            pending_partials: Vec::new(),
            queue: VecDeque::new(),
            alerters: AlerterSet::default(),
            next_seq: 0,
            deep_clone_items: false,
        }
    }

    /// The peer's name.
    pub fn name(&self) -> &str {
        self.label
    }

    /// Number of `Select` tasks registered with the shared engine.
    pub fn registered_selects(&self) -> usize {
        self.gates.len()
    }

    /// Alerts parked in the batch awaiting the next dispatch phase.
    pub fn pending_alert_count(&self) -> usize {
        self.pending_alerts.len()
    }

    /// Work items queued for tasks hosted on this peer.
    pub fn queued_work(&self) -> usize {
        self.queue.len()
    }

    /// The shared engine's statistics.
    pub fn filter_stats(&self) -> FilterStats {
        self.engine.stats
    }

    /// Always [`EngineMode::Staged`].  Kept only because the frozen
    /// `benchmark/` package names it.
    #[doc(hidden)]
    pub fn filter_mode(&self) -> EngineMode {
        EngineMode::Staged
    }

    /// Applies `run` to the root operator of a hosted sketch stage, and
    /// lists the stage for the next flush when it turns pending here (an
    /// empty delta absorbed its first item or partial, a clean root its
    /// first partial).
    fn with_stage(
        &mut self,
        slots: &mut OperatorSlots,
        stage: StageId,
        run: impl FnOnce(&mut RuntimeOperator),
    ) {
        let operator = slots
            .get_mut(stage.sub, stage.root)
            .expect("work and partials reach only deployed trees");
        let was_pending = operator.stage_pending(stage.level, stage.slot);
        run(operator);
        if !was_pending && operator.stage_pending(stage.level, stage.slot) {
            self.pending_sketches.push(stage);
        }
    }

    /// Runs one item through a hosted task's operator — for an aggregate's
    /// root, through the leaf of the item's port, which this host runs.
    pub(crate) fn run_operator(
        &mut self,
        slots: &mut OperatorSlots,
        sub: usize,
        task: usize,
        port: usize,
        item: &StreamItem,
        prefiltered: bool,
    ) -> Vec<Arc<Element>> {
        let operator = slots
            .get_mut(sub, task)
            .expect("work reaches only deployed tasks");
        if let RuntimeOperator::SketchRoot { .. } = operator {
            let leaf = StageId {
                sub,
                root: task,
                level: 0,
                slot: port,
            };
            self.with_stage(slots, leaf, |root| {
                root.on_item(port, item);
            });
            return Vec::new();
        }
        if prefiltered {
            operator.on_item_prefiltered(port, item)
        } else {
            operator.on_item(port, item)
        }
    }

    /// Folds every pending partial into the stage it was handed to, in the
    /// order they were handed over; returns how many were absorbed.
    pub(crate) fn absorb_partials(&mut self, slots: &mut OperatorSlots) -> u64 {
        let mut partials = std::mem::take(&mut self.pending_partials);
        let absorbed = partials.len() as u64;
        for (stage, partial) in partials.drain(..) {
            self.with_stage(slots, stage, |root| {
                root.absorb_partial(stage.level, stage.slot, &partial)
            });
        }
        // The emptied list keeps its capacity for the next round.
        self.pending_partials = partials;
        absorbed
    }

    /// Files a channel item that reached this peer in the alert batch, for
    /// its consumers here.
    pub(crate) fn receive(
        &mut self,
        doc: Arc<Element>,
        targets: &SharedTargets,
        ready: &mut ReadyList,
    ) {
        self.list_on(ready);
        self.pending_alerts.push(PendingAlert {
            doc,
            targets: Arc::clone(targets),
        });
    }

    /// Hands a sketch partial to the hosted stage it is addressed to; the
    /// next local phase absorbs it.
    pub(crate) fn hand_partial(
        &mut self,
        to: StageId,
        partial: Arc<AnySketch>,
        ready: &mut ReadyList,
    ) {
        self.list_on(ready);
        self.pending_partials.push((to, partial));
    }

    /// Round-boundary sketch pass over this host's pending stages: leaf and
    /// merge stages hand on their delta (a sketch payload addressed to the
    /// parent stage), a root due per its `every` cadence materializes an
    /// answer (an XML payload); outputs are appended to `out` with the
    /// stage that flushed them.  Stages that flushed clean leave the list;
    /// returns `true` while any stage stays pending (a root still counting
    /// toward its cadence).
    pub(crate) fn flush_sketches(
        &mut self,
        slots: &mut OperatorSlots,
        out: &mut Vec<(StageId, Payload)>,
    ) -> bool {
        self.pending_sketches.retain(|&stage| {
            let root = slots
                .get_mut(stage.sub, stage.root)
                .expect("a teardown's purge unlists a removed stage");
            out.extend(root.flush_stage(stage).map(|output| (stage, output)));
            root.stage_pending(stage.level, stage.slot)
        });
        !self.pending_sketches.is_empty()
    }

    /// True when the host has anything a dispatch round would act on: an
    /// undrained alerter, batched or queued work, handed-over partials, or
    /// unflushed sketch state.
    /// Every host for which this holds is on the monitor's ready list.
    pub(crate) fn is_busy(&self) -> bool {
        self.has_local_work() || !self.pending_sketches.is_empty() || self.alerters.has_pending()
    }

    /// Registers a hosted Select task's simple conditions and tree patterns
    /// with the shared engine (the *offline adjustment* of Figure 5,
    /// performed at deployment time).  Gate resolutions made before it are
    /// stale: the caller hands in the monitor's fan-out epoch to bump.
    pub(crate) fn register_select(
        &mut self,
        sub: usize,
        task: usize,
        filter: FilterSubscription,
        epoch: &mut FanoutEpoch,
    ) {
        epoch.bump();
        self.gates.insert((sub, task), filter.id);
        self.engine.add(filter);
    }

    /// Unregisters a Select task (teardown path), bumping the fan-out epoch
    /// when there was a gate to remove.
    pub(crate) fn unregister_select(
        &mut self,
        sub: usize,
        task: usize,
        epoch: &mut FanoutEpoch,
    ) -> bool {
        match self.gates.remove(&(sub, task)) {
            Some(id) => {
                epoch.bump();
                self.engine.remove(id)
            }
            None => false,
        }
    }

    /// The engine registration gating a hosted Select task, if any.
    pub(crate) fn gate(&self, sub: usize, task: usize) -> Option<SubscriptionId> {
        self.gates.get(&(sub, task)).copied()
    }

    /// Enters the host on the monitor's ready list unless it is there
    /// already.  Every site that hands a host something a dispatch round
    /// must act on — feeding an alerter, batching an alert, enqueuing work —
    /// calls this first; the flag keeps the repeat case to one branch.
    pub(crate) fn list_on(&mut self, ready: &mut ReadyList) {
        if !self.ready {
            self.ready = true;
            ready.push((self.label, self.name));
        }
    }

    /// Wraps a payload as a stream item with this peer's next sequence
    /// number.
    pub(crate) fn make_item(&mut self, now: u64, data: impl Into<Arc<Element>>) -> StreamItem {
        let data = data.into();
        let data = if self.deep_clone_items {
            Arc::new((*data).clone())
        } else {
            data
        };
        let item = StreamItem::new(self.next_seq, now, data);
        self.next_seq += 1;
        item
    }

    /// Enqueues work for a hosted task.
    pub(crate) fn enqueue(&mut self, work: Work) {
        self.queue.push_back(work);
    }

    /// True when the peer has batched alerts, handed-over partials or queued
    /// work to process.
    pub(crate) fn has_local_work(&self) -> bool {
        !self.queue.is_empty()
            || !self.pending_alerts.is_empty()
            || !self.pending_partials.is_empty()
    }

    /// Discards every batched alert target, handed-over partial and queued
    /// work item addressed to a subscription's removed tasks, and unlists
    /// its removed sketch stages (unsubscribe / shared-teardown path).  Tasks
    /// in `keep` — the producing subtrees of streams that still have
    /// subscribers — keep their queued work and their pending state.
    pub(crate) fn purge_subscription_tasks(
        &mut self,
        sub: usize,
        keep: &std::collections::BTreeSet<usize>,
    ) {
        let removed = |s: usize, t: usize| s == sub && !keep.contains(&t);
        self.queue.retain(|work| !removed(work.sub, work.task));
        self.pending_partials
            .retain(|(stage, _)| !removed(stage.sub, stage.root));
        self.pending_sketches
            .retain(|stage| !removed(stage.sub, stage.root));
        for alert in &mut self.pending_alerts {
            let targets = alert.targets.targets();
            if targets.iter().any(|&(s, t, _)| removed(s, t)) {
                let kept = targets.iter().filter(|&&(s, t, _)| !removed(s, t));
                let kept: Vec<_> = kept.copied().collect();
                alert.targets = TargetList::new(alert.targets.epoch(), kept);
            }
        }
        self.pending_alerts
            .retain(|alert| !alert.targets.targets().is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::source_channel;
    use p2pmon_streams::AttrCondition;
    use p2pmon_xmlkit::parse;
    use p2pmon_xmlkit::path::CompareOp;

    #[test]
    fn alerter_set_installs_once_and_drains_in_fixed_order() {
        let mut set = AlerterSet::default();
        set.install(source_channel("outCOM", "a.com"));
        set.install(source_channel("outCOM", "a.com"));
        set.install(source_channel("rssFeed", "a.com"));
        assert!(set.get_mut(OUT_COM).is_some());
        assert!(set.get_mut(IN_COM).is_none());
        let call = p2pmon_alerters::SoapCall::new(1, "a.com", "b.com", "Get", 10, 15);
        let Some(AlerterKind::Ws(alerter)) = set.get_mut(OUT_COM) else {
            panic!("outCOM installs a Web-service alerter");
        };
        alerter.observe(&call);
        let drained = set.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, "outCOM");
        assert_eq!(drained[0].1, ChannelId::new("a.com", "src-outCOM"));
        assert_eq!(drained[0].2.len(), 1);
        assert!(set.drain_all().is_empty(), "drained alerts do not reappear");
    }

    #[test]
    fn select_registration_gates_through_the_shared_engine() {
        let mut host = PeerHost::new("hub.net");
        let filter = FilterSubscription::new(7).with_simple(vec![AttrCondition::new(
            "callMethod",
            CompareOp::Eq,
            "Get",
        )]);
        let mut epoch = FanoutEpoch::default();
        host.register_select(3, 2, filter, &mut epoch);
        assert_ne!(epoch, FanoutEpoch::default(), "a new gate bumps the epoch");
        assert_eq!(host.gate(3, 2), Some(SubscriptionId(7)));
        assert_eq!(host.gate(3, 1), None);
        assert_eq!(host.registered_selects(), 1);
        let hit = parse(r#"<alert callMethod="Get"/>"#).unwrap();
        let miss = parse(r#"<alert callMethod="Put"/>"#).unwrap();
        assert!(host
            .engine
            .process(&hit)
            .matched
            .contains(&SubscriptionId(7)));
        assert!(host.engine.process(&miss).matched.is_empty());
        assert_eq!(host.filter_stats().documents, 2);
        let registered = epoch;
        assert!(host.unregister_select(3, 2, &mut epoch));
        assert_ne!(epoch, registered, "a removed gate bumps the epoch");
        assert!(!host.unregister_select(3, 2, &mut epoch));
        assert_eq!(host.registered_selects(), 0);
    }
}
