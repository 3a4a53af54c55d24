//! The Monitor: a thin façade over the per-peer runtime.
//!
//! A [`Monitor`] owns the simulated network, the DHT-backed Stream Definition
//! Database, one [`PeerHost`] per participating peer — its alerters, its work
//! queue and the shared two-stage filtering processor of Figure 5 — and the
//! operator of every deployed task, in its subscription's slot.  Drive it by registering peers
//! ([`Monitor::add_peer`]), submitting P2PML subscriptions
//! ([`Monitor::submit`] — compile → reuse → place → deploy, see
//! [`crate::deployment`]), injecting monitored-system events
//! ([`Monitor::inject_soap_call`], …), running rounds
//! ([`Monitor::run_until_idle`], see [`crate::dispatch`]) and reading back
//! results ([`Monitor::results`]) and statistics ([`Monitor::network_stats`],
//! [`Monitor::report`], [`Monitor::peer_filter_stats`],
//! [`Monitor::dispatch_stats`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use p2pmon_alerters::{SoapCall, WsAlerter};
use p2pmon_dht::{ChordNetwork, StreamDefinitionDatabase};
use p2pmon_filter::FilterStats;
use p2pmon_net::{Network, NetworkConfig, NetworkStats, PeerId};
use p2pmon_p2pml::plan::normalize_peer;
use p2pmon_streams::ops::Window;
use p2pmon_streams::{ChannelId, RateTable};
use p2pmon_xmlkit::Element;

use crate::dispatch::{DispatchStats, FanoutEpoch, Route, RouteEntries, RoutingTable};
use crate::peer::PeerHost;
use crate::placement::{PlacedPlan, PlacementStrategy, TaskKind};
use crate::profile::{LifetimeProfile, PhaseClock, UNSUBSCRIBE_PHASES};
use crate::replica::Replicas;
use crate::reuse::{ReuseReport, ReuseStats};
use crate::sink::Sink;
use crate::slots::OperatorSlots;

/// Configuration of a Monitor instance.
///
/// The optimization switches carry an equivalence guarantee: flipping
/// `enable_reuse`, `enable_replicas`, `rate_aware_placement`,
/// `naive_dispatch` or `deep_clone_items` changes *cost*, never delivered
/// results (property-tested).
///
/// # Example
///
/// Start from the defaults and override what the deployment needs:
///
/// ```
/// use p2pmon_core::{Monitor, MonitorConfig};
///
/// let config = MonitorConfig {
///     self_monitor: true, // emit the built-in `monStats` metrics stream
///     ..MonitorConfig::default()
/// };
/// let monitor = Monitor::new(config);
/// assert_eq!(monitor.network_stats().total_messages, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Network simulation parameters.
    pub network: NetworkConfig,
    /// Operator placement strategy.
    pub placement: PlacementStrategy,
    /// History window for stateful joins.
    pub join_window: Window,
    /// Whether the Subscription Manager searches for reusable streams.
    pub enable_reuse: bool,
    /// Whether a subscriber of a remote channel *re-publishes* it as a
    /// replica (Section 5's `<InChannel>` declarations): later consumers then
    /// attach to the closest live copy instead of the origin, and the
    /// consuming peers carry the fan-out hops the origin would otherwise
    /// send.  Off, every consumer pulls from the single origin peer — the
    /// equivalence oracle (sink output is byte-identical either way).
    pub enable_replicas: bool,
    /// Number of DHT nodes backing the Stream Definition Database.
    pub dht_nodes: usize,
    /// Seed for the DHT layout.
    pub seed: u64,
    /// Bypass the per-peer shared filter engine and fan every alert out to
    /// every consumer (each `Select` then re-evaluates its own conditions
    /// linearly).  The pre-decomposition behaviour, kept as an equivalence
    /// oracle for tests and benches.
    pub naive_dispatch: bool,
    /// Deep-copy every stream item at creation instead of sharing one
    /// `Arc<Element>` across consumers.  The zero-copy equivalence oracle:
    /// sink output must be byte-identical either way (a divergence means an
    /// operator mutated a tree it shares with other consumers).  Tests only
    /// — it undoes the zero-copy hot path's whole point.
    pub deep_clone_items: bool,
    /// Ignored; dispatch is sequential.  Kept only because the frozen
    /// `benchmark/` package names it.
    pub workers: usize,
    /// Switches two readers of the measured per-channel rates in the
    /// monitor's [`RateTable`]; off, both fall back to counts.
    ///
    /// * **Join/union placement.**  Multi-input operators are placed to
    ///   minimize *expected bytes moved × latency-weighted hops* from those
    ///   rates plus the network's latency model, instead of input-task
    ///   counts.  Placement is decided per new subscription, so later
    ///   arrivals benefit from rates learned on streams deployed earlier;
    ///   with no measurements yet the choice degrades to the count heuristic.
    /// * **Provider tie-break.**  Among equally-near providers of a stream
    ///   (origin and replicas), reuse picks the least-loaded peer by its
    ///   measured outbound rate instead of the first in origin-then-
    ///   declaration order.
    ///
    /// On the paired-hub storm (seed 1, 256 subscriptions) placement alone
    /// cuts byte·hops from 888 030 to 786 530; the tie-break moves none of
    /// them but cuts origin egress from 7 526 to 6 395 bytes (8 541 with
    /// both off).  A placement optimization, never a semantics change: sink
    /// bytes are byte-identical either way.
    pub rate_aware_placement: bool,
    /// Expose the monitor's own runtime statistics as a built-in monitored
    /// stream: a `monStats(<p>self</p>)` alerter source on the synthetic
    /// peer `self` that, once per [`Monitor::run_until_idle`] call, emits
    /// one `<metric/>` snapshot per measured channel (delta bytes and
    /// current rate), per recorded dispatch round (latency in
    /// microseconds), plus cumulative dispatch/network/reuse/replica
    /// counters.  Aggregate subscriptions over this stream answer
    /// questions like "hottest channels by bytes" (`topk($m.channel, 5,
    /// $m.bytes)`) or "p99 dispatch latency" (`quantile($m.micros,
    /// 0.99)`) with the same sketch plane that monitors everything else.
    pub self_monitor: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            network: NetworkConfig::default(),
            placement: PlacementStrategy::PushToSources,
            join_window: Window::items(4096),
            enable_reuse: true,
            enable_replicas: true,
            dht_nodes: 32,
            seed: 7,
            naive_dispatch: false,
            deep_clone_items: false,
            workers: 1,
            rate_aware_placement: true,
            self_monitor: false,
        }
    }
}

/// The synthetic peer hosting the self-monitoring `monStats` alerter (see
/// [`MonitorConfig::self_monitor`]): subscriptions name it as
/// `monStats(<p>self</p>)`.
pub const SELF_PEER: &str = "self";

/// Handle to a submitted subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionHandle(pub usize);

/// A deployment summary for one subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionReport {
    /// The manager peer.
    pub manager: String,
    /// Number of deployed tasks.
    pub tasks: usize,
    /// Number of plan edges that became network channels.
    pub cross_peer_edges: usize,
    /// Outcome of the reuse search.
    pub reuse: ReuseReport,
    /// The per-subscription slice of the reuse effectiveness measures (the
    /// monitor-wide aggregate, including traffic saved, is
    /// [`Monitor::reuse_stats`]).
    pub reuse_stats: ReuseStats,
    /// Results delivered to the sink so far.
    pub results_delivered: usize,
    /// Per-peer shared-engine statistics for every peer hosting at least one
    /// of this subscription's `Select` tasks.  The engine is shared by all
    /// subscriptions on the peer, so these are peer-level counters.
    pub filter_stats: Vec<(String, FilterStats)>,
}

/// A structural snapshot of the monitor's live bookkeeping, keyed by origin
/// identities (see [`Monitor::bookkeeping_snapshot`]).  Two monitors that
/// processed the same subscribe/unsubscribe history must produce equal
/// snapshots, whatever faults their networks suffered in between.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BookkeepingSnapshot {
    /// Live (non-retired) subscriptions.
    pub subscriptions: usize,
    /// Operator instances installed across all peer hosts.
    pub operators: usize,
    /// Published stream definitions and their reference counts, sorted.
    pub def_refs: Vec<((String, String), usize)>,
    /// Live replica declarations as `(origin, replica peer)`, sorted.
    pub replicas: Vec<((String, String), String)>,
    /// Channel-consumer registrations rolled up to the consumed stream's
    /// origin identity (a consumer counts the same whether it rides the
    /// origin or any replica), sorted.
    pub consumers_by_origin: Vec<((String, String), usize)>,
}

pub(crate) struct DeployedSubscription {
    pub manager: PeerId,
    pub placed: PlacedPlan,
    pub routes: Vec<Route>,
    /// The canonical output channel of every task, minted at deployment time
    /// ([`PlacedPlan::output_channels`]) — one identity shared by routing,
    /// live multicast and the published stream definitions.
    pub channels: Vec<ChannelId>,
    pub sink: Sink,
    pub reuse: ReuseReport,
    /// The channel this subscription publishes (for BY channel clauses) —
    /// the root task's canonical channel, emitted from the producing peer.
    pub published_channel: Option<ChannelId>,
    /// Derived stream definitions this deployment published, by the
    /// canonical channel of the publishing task.  The owner holds one
    /// reference on each; they are retracted when the last reference (owner
    /// or subscriber) is released.
    pub owned_defs: Vec<ChannelId>,
    /// For each owned definition, the ids of the tasks producing it (the
    /// definition's upstream closure, including the publishing task).  While
    /// a definition keeps references, its producing subtree survives
    /// unsubscription.
    pub def_tasks: HashMap<ChannelId, Vec<usize>>,
    /// True once the subscription has been torn down ([`Monitor::unsubscribe`]).
    pub retired: bool,
}

/// Reference-count entry of one published stream definition.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DefEntry {
    /// Live references: one from the owning subscription (derived
    /// definitions), one per deployed task consuming the stream (`Source`
    /// and `ChannelSource` tasks).
    pub refs: usize,
    /// The subscription owning the producing subtree, if any (source
    /// definitions are alerter-bound and have no owner).
    pub owner: Option<usize>,
}

/// The P2P Monitor.
///
/// The façade over the per-peer runtimes: peers are registered with
/// [`Monitor::add_peer`], P2PML subscriptions deployed with
/// [`Monitor::submit`], events injected (e.g.
/// [`Monitor::inject_soap_call`]), and the data plane driven with
/// [`Monitor::run_until_idle`]; delivered alerts are read back per
/// subscription with [`Monitor::results`].
///
/// # Example
///
/// Monitor a web-service peer for calls to one method and read the alert:
///
/// ```
/// use p2pmon_core::{Monitor, MonitorConfig};
/// use p2pmon_alerters::SoapCall;
///
/// let mut monitor = Monitor::new(MonitorConfig::default());
/// monitor.add_peer("mon.org");    // the subscribing manager
/// monitor.add_peer("meteo.com");  // the monitored peer
///
/// let handle = monitor
///     .submit(
///         "mon.org",
///         r#"for $c in inCOM(<p>meteo.com</p>)
///            where $c.callMethod = "GetTemperature"
///            return <seen method="{$c.callMethod}"/>
///            by email "ops@mon.org";"#,
///     )
///     .expect("subscription compiles and deploys");
///
/// monitor.inject_soap_call(&SoapCall::new(
///     1, "http://client.org", "meteo.com", "GetTemperature", 0, 5,
/// ));
/// monitor.run_until_idle();
///
/// let alerts = monitor.results(&handle);
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].attr("method"), Some("GetTemperature"));
/// ```
pub struct Monitor {
    pub(crate) config: MonitorConfig,
    pub(crate) network: Network,
    pub(crate) stream_db: StreamDefinitionDatabase,
    pub(crate) subscriptions: Vec<DeployedSubscription>,
    /// Every deployed task's operator, in its subscription's slot: filled by
    /// a deploy, emptied by a teardown, lent to each host's local phase.
    pub(crate) operators: OperatorSlots,
    /// The per-peer runtimes, keyed by (normalized) peer name.  Nothing
    /// walks them in order — a round reaches its hosts by name, from the
    /// sorted ready list — so the map is the one with the cheap lookup.
    pub(crate) hosts: HashMap<String, PeerHost>,
    /// The ready list: the hosts with an undrained alerter, batched or
    /// queued work, or unflushed sketch state — the only hosts a dispatch
    /// round visits.  Kept in step with [`PeerHost::ready`]; a plain `Vec`
    /// (entered through [`PeerHost::list_on`], sorted once per phase where
    /// peer order matters) because an ordered insert per delivery costs
    /// more than the sort.
    pub(crate) ready: Vec<String>,
    /// Deployment-time routing tables.
    pub(crate) routing: RoutingTable,
    /// Engine-gated dispatch counters.
    pub(crate) dispatch_stats: DispatchStats,
    /// Reference counts (and owners) of every published stream definition,
    /// keyed by its canonical channel — the id placement or
    /// [`PlacedPlan::output_channels`] minted, so no key is built per task.
    pub(crate) def_refs: HashMap<ChannelId, DefEntry>,
    /// Live replica declarations, the origin each replica channel resolves
    /// to, and the re-publication counters.
    pub(crate) replicas: Replicas,
    /// Aggregate reuse effectiveness across deployments (E7).
    pub(crate) reuse_totals: ReuseStats,
    /// Measured per-channel rates: every multicast emission, alerter feed
    /// and sink delivery is observed here.  Rate-aware placement and
    /// load-aware provider selection read it at deployment time.
    pub(crate) rate_table: RateTable,
    /// Ids handed to per-peer engine registrations, globally unique.
    pub(crate) next_filter_id: u64,
    /// Total operator invocations (a processing-cost measure for E6/E7).
    pub operator_invocations: u64,
    /// Wall-clock duration of recent dispatch rounds in microseconds,
    /// recorded only with [`MonitorConfig::self_monitor`] on and drained
    /// into `<metric kind="dispatchRound"/>` items by
    /// [`Monitor::emit_self_metrics`].  Bounded, so an unconsumed buffer
    /// cannot grow without limit.
    pub(crate) round_micros: std::collections::VecDeque<u64>,
    /// Per-channel byte counts already reported through the self-monitoring
    /// stream: channel metrics carry *deltas*, so repeated snapshots sum to
    /// the true totals under the sketch plane's additive merges.
    pub(crate) reported_channel_bytes: HashMap<ChannelId, u64>,
    /// The per-phase split of the last submit ([`Monitor::last_submit_profile`]).
    pub(crate) last_submit: LifetimeProfile,
    /// The per-phase split of the last teardown
    /// ([`Monitor::last_unsubscribe_profile`]).
    last_unsubscribe: LifetimeProfile,
}

impl Monitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        let dht = ChordNetwork::with_nodes(config.dht_nodes.max(1), config.seed);
        Monitor {
            network: Network::new(config.network.clone()),
            stream_db: StreamDefinitionDatabase::new(dht),
            subscriptions: Vec::new(),
            operators: OperatorSlots::default(),
            hosts: HashMap::new(),
            ready: Vec::new(),
            routing: RoutingTable::default(),
            dispatch_stats: DispatchStats::default(),
            def_refs: HashMap::new(),
            replicas: Replicas::default(),
            reuse_totals: ReuseStats::default(),
            rate_table: RateTable::new(),
            next_filter_id: 0,
            operator_invocations: 0,
            round_micros: std::collections::VecDeque::new(),
            reported_channel_bytes: HashMap::new(),
            last_submit: LifetimeProfile::default(),
            last_unsubscribe: LifetimeProfile::default(),
            config,
        }
    }

    /// Always `1`: dispatch is sequential.  Kept, like
    /// [`MonitorConfig::workers`], only because the frozen `benchmark/`
    /// package names it.
    pub fn effective_workers(&self) -> usize {
        1
    }

    /// Registers a peer in both the monitored and the monitoring network.
    pub fn add_peer(&mut self, peer: impl Into<String>) {
        self.host_mut(&normalize_peer(&peer.into()));
    }

    /// All registered peers, sorted.
    pub fn peers(&self) -> Vec<&str> {
        self.network.peers()
    }

    /// The per-peer runtime of a registered peer.
    pub fn peer_host(&self, peer: &str) -> Option<&PeerHost> {
        self.hosts.get(&normalize_peer(peer))
    }

    /// Mutable host accessor used by deployment and dispatch.  A peer nobody
    /// registered is registered here — network and host together — so
    /// routing never dangles; a known peer costs the lookup.
    pub(crate) fn host_mut(&mut self, peer: &str) -> &mut PeerHost {
        self.host_and_epoch(peer).0
    }

    /// [`Monitor::host_mut`], beside the fan-out epoch that registering an
    /// engine gate on the host bumps.
    pub(crate) fn host_and_epoch(&mut self, peer: &str) -> (&mut PeerHost, &mut FanoutEpoch) {
        if !self.hosts.contains_key(peer) {
            self.network.add_peer(peer);
            let mut host = PeerHost::new(peer);
            host.deep_clone_items = self.config.deep_clone_items;
            self.hosts.insert(peer.to_string(), host);
        }
        let host = self.hosts.get_mut(peer).expect("registered above");
        (host, &mut self.routing.epoch)
    }

    /// The current logical time (ms).
    pub fn now(&self) -> u64 {
        self.network.now()
    }

    /// Advances the logical clock (spacing out injected events).
    pub fn advance_time(&mut self, ms: u64) {
        self.network.advance_clock(ms);
    }

    /// Network traffic statistics.
    pub fn network_stats(&self) -> &NetworkStats {
        self.network.stats()
    }

    /// The measured per-channel rates (see [`p2pmon_streams::RateTable`]):
    /// what rate-aware placement and load-aware provider selection consult.
    pub fn rate_table(&self) -> &RateTable {
        &self.rate_table
    }

    /// Expected latency (ms) between two registered peers, from the
    /// network's latency model — the proximity measure placement weighs
    /// bytes with.
    pub fn expected_latency(&self, from: &str, to: &str) -> u64 {
        let (from, to) = (normalize_peer(from), normalize_peer(to));
        if from == to {
            0
        } else {
            self.network.expected_latency(&from, &to)
        }
    }

    /// The Stream Definition Database (e.g. to inspect published streams or
    /// to drive DHT churn experiments).
    pub fn stream_db_mut(&mut self) -> &mut StreamDefinitionDatabase {
        &mut self.stream_db
    }

    /// DHT routing statistics of the Stream Definition Database: every
    /// definition publish and lookup routes through the Chord overlay, and
    /// these counters (operations, total hops, messages) are how the scale
    /// trajectory checks that lookups stay logarithmic in the peer count.
    pub fn dht_stats(&self) -> p2pmon_dht::IndexStats {
        self.stream_db.index_stats()
    }

    /// Number of deployed subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Marks a peer as failed: its alerters stop, its queued work is
    /// discarded and messages to/from it are dropped until it recovers.
    pub fn fail_peer(&mut self, peer: &str) {
        self.network.fail_peer(&normalize_peer(peer));
    }

    /// Recovers a failed peer.
    pub fn recover_peer(&mut self, peer: &str) {
        self.network.recover_peer(&normalize_peer(peer));
    }

    /// True when the peer is currently failed.
    pub fn is_peer_down(&self, peer: &str) -> bool {
        self.network.is_down(normalize_peer(peer))
    }

    /// Splits the network into isolated groups (see
    /// [`p2pmon_net::Network::partition`]): cross-group messages are dropped
    /// and attributed to the partition until [`Monitor::heal_partition`].
    pub fn partition_peers(&mut self, groups: &[Vec<String>]) {
        let normalized: Vec<Vec<String>> = groups
            .iter()
            .map(|g| g.iter().map(|p| normalize_peer(p)).collect())
            .collect();
        let borrowed: Vec<Vec<&str>> = normalized
            .iter()
            .map(|g| g.iter().map(String::as_str).collect())
            .collect();
        self.network.partition(&borrowed);
    }

    /// Heals an active partition.
    pub fn heal_partition(&mut self) {
        self.network.heal();
    }

    /// True when a partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.network.is_partitioned()
    }

    /// Changes the random message-loss probability mid-run (drop-burst
    /// fault injection); decisions stay on the seeded network generator.
    pub fn set_drop_probability(&mut self, probability: f64) {
        self.network.set_drop_probability(probability);
    }

    /// The definition a deployed task holds a reference on while it is
    /// installed: for a source binding its feed, the shared `src-<function>`
    /// stream placement minted at the monitored peer (it names an alerter,
    /// which has no replica), and for a channel subscription the *origin* of
    /// the subscribed channel — a subscriber of a replica still depends on
    /// the origin's producing subtree, and the Stream Definition Database
    /// keys on the origin.
    pub(crate) fn task_def_key(&self, kind: &TaskKind) -> Option<ChannelId> {
        match kind {
            TaskKind::Source { feed, .. } => Some(*feed),
            TaskKind::ChannelSource { channel, .. } => Some(self.replicas.origin(channel)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Subscription teardown
    // ------------------------------------------------------------------

    /// True when the subscription exists and has not been unsubscribed.
    pub fn is_active(&self, handle: &SubscriptionHandle) -> bool {
        self.subscriptions
            .get(handle.0)
            .is_some_and(|sub| !sub.retired)
    }

    /// Tears a subscription down — but only as far as sharing allows.  The
    /// subscription's own references go immediately: its sink freezes, its
    /// owner references on the definitions it published are released, and
    /// every task *not* feeding a still-referenced shared stream is removed
    /// (engine registrations leave the host peers' shared engines via
    /// `PeerHost::unregister_select`, operator instances and queued work are
    /// discarded, routes are retracted).  Tasks producing a stream that other
    /// subscriptions still subscribe to keep running; when the last
    /// subscriber releases such a stream, its definition is retracted and
    /// the teardown cascades through the producing subtree (and through any
    /// upstream retired producers it was itself subscribed to).  Results
    /// already delivered to the sink stay readable.  Returns `false` when
    /// the handle is unknown or already unsubscribed.
    pub fn unsubscribe(&mut self, handle: &SubscriptionHandle) -> bool {
        let idx = handle.0;
        match self.subscriptions.get(idx) {
            Some(sub) if !sub.retired => {}
            _ => return false,
        }
        self.subscriptions[idx].retired = true;
        let mut clock = PhaseClock::start(&UNSUBSCRIBE_PHASES);
        // Release the owner references on the definitions this deployment
        // published (cascading into its own sweep when they reach zero), then
        // sweep whatever the remaining references do not pin.
        let owner_refs = self.subscriptions[idx].owned_defs.clone();
        self.release_refs(owner_refs, &mut clock, "core.unsubscribe.owner_release");
        let released = self.sweep_retired(idx, &mut clock);
        self.release_refs(released, &mut clock, "core.unsubscribe.release");
        self.last_unsubscribe = clock.finish();
        true
    }

    /// The per-phase split of the last successful [`Monitor::unsubscribe`]
    /// (see [`crate::profile`]).
    pub fn last_unsubscribe_profile(&self) -> &LifetimeProfile {
        &self.last_unsubscribe
    }

    /// Releases definition references; every definition whose count reaches
    /// zero is retracted from the Stream Definition Database, and — when its
    /// owning subscription is already retired — the producing subtree is
    /// swept, which may release further references (a chain of retired
    /// producers tears down back to front).  The releases are charged to
    /// `phase`, each nested sweep to its own phases.
    fn release_refs(
        &mut self,
        initial: Vec<ChannelId>,
        clock: &mut PhaseClock,
        phase: &'static str,
    ) {
        let mut pending = initial;
        let mut released = 0;
        while let Some(key) = pending.pop() {
            released += 1;
            let Some(entry) = self.def_refs.get_mut(&key) else {
                continue;
            };
            // An entry leaves the map with its last reference, so a zero
            // here is a double release.
            debug_assert!(entry.refs > 0, "definition {key} released twice");
            entry.refs = entry.refs.saturating_sub(1);
            if entry.refs > 0 {
                continue;
            }
            let owner = entry.owner;
            self.def_refs.remove(&key);
            self.stream_db.retract(&key.peer, &key.stream);
            if let Some(owner) = owner {
                if self.subscriptions[owner].retired {
                    clock.lap(phase, std::mem::take(&mut released));
                    pending.extend(self.sweep_retired(owner, clock));
                }
            }
        }
        clock.lap(phase, released);
    }

    /// Removes every task of a retired subscription that no still-referenced
    /// stream depends on, retracting its routes, engine registrations and
    /// queued work.  A replica's forwarder also stays while another of the
    /// replica's subscribers outlives the sweep (`Replicas::pins`).
    /// Returns the definition references held by the removed tasks (source
    /// bindings and channel subscriptions) and by whatever a drained
    /// forwarder took with it, for the caller to release.  Idempotent:
    /// already-removed tasks are skipped.
    pub(crate) fn sweep_retired(&mut self, idx: usize, clock: &mut PhaseClock) -> Vec<ChannelId> {
        // Tasks pinned by a definition that still has references.
        let mut keep: BTreeSet<usize> = {
            let sub = &self.subscriptions[idx];
            sub.owned_defs
                .iter()
                .filter(|key| self.def_refs.get(*key).is_some_and(|e| e.refs > 0))
                .flat_map(|key| sub.def_tasks.get(key).into_iter().flatten().copied())
                .collect()
        };
        // A pinned forwarder feeds its replica, not this subscription's
        // result, so only a definition keeps the result channel published.
        let producing = !keep.is_empty();

        let mut released = Vec::new();
        // Removed channel subscribers of a replicated origin also release
        // their replica reference: (origin, replica peer, removed task)
        // triples, processed after the route retraction below so orphaned
        // replica subscribers are moved against clean consumer registrations.
        // No release declares a replica, so an origin without one when it is
        // collected has none to release.
        type ReplicaRelease = (ChannelId, PeerId, (usize, usize));
        let mut replica_releases: Vec<ReplicaRelease> = Vec::new();
        let sub = &self.subscriptions[idx];
        // The routing entries the tasks removed now registered in, read off
        // the plan: a leaf's feed, function or current channel, and the
        // channel of every cross-peer edge into one of them.  (A task removed
        // by an earlier sweep took its registrations with it.)
        let mut entries = RouteEntries::default();
        let mut removed_now = vec![false; sub.placed.tasks.len()];
        for task in &sub.placed.tasks {
            if keep.contains(&task.id) {
                continue;
            }
            // The task's stream reference.  (The replica maps are untouched
            // until the releases below, so a replica subscriber's key
            // resolves to the origin's descriptor — the one its reference is
            // on.)
            let ref_key = self.task_def_key(&task.kind);
            // A replica's subscriber outlives this sweep when it is another
            // subscription's or a definition keeps it.
            let replicated = match (&task.kind, ref_key) {
                (TaskKind::ChannelSource { .. }, Some(origin)) => {
                    let outlives = |(s, t): (usize, usize)| s != idx || keep.contains(&t);
                    match self.replicas.pins(
                        &origin,
                        sub.channels[task.id].peer,
                        (idx, task.id),
                        outlives,
                    ) {
                        Some(true) => {
                            keep.insert(task.id);
                            continue;
                        }
                        Some(false) => Some(origin),
                        None => None,
                    }
                }
                _ => None,
            };
            if self.operators.remove(idx, task.id).is_none() {
                continue;
            }
            removed_now[task.id] = true;
            // Only a Select registers an engine gate, so only its host is
            // visited.  (A removed sketch stage leaves its host's flush list
            // in the purge below.)
            if matches!(task.kind, TaskKind::Select { .. }) {
                let host = self.hosts.get_mut(&task.peer);
                let host = host.expect("every placed task's host is created at deployment");
                host.unregister_select(idx, task.id, &mut self.routing.epoch);
            }
            match &task.kind {
                TaskKind::Source { feed, .. } => entries.sources.push(*feed),
                TaskKind::DynamicSource { function, .. } => entries.functions.push(function),
                TaskKind::ChannelSource { channel, .. } => entries.channels.push(*channel),
                _ => {}
            }
            if let Some(origin) = replicated {
                replica_releases.push((origin, sub.channels[task.id].peer, (idx, task.id)));
            }
            released.extend(ref_key);
        }
        for (task, route) in sub.placed.tasks.iter().zip(&sub.routes) {
            if let (Route::Channel { channel }, Some((consumer, _))) = (route, task.downstream) {
                if removed_now[consumer] {
                    entries.channels.push(*channel);
                }
            }
        }
        let emptied = removed_now.iter().filter(|&&removed| removed).count();
        clock.lap("core.unsubscribe.remove", emptied as u64);

        // Route retraction: the removed tasks disappear from every consumer
        // registration (including the channels they subscribed to for
        // reuse); surviving tasks whose local consumer was removed now feed
        // nothing but their own output channel's subscribers.
        let scanned = self.dispatch_stats.registrations_scanned;
        let removed = |sub: usize, task: usize| sub == idx && !keep.contains(&task);
        self.routing
            .retract(&entries, removed, &mut self.dispatch_stats);
        for task in 0..self.subscriptions[idx].routes.len() {
            if !keep.contains(&task) {
                continue;
            }
            if let Route::Local { task: consumer, .. } = self.subscriptions[idx].routes[task] {
                if !keep.contains(&consumer) {
                    self.subscriptions[idx].routes[task] = Route::Dropped;
                    self.routing.epoch.bump();
                }
            }
        }
        let scanned = self.dispatch_stats.registrations_scanned - scanned;
        clock.lap("core.unsubscribe.retract", scanned);

        // In-flight local work and pending sketch state of the removed tasks
        // are discarded (only a host on the ready list can hold any: pending
        // stages keep their host busy); a host left with nothing to do leaves
        // the list with its tasks.
        let purged = self.ready.len();
        for peer in &self.ready {
            self.hosts
                .get_mut(peer)
                .expect("ready peers are hosted")
                .purge_subscription_tasks(idx, &keep);
        }
        self.retire_idle_hosts();
        clock.lap("core.unsubscribe.purge", purged as u64);

        // Replica lifecycle: each removed channel subscriber lets go of its
        // peer's replica of the origin stream — retracting the declaration
        // (and re-attaching orphaned replica subscribers) when it was the
        // last, or draining a retired forwarder it leaves alone.
        let replica_released = replica_releases.len();
        for (origin, peer, removed) in replica_releases {
            released.extend(self.release_replica_consumer(&origin, peer, removed, clock));
        }

        // The published result channel stops existing once its producing
        // subtree is fully gone — unless another subscription publishes
        // under the same identity (colliding BY-channel names on one peer),
        // in which case the survivor keeps the channel and its history.
        if !producing {
            if let Some(channel) = self.subscriptions[idx].published_channel.take() {
                let published = self.routing.published_channels.get_mut(&channel);
                let published = published.expect("a publisher keeps its channel's entry");
                published.publishers -= 1;
                if published.publishers == 0 {
                    self.routing.published_channels.remove(&channel);
                }
            }
        }
        clock.lap("core.unsubscribe.replica", replica_released as u64);
        released
    }

    // ------------------------------------------------------------------
    // Event injection (the monitored systems)
    // ------------------------------------------------------------------

    /// Injects one SOAP RPC exchange into the monitored system.  The call is
    /// observed by the out-call alerter at the caller and the in-call alerter
    /// at the callee (when those alerters exist), and by any dynamic sources.
    pub fn inject_soap_call(&mut self, call: &SoapCall) {
        let caller = normalize_peer(&call.caller);
        let callee = normalize_peer(&call.callee);
        if let Some(host) = self.hosts.get_mut(&caller) {
            if let Some(alerter) = host.alerters.ws_out.as_mut() {
                alerter.observe(call);
                host.list_on(&mut self.ready);
            }
        }
        if let Some(host) = self.hosts.get_mut(&callee) {
            if let Some(alerter) = host.alerters.ws_in.as_mut() {
                alerter.observe(call);
                host.list_on(&mut self.ready);
            }
        }
        // Dynamic sources see every call of their function, and filter by
        // membership themselves.
        if !self.routing.dynamic_consumers("inCOM").is_empty() {
            let alert = WsAlerter::alert_for(call, p2pmon_alerters::CallDirection::Incoming);
            self.feed_dynamic(PeerId::from(&callee), "inCOM", &Arc::new(alert));
        }
        if !self.routing.dynamic_consumers("outCOM").is_empty() {
            let alert = WsAlerter::alert_for(call, p2pmon_alerters::CallDirection::Outgoing);
            self.feed_dynamic(PeerId::from(&caller), "outCOM", &Arc::new(alert));
        }
    }

    /// The host of `peer` with the alerter for `function` installed, entered
    /// on the ready list: the caller is about to feed that alerter (or, for
    /// the ActiveXML repository, hand out the means to), and the next round
    /// must drain it.
    fn alerter_host(&mut self, function: &str, peer: &str) -> &mut PeerHost {
        let peer = normalize_peer(peer);
        self.host_mut(&peer).alerters.ensure(function, &peer);
        let host = self.hosts.get_mut(&peer).expect("registered above");
        host.list_on(&mut self.ready);
        host
    }

    /// Injects a new snapshot of an RSS feed observed at `peer`.
    pub fn inject_rss_snapshot(&mut self, peer: &str, url: &str, feed: &Element) -> usize {
        self.alerter_host("rssFeed", peer)
            .alerters
            .rss
            .as_mut()
            .expect("just ensured")
            .observe_snapshot(url, feed)
    }

    /// Injects a new snapshot of a Web page observed at `peer`.
    pub fn inject_page_snapshot(&mut self, peer: &str, url: &str, page: &Element) -> bool {
        self.alerter_host("webPage", peer)
            .alerters
            .page
            .as_mut()
            .expect("just ensured")
            .observe_snapshot(url, page)
    }

    /// The ActiveXML repository monitored at `peer` (updates applied to it
    /// produce alerts).
    pub fn axml_repository_mut(&mut self, peer: &str) -> &mut p2pmon_activexml::Repository {
        self.alerter_host("axmlUpdate", peer)
            .alerters
            .axml
            .as_mut()
            .expect("just ensured")
            .repository_mut()
    }

    /// Records a membership join in the monitored DHT whose `areRegistered`
    /// alerter runs at `alerter_peer`.
    pub fn inject_peer_join(&mut self, alerter_peer: &str, joining: &str) {
        self.alerter_host("areRegistered", alerter_peer)
            .alerters
            .membership
            .as_mut()
            .expect("just ensured")
            .observe_join(normalize_peer(joining));
    }

    /// Records a membership leave.
    pub fn inject_peer_leave(&mut self, alerter_peer: &str, leaving: &str) {
        self.alerter_host("areRegistered", alerter_peer)
            .alerters
            .membership
            .as_mut()
            .expect("just ensured")
            .observe_leave(&normalize_peer(leaving));
    }

    // ------------------------------------------------------------------
    // Results and reporting
    // ------------------------------------------------------------------

    /// The results delivered to a subscription's sink, in delivery order:
    /// the trees the sink shares with the dispatch plane, not copies.
    pub fn results(&self, handle: &SubscriptionHandle) -> Vec<Arc<Element>> {
        self.subscriptions
            .get(handle.0)
            .map(|s| s.sink.handles())
            .unwrap_or_default()
    }

    /// The subscription's sink (for rendering e-mails, files, RSS feeds).
    pub fn sink(&self, handle: &SubscriptionHandle) -> Option<&Sink> {
        self.subscriptions.get(handle.0).map(|s| &s.sink)
    }

    /// Items published so far on a named channel.  The canonical channel
    /// identity names the *emitting* peer (the root task's host), so the
    /// exact `(peer, name)` key is tried first; for convenience, a lookup by
    /// the managing peer falls back to a unique match on the channel name —
    /// subscribers usually know the channel by the name their subscription
    /// declared, wherever placement put the producer.
    pub fn published_channel(&self, peer: &str, name: &str) -> Vec<Arc<Element>> {
        let exact = ChannelId::new(normalize_peer(peer), name);
        if let Some(published) = self.routing.published_channels.get(&exact) {
            return published.items.clone();
        }
        let mut by_name = self
            .routing
            .published_channels
            .iter()
            .filter(|(channel, _)| channel.stream == name);
        match (by_name.next(), by_name.next()) {
            (Some((_, published)), None) => published.items.clone(),
            _ => Vec::new(),
        }
    }

    /// Total live operator instances across every peer.  With stream reuse
    /// on, duplicates of one subscription shape share the shape's pipeline,
    /// so this stays near the number of *shapes*, not subscriptions — the
    /// quantity the scale trajectory tracks.
    pub fn operator_count(&self) -> usize {
        self.operators.len()
    }

    /// Number of deployed tasks hosted on `peer` (a walk over every
    /// deployed operator).
    pub fn hosted_tasks(&self, peer: &str) -> usize {
        let peer = normalize_peer(peer);
        self.operators
            .iter()
            .filter(|&(sub, task, _)| self.subscriptions[sub].placed.tasks[task].peer == peer)
            .count()
    }

    /// Operators of a subscription still deployed: all of its tasks while
    /// it is active, and after [`Monitor::unsubscribe`] the producing
    /// subtrees other subscriptions still consume.
    pub fn deployed_operators(&self, handle: &SubscriptionHandle) -> usize {
        self.operators.live_of(handle.0)
    }

    /// Operator slots a subscription holds storage for: one per placed task
    /// while any of its operators is deployed, none once the last one left.
    pub fn operator_slots(&self, handle: &SubscriptionHandle) -> usize {
        self.operators.held_by(handle.0)
    }

    /// Total bytes of operator state held by a subscription's stateful
    /// operators (joins, dedups, sketches) — the quantity bounded by the
    /// join window.  Reads the subscription's own slots.
    pub fn state_bytes(&self, handle: &SubscriptionHandle) -> usize {
        let operators = self.operators.of(handle.0);
        operators.map(|(_, operator)| operator.state_size()).sum()
    }

    /// The shared filter engine statistics of one peer.
    pub fn peer_filter_stats(&self, peer: &str) -> Option<FilterStats> {
        self.hosts
            .get(&normalize_peer(peer))
            .map(PeerHost::filter_stats)
    }

    /// Aggregate filter-engine statistics across every peer.
    pub fn filter_stats(&self) -> FilterStats {
        let mut total = FilterStats::default();
        for host in self.hosts.values() {
            total.absorb(&host.filter_stats());
        }
        total
    }

    /// Counters for the engine-gated dispatch path.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch_stats
    }

    /// Emits one self-monitoring snapshot into the `monStats` alerter on the
    /// synthetic peer `self`, when one is installed (i.e. at least one
    /// `monStats(<p>self</p>)` subscription is deployed).  Runs
    /// automatically at the start of every [`Monitor::run_until_idle`] call
    /// with [`MonitorConfig::self_monitor`] on; callers driving
    /// [`Monitor::tick`] by hand can invoke it directly.
    ///
    /// Snapshot contents, one `<metric/>` item per line:
    /// * `kind="channel"` — per measured channel: `channel`, `peer`,
    ///   `bytes` (the delta since the previous snapshot, so repeated
    ///   snapshots stay additive under sketch merges) and `bps`;
    /// * `kind="dispatchRound"` — one per recorded dispatch round:
    ///   `micros` of wall-clock spent in the round's processing phase;
    /// * `kind="dispatch"` / `kind="network"` / `kind="reuse"` /
    ///   `kind="replica"` — cumulative counters.
    pub fn emit_self_metrics(&mut self) {
        let installed = self
            .hosts
            .get(SELF_PEER)
            .is_some_and(|host| host.alerters.mon_stats.is_some());
        if !installed {
            return;
        }
        let now = self.network.now();
        let mut metrics: Vec<Element> = Vec::new();
        let mut channel_deltas: Vec<(ChannelId, u64, f64)> = Vec::new();
        for (channel, stats) in self.rate_table.channels() {
            let reported = self
                .reported_channel_bytes
                .get(channel)
                .copied()
                .unwrap_or(0);
            let delta = stats.bytes.saturating_sub(reported);
            if delta > 0 {
                channel_deltas.push((*channel, delta, stats.bytes_per_second_at(now)));
            }
        }
        for (channel, delta, bps) in channel_deltas {
            *self.reported_channel_bytes.entry(channel).or_insert(0) += delta;
            let mut m = Element::new("metric");
            m.set_attr("kind", "channel");
            m.set_attr("channel", channel.to_string());
            m.set_attr("peer", String::from(channel.peer));
            m.set_attr("bytes", delta.to_string());
            m.set_attr("bps", format!("{bps:.0}"));
            metrics.push(m);
        }
        while let Some(micros) = self.round_micros.pop_front() {
            let mut m = Element::new("metric");
            m.set_attr("kind", "dispatchRound");
            m.set_attr("micros", micros.to_string());
            metrics.push(m);
        }
        let d = self.dispatch_stats;
        let mut m = Element::new("metric");
        m.set_attr("kind", "dispatch");
        m.set_attr("engineDocuments", d.engine_documents.to_string());
        m.set_attr("batchDedupHits", d.batch_dedup_hits.to_string());
        m.set_attr("gatePasses", d.gate_passes.to_string());
        m.set_attr("gateRejections", d.gate_rejections.to_string());
        m.set_attr("plainDeliveries", d.plain_deliveries.to_string());
        m.set_attr("sinkCloneBytes", d.sink_clone_bytes.to_string());
        m.set_attr("hostVisits", d.host_visits.to_string());
        m.set_attr("plansCompiled", d.plans_compiled.to_string());
        m.set_attr("gatesResolved", d.gates_resolved.to_string());
        m.set_attr("operatorInvocations", self.operator_invocations.to_string());
        metrics.push(m);
        let n = self.network.stats();
        let mut m = Element::new("metric");
        m.set_attr("kind", "network");
        m.set_attr("messages", n.total_messages.to_string());
        m.set_attr("bytes", n.total_bytes.to_string());
        m.set_attr("dropped", n.dropped_messages.to_string());
        m.set_attr("multicastSaved", n.multicast_saved_messages.to_string());
        metrics.push(m);
        let r = self.reuse_stats();
        let mut m = Element::new("metric");
        m.set_attr("kind", "reuse");
        m.set_attr("subscriptions", r.subscriptions.to_string());
        m.set_attr("hits", r.hits.to_string());
        m.set_attr("coveredNodes", r.covered_nodes.to_string());
        m.set_attr("operatorsSaved", r.operators_saved.to_string());
        m.set_attr("messagesSaved", r.messages_saved.to_string());
        metrics.push(m);
        let p = r.replicas;
        let mut m = Element::new("metric");
        m.set_attr("kind", "replica");
        m.set_attr("created", p.replicas_created.to_string());
        m.set_attr("retracted", p.replicas_retracted.to_string());
        m.set_attr("viaReplica", p.consumers_via_replica.to_string());
        m.set_attr("viaOrigin", p.consumers_via_origin.to_string());
        metrics.push(m);

        let host = self
            .hosts
            .get_mut(SELF_PEER)
            .expect("checked installed above");
        host.list_on(&mut self.ready);
        host.alerters
            .mon_stats
            .as_mut()
            .expect("checked installed above")
            .extend(metrics);
    }

    /// Aggregate stream-reuse effectiveness (E7): hit rate, covered plan
    /// nodes, operators never deployed, and network messages avoided by
    /// sharing physical streams (the `NetworkStats::multicast_saved_messages`
    /// delta).
    pub fn reuse_stats(&self) -> ReuseStats {
        let mut totals = self.reuse_totals;
        totals.messages_saved = self.network.stats().multicast_saved_messages;
        totals.replicas = self.replica_stats();
        totals
    }

    /// The channels each of the subscription's `ChannelSource` tasks is
    /// *currently* attached to, as `(peer, stream)` pairs in task order.
    /// Unlike the deploy-time [`ReuseReport::subscribed_channels`] snapshot,
    /// this reflects later replica retractions and orphan re-attachments.
    pub fn subscribed_providers(&self, handle: &SubscriptionHandle) -> Vec<(String, String)> {
        self.subscriptions
            .get(handle.0)
            .map(|s| {
                s.placed
                    .tasks
                    .iter()
                    .filter_map(|t| match &t.kind {
                        TaskKind::ChannelSource { channel, .. } => Some(identity(channel)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A structural snapshot of the monitor's live routing / reuse / replica
    /// bookkeeping, keyed entirely by *origin* identities so it is invariant
    /// under which concrete provider (origin or any live replica) serves
    /// each consumer.  The chaos harness compares a faulted run's snapshot
    /// against a fault-free oracle's after heal: faults may reshuffle
    /// providers, but must never leak or lose a reference.
    pub fn bookkeeping_snapshot(&self) -> BookkeepingSnapshot {
        let mut def_refs: Vec<((String, String), usize)> = self
            .def_refs
            .iter()
            .map(|(key, entry)| (identity(key), entry.refs))
            .collect();
        def_refs.sort();
        let mut by_origin: BTreeMap<(String, String), usize> = BTreeMap::new();
        for (channel, consumers) in self.routing.consumed_channels() {
            *by_origin
                .entry(identity(&self.replicas.origin(channel)))
                .or_default() += consumers;
        }
        BookkeepingSnapshot {
            subscriptions: self.subscription_count(),
            operators: self.operator_count(),
            def_refs,
            replicas: self.replicas.live(),
            consumers_by_origin: by_origin.into_iter().collect(),
        }
    }

    /// A deployment / execution report for a subscription.
    pub fn report(&self, handle: &SubscriptionHandle) -> Option<SubscriptionReport> {
        self.subscriptions.get(handle.0).map(|s| {
            let mut select_peers: Vec<String> = s
                .placed
                .tasks
                .iter()
                .filter(|t| matches!(t.kind, TaskKind::Select { .. }))
                .map(|t| t.peer.clone())
                .collect();
            select_peers.sort();
            select_peers.dedup();
            SubscriptionReport {
                manager: s.manager.into(),
                tasks: s.placed.tasks.len(),
                cross_peer_edges: s.placed.cross_peer_edges(),
                // The slice counts a reuse-search attempt, so it stays zero
                // when the search is disabled (matching the aggregate).
                reuse_stats: if self.config.enable_reuse {
                    ReuseStats::of_report(&s.reuse)
                } else {
                    ReuseStats::default()
                },
                reuse: s.reuse.clone(),
                results_delivered: s.sink.len(),
                filter_stats: select_peers
                    .into_iter()
                    .filter_map(|p| self.hosts.get(&p).map(|h| (p, h.filter_stats())))
                    .collect(),
            }
        })
    }
}

/// A channel as the `(peer, stream)` pair the report types and the Stream
/// Definition Database speak.
pub(crate) fn identity(channel: &ChannelId) -> (String, String) {
    (channel.peer.into(), channel.stream.into())
}

#[cfg(test)]
mod tests {
    /// A monitor can be built on one thread and driven on another: what it
    /// keeps across rounds — compiled plans and gate resolutions included — is
    /// owned or `Arc`-shared, never `Rc`.  Fails to compile otherwise.
    #[test]
    fn monitor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<super::Monitor>();
    }
}
