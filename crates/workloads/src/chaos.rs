//! Deterministic chaos/churn scenarios with conservation invariants.
//!
//! The paper deploys P2PM on systems that fail for real — peers crash,
//! links die, subscribers come and go — but its robustness story is told
//! anecdotally.  This module makes it checkable: a [`ChaosScenario`] is a
//! *declarative* schedule of faults (peer crashes, network partitions,
//! forwarder flapping, correlated cluster failure, message-drop bursts)
//! and churn (mid-run subscribe/unsubscribe) over the clustered
//! replica-locality storm, replayed deterministically from its seed.
//!
//! A [`ChaosRunner`] drives **two** monitors in lockstep over the same
//! topology, submissions, churn and traffic: the *faulty* monitor takes
//! the scheduled network faults, the *oracle* takes none.  After every
//! fault window closes, and again after the final heal, the runner checks
//! the conservation invariants:
//!
//! * **No double delivery** — per subscription, the faulty sink is a
//!   multiset subset of the oracle sink (faults may only *lose* items;
//!   orphan re-attachment must never replay one).
//! * **Every alert accounted** — items missing from a faulty sink are
//!   explained by recorded network drops
//!   (`NetworkStats::dropped_messages` and its per-cause breakdown);
//!   an unexplained loss is a conservation violation.
//! * **Drop accounting identity** — `dropped_messages` equals the
//!   per-cause total and the per-link sum at all times.
//! * **Post-heal convergence** — once every fault heals, a fresh epoch of
//!   identical traffic must reach faulty and oracle sinks byte-identically,
//!   and the origin-keyed `BookkeepingSnapshot`s (definition references,
//!   replica declarations, channel-consumer counts) must be equal: the
//!   routing state converges to the fault-free fixpoint.
//! * **Clean teardown** — unsubscribing everything leaves no operators,
//!   no definition references and no replica declarations behind.
//!
//! Determinism is itself an invariant: [`ChaosRunner::run`] folds the
//! final sinks and network counters into [`ChaosReport::digest`], and
//! replaying the same scenario must reproduce it bit-identically.

use std::collections::BTreeMap;

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;

use crate::OverlappingStorm;

/// One scheduled fault (or churn event) of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Round the fault starts (rounds are the scenario's unit of time:
    /// one batch of traffic plus a run-to-quiescence).
    pub at_round: u64,
    /// Rounds the fault stays active; the window closes — and the fault
    /// heals — *before* round `at_round + duration` injects its traffic.
    /// Point events ([`FaultKind::Subscribe`], [`FaultKind::Unsubscribe`])
    /// ignore it.
    pub duration: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// The fault vocabulary.  Network faults hit only the faulty monitor;
/// churn ([`FaultKind::Subscribe`] / [`FaultKind::Unsubscribe`]) is part
/// of the *workload* and is applied to the oracle too.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The named peers crash at the window start and recover at its end.
    Crash { peers: Vec<String> },
    /// The network splits into the given groups (peers not listed share
    /// one implicit group); heals at the window end.
    Partition { groups: Vec<Vec<String>> },
    /// The peer toggles down/up every `period` rounds inside the window
    /// (down on the first toggle), ending up — forcibly — recovered.
    Flap { peer: String, period: u64 },
    /// Every message is dropped with this probability during the window.
    DropBurst { probability: f64 },
    /// Subscription `index` (of the storm's numbering) is submitted at
    /// its manager peer — in both monitors.
    Subscribe { index: usize },
    /// The handle of subscription `index` is unsubscribed — in both
    /// monitors.
    Unsubscribe { index: usize },
}

impl Fault {
    fn end(&self) -> u64 {
        self.at_round + self.duration
    }

    fn is_window(&self) -> bool {
        !matches!(
            self.kind,
            FaultKind::Subscribe { .. } | FaultKind::Unsubscribe { .. }
        )
    }
}

/// A declarative chaos scenario: topology, workload rates and a fault
/// schedule, all derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name (stable — benchmark and gate rows key on it).
    pub name: String,
    /// Seed for the storm (subscription texts, traffic, drop decisions).
    pub seed: u64,
    /// Consumer clusters of the clustered [`OverlappingStorm`].
    pub clusters: usize,
    /// Consumer peers per cluster.
    pub peers_per_cluster: usize,
    /// Distinct subscription shapes.
    pub shapes: usize,
    /// Subscriptions deployed before round 0.
    pub base_subscriptions: usize,
    /// Traffic rounds driven through the schedule.
    pub rounds: u64,
    /// SOAP calls injected per round.
    pub calls_per_round: usize,
    /// Calls of the post-heal convergence epoch.
    pub convergence_calls: usize,
    /// The fault schedule.
    pub faults: Vec<Fault>,
}

impl ChaosScenario {
    /// A baseline scenario over 2 clusters × 3 consumer peers with 2
    /// shapes and 8 base subscriptions — enough duplicates per shape for
    /// replicas to form in every cluster.
    fn base(name: &str, seed: u64) -> Self {
        ChaosScenario {
            name: name.to_string(),
            seed,
            clusters: 2,
            peers_per_cluster: 3,
            shapes: 2,
            base_subscriptions: 8,
            rounds: 12,
            calls_per_round: 10,
            convergence_calls: 40,
            faults: Vec::new(),
        }
    }

    /// The storm backing the scenario.
    pub fn storm(&self) -> OverlappingStorm {
        OverlappingStorm::clustered(
            self.seed,
            self.shapes,
            self.clusters,
            self.peers_per_cluster,
        )
    }

    /// Consumer peer `p` of cluster `c` (`c<c>-peer<p>.org`).
    pub fn peer(c: usize, p: usize) -> String {
        format!("c{c}-peer{p}.org")
    }

    /// Every consumer peer of cluster `c`.
    pub fn cluster_peers(&self, c: usize) -> Vec<String> {
        (0..self.peers_per_cluster)
            .map(|p| Self::peer(c, p))
            .collect()
    }

    /// Scenario 1 — **crash/recover**: two consumer peers (one of them a
    /// replica forwarder) and the origin hub go down mid-run and recover.
    pub fn crash_recover(seed: u64) -> Self {
        let mut s = Self::base("crash-recover", seed);
        s.faults = vec![
            Fault {
                at_round: 3,
                duration: 3,
                kind: FaultKind::Crash {
                    peers: vec![Self::peer(0, 1), Self::peer(1, 2)],
                },
            },
            Fault {
                at_round: 7,
                duration: 2,
                kind: FaultKind::Crash {
                    peers: vec!["hub.net".into()],
                },
            },
        ];
        s
    }

    /// Scenario 2 — **partition/heal**: the two consumer clusters split
    /// from each other and from the hub side, then heal.
    pub fn partition_heal(seed: u64) -> Self {
        let mut s = Self::base("partition-heal", seed);
        let c0 = s.cluster_peers(0);
        let c1 = s.cluster_peers(1);
        s.faults = vec![Fault {
            at_round: 4,
            duration: 4,
            kind: FaultKind::Partition {
                groups: vec![c0, c1],
            },
        }];
        s
    }

    /// Scenario 3 — **forwarder flap**: the first remote consumer peer
    /// (the replica forwarder of cluster 0) toggles down/up repeatedly.
    pub fn forwarder_flap(seed: u64) -> Self {
        let mut s = Self::base("forwarder-flap", seed);
        s.faults = vec![Fault {
            at_round: 3,
            duration: 6,
            kind: FaultKind::Flap {
                peer: Self::peer(0, 1),
                period: 1,
            },
        }];
        s
    }

    /// Scenario 4 — **correlated cluster failure**: every consumer peer
    /// of cluster 1 crashes at once, as a rack/site outage would.
    pub fn cluster_failure(seed: u64) -> Self {
        let mut s = Self::base("cluster-failure", seed);
        let peers = s.cluster_peers(1);
        s.faults = vec![Fault {
            at_round: 4,
            duration: 4,
            kind: FaultKind::Crash { peers },
        }];
        s
    }

    /// Scenario 5 — **message-drop burst**: a lossy window where 40 % of
    /// all messages vanish, then the link quality recovers.
    pub fn drop_burst(seed: u64) -> Self {
        let mut s = Self::base("drop-burst", seed);
        s.faults = vec![Fault {
            at_round: 3,
            duration: 4,
            kind: FaultKind::DropBurst { probability: 0.4 },
        }];
        s
    }

    /// Scenario 6 — **subscription churn under faults**: subscribers
    /// leave and join while a crash window is open, exercising replica
    /// retraction and orphan re-attachment with peers down.
    pub fn subscription_churn(seed: u64) -> Self {
        let mut s = Self::base("subscription-churn", seed);
        s.faults = vec![
            Fault {
                at_round: 3,
                duration: 4,
                kind: FaultKind::Crash {
                    peers: vec![Self::peer(0, 2)],
                },
            },
            Fault {
                at_round: 4,
                duration: 0,
                kind: FaultKind::Unsubscribe { index: 2 },
            },
            Fault {
                at_round: 5,
                duration: 0,
                kind: FaultKind::Subscribe {
                    index: 8, // base_subscriptions.. are fresh indices
                },
            },
            Fault {
                at_round: 6,
                duration: 0,
                kind: FaultKind::Unsubscribe { index: 1 },
            },
            Fault {
                at_round: 8,
                duration: 0,
                kind: FaultKind::Subscribe { index: 9 },
            },
        ];
        s
    }

    /// The whole built-in suite, in a stable order.
    pub fn all(seed: u64) -> Vec<ChaosScenario> {
        vec![
            Self::crash_recover(seed),
            Self::partition_heal(seed),
            Self::forwarder_flap(seed),
            Self::cluster_failure(seed),
            Self::drop_burst(seed),
            Self::subscription_churn(seed),
        ]
    }
}

/// A conservation-invariant violation: the scenario, the round the check
/// ran at, and what broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosViolation {
    /// The scenario that failed.
    pub scenario: String,
    /// The round after which the check ran (`u64::MAX` for final checks).
    pub round: u64,
    /// Human-readable description of the violated invariant.
    pub invariant: String,
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ round {}] {}",
            self.scenario, self.round, self.invariant
        )
    }
}

/// What one scenario run produced: the conservation ledger plus a replay
/// digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: String,
    /// Rounds driven.
    pub rounds: u64,
    /// Faults in the schedule.
    pub faults: usize,
    /// Sink items the faulty monitor delivered in total.
    pub delivered: u64,
    /// Sink items the fault-free oracle delivered.
    pub oracle_delivered: u64,
    /// Oracle items the faulty run lost (all explained by drops).
    pub missing: u64,
    /// Items the faulty run delivered *more* often than the oracle —
    /// must be zero.
    pub double_delivered: u64,
    /// Messages the faulty network dropped, by the stats ledger.
    pub dropped_messages: u64,
    /// Drops attributed to downed peers.
    pub dropped_peer_down: u64,
    /// Drops attributed to partitions.
    pub dropped_partition: u64,
    /// Drops attributed to random loss (drop bursts).
    pub dropped_random: u64,
    /// Losses not explained by any recorded drop — must be zero.
    pub unaccounted: u64,
    /// Whether the post-heal convergence checks passed.
    pub converged: bool,
    /// FNV-1a digest of the final per-handle sinks and network counters;
    /// bit-identical across replays of the same scenario.
    pub digest: u64,
}

/// Drives [`ChaosScenario`]s through a faulty monitor and a fault-free
/// oracle in lockstep, checking conservation invariants along the way.
#[derive(Debug, Clone)]
pub struct ChaosRunner {
    /// Whether replica re-publication is on (the interesting case — the
    /// fault schedule then exercises forwarders outliving their owners and
    /// orphan re-attachment).
    pub enable_replicas: bool,
}

impl Default for ChaosRunner {
    fn default() -> Self {
        ChaosRunner {
            enable_replicas: true,
        }
    }
}

/// One monitor's side of the lockstep run.
struct Lane {
    monitor: Monitor,
    storm: OverlappingStorm,
    handles: Vec<Option<SubscriptionHandle>>,
}

impl Lane {
    fn new(scenario: &ChaosScenario, runner: &ChaosRunner, faulty: bool) -> Lane {
        let storm = scenario.storm();
        let mut monitor = Monitor::new(MonitorConfig {
            enable_replicas: runner.enable_replicas,
            network: NetworkConfig {
                latency: storm.latency_model(),
                // Distinct network seeds keep the point explicit: drop
                // *decisions* must never be needed by the oracle (its
                // probability stays 0), and the faulty lane's decisions
                // are a pure function of the scenario seed.
                seed: if faulty { scenario.seed } else { 0 },
                ..NetworkConfig::default()
            },
            ..MonitorConfig::default()
        });
        monitor.add_peer("backend.net");
        Lane {
            monitor,
            storm,
            handles: Vec::new(),
        }
    }

    /// Submits storm subscription `index`, growing the handle table.
    fn subscribe(&mut self, index: usize) {
        let text = self.storm.subscription(index);
        let manager = self.storm.manager_of(index).to_string();
        let handle = self
            .monitor
            .submit(&manager, &text)
            .expect("chaos scenario subscriptions compile");
        if self.handles.len() <= index {
            self.handles.resize(index + 1, None);
        }
        self.handles[index] = Some(handle);
    }

    fn unsubscribe(&mut self, index: usize) {
        if let Some(handle) = self.handles.get_mut(index).and_then(Option::take) {
            self.monitor.unsubscribe(&handle);
        }
    }

    /// The live handles, index-aligned with the other lane's.
    fn live(&self) -> impl Iterator<Item = (usize, &SubscriptionHandle)> {
        self.handles
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|h| (i, h)))
    }

    /// Per-handle sink multisets (serialized items → count).
    fn sink_multisets(&self) -> BTreeMap<usize, BTreeMap<String, u64>> {
        self.live()
            .map(|(i, handle)| {
                let mut counts = BTreeMap::new();
                for item in self.monitor.results(handle) {
                    *counts.entry(item.to_xml()).or_insert(0) += 1;
                }
                (i, counts)
            })
            .collect()
    }
}

/// FNV-1a, the digest the replay check compares.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl ChaosRunner {
    /// Replays `scenario` and checks every conservation invariant.
    /// Returns the report, or the full list of violations.
    pub fn run(&self, scenario: &ChaosScenario) -> Result<ChaosReport, Vec<ChaosViolation>> {
        let mut faulty = Lane::new(scenario, self, true);
        let mut oracle = Lane::new(scenario, self, false);
        let mut violations: Vec<ChaosViolation> = Vec::new();
        let fail = |round: u64, invariant: String, sink: &mut Vec<ChaosViolation>| {
            sink.push(ChaosViolation {
                scenario: scenario.name.clone(),
                round,
                invariant,
            });
        };

        for index in 0..scenario.base_subscriptions {
            faulty.subscribe(index);
            oracle.subscribe(index);
        }
        faulty.monitor.run_until_idle();
        oracle.monitor.run_until_idle();

        // Flap state: faults currently holding a peer down.
        let mut flapped_down: Vec<String> = Vec::new();
        for round in 0..scenario.rounds {
            // 1. Close fault windows ending now (heal before new traffic).
            let mut window_closed = false;
            for fault in scenario.faults.iter().filter(|f| f.is_window()) {
                if fault.end() == round {
                    window_closed = true;
                    match &fault.kind {
                        FaultKind::Crash { peers } => {
                            for peer in peers {
                                faulty.monitor.recover_peer(peer);
                            }
                        }
                        FaultKind::Partition { .. } => faulty.monitor.heal_partition(),
                        FaultKind::Flap { peer, .. } => {
                            if let Some(pos) = flapped_down.iter().position(|p| p == peer) {
                                flapped_down.remove(pos);
                                faulty.monitor.recover_peer(peer);
                            }
                        }
                        FaultKind::DropBurst { .. } => {
                            faulty.monitor.set_drop_probability(0.0);
                        }
                        FaultKind::Subscribe { .. } | FaultKind::Unsubscribe { .. } => {}
                    }
                }
            }
            // 2. Mid-window behaviour + window starts + point events.
            for fault in &scenario.faults {
                let active = round >= fault.at_round && round < fault.end();
                match &fault.kind {
                    FaultKind::Crash { peers } if round == fault.at_round => {
                        for peer in peers {
                            faulty.monitor.fail_peer(peer);
                        }
                    }
                    FaultKind::Partition { groups } if round == fault.at_round => {
                        faulty.monitor.partition_peers(groups);
                    }
                    FaultKind::DropBurst { probability } if round == fault.at_round => {
                        faulty.monitor.set_drop_probability(*probability);
                    }
                    FaultKind::Flap { peer, period }
                        if active && (round - fault.at_round) % period.max(&1) == 0 =>
                    {
                        if let Some(pos) = flapped_down.iter().position(|p| p == peer) {
                            flapped_down.remove(pos);
                            faulty.monitor.recover_peer(peer);
                        } else {
                            flapped_down.push(peer.clone());
                            faulty.monitor.fail_peer(peer);
                        }
                    }
                    FaultKind::Subscribe { index } if round == fault.at_round => {
                        faulty.subscribe(*index);
                        oracle.subscribe(*index);
                    }
                    FaultKind::Unsubscribe { index } if round == fault.at_round => {
                        faulty.unsubscribe(*index);
                        oracle.unsubscribe(*index);
                    }
                    _ => {}
                }
            }
            // 3. One identical traffic batch through both lanes.  The
            //    storms were cloned from the same seed, so the two RNG
            //    streams emit the same calls.
            for _ in 0..scenario.calls_per_round {
                let call = faulty.storm.next_call();
                assert_eq!(call, oracle.storm.next_call(), "lockstep storms agree");
                faulty.monitor.inject_soap_call(&call);
                oracle.monitor.inject_soap_call(&call);
            }
            faulty.monitor.run_until_idle();
            oracle.monitor.run_until_idle();

            // 4. Conservation checks after every closed fault window.
            if window_closed {
                for v in self.conservation_checks(&faulty, &oracle) {
                    fail(round, v, &mut violations);
                }
            }
        }

        // Final heal: recover every scheduled peer, drop the partition,
        // restore lossless links.  (Every window that outlives the round
        // budget heals here.)
        for fault in &scenario.faults {
            match &fault.kind {
                FaultKind::Crash { peers } => {
                    for peer in peers {
                        faulty.monitor.recover_peer(peer);
                    }
                }
                FaultKind::Flap { peer, .. } => faulty.monitor.recover_peer(peer),
                FaultKind::Partition { .. } => faulty.monitor.heal_partition(),
                FaultKind::DropBurst { .. } => faulty.monitor.set_drop_probability(0.0),
                FaultKind::Subscribe { .. } | FaultKind::Unsubscribe { .. } => {}
            }
        }
        faulty.monitor.run_until_idle();
        oracle.monitor.run_until_idle();

        for v in self.conservation_checks(&faulty, &oracle) {
            fail(u64::MAX, v, &mut violations);
        }

        // Ledger before the convergence epoch: this is what the report
        // accounts for.
        let faulty_sinks = faulty.sink_multisets();
        let oracle_sinks = oracle.sink_multisets();
        let (missing, double_delivered) = sink_delta(&faulty_sinks, &oracle_sinks);
        let delivered: u64 = faulty_sinks.values().flat_map(|m| m.values()).sum();
        let oracle_delivered: u64 = oracle_sinks.values().flat_map(|m| m.values()).sum();
        let stats = faulty.monitor.network_stats().clone();
        let unaccounted = if missing > 0 && stats.dropped_messages == 0 {
            missing
        } else {
            0
        };

        // Post-heal convergence epoch: fresh identical traffic must land
        // byte-identically, and the origin-keyed bookkeeping must agree.
        let mut converged = true;
        for _ in 0..scenario.convergence_calls {
            let call = faulty.storm.next_call();
            faulty.monitor.inject_soap_call(&call);
            oracle.monitor.inject_soap_call(&call);
        }
        faulty.monitor.run_until_idle();
        oracle.monitor.run_until_idle();
        let faulty_after = faulty.sink_multisets();
        let oracle_after = oracle.sink_multisets();
        for (index, oracle_items) in &oracle_after {
            let grown = |after: &BTreeMap<String, u64>, before: Option<&BTreeMap<String, u64>>| {
                let mut delta = after.clone();
                if let Some(before) = before {
                    for (item, count) in before {
                        let remaining = delta.get(item).copied().unwrap_or(0) - count;
                        if remaining == 0 {
                            delta.remove(item);
                        } else {
                            delta.insert(item.clone(), remaining);
                        }
                    }
                }
                delta
            };
            let oracle_delta = grown(oracle_items, oracle_sinks.get(index));
            let faulty_delta = grown(
                faulty_after.get(index).expect("index-aligned handles"),
                faulty_sinks.get(index),
            );
            if oracle_delta != faulty_delta {
                converged = false;
                fail(
                    u64::MAX,
                    format!(
                        "post-heal traffic diverged for subscription {index}: \
                         oracle delivered {} fresh items, faulty {}",
                        oracle_delta.values().sum::<u64>(),
                        faulty_delta.values().sum::<u64>()
                    ),
                    &mut violations,
                );
            }
        }
        let faulty_books = faulty.monitor.bookkeeping_snapshot();
        let oracle_books = oracle.monitor.bookkeeping_snapshot();
        if faulty_books != oracle_books {
            converged = false;
            fail(
                u64::MAX,
                format!(
                    "bookkeeping did not converge to the fault-free oracle: \
                     faulty {faulty_books:?} vs oracle {oracle_books:?}"
                ),
                &mut violations,
            );
        }

        // Replay digest over the post-convergence sinks and the faulty
        // network ledger.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (index, items) in &faulty_after {
            fnv1a(&mut digest, &index.to_le_bytes());
            for (item, count) in items {
                fnv1a(&mut digest, item.as_bytes());
                fnv1a(&mut digest, &count.to_le_bytes());
            }
        }
        let final_stats = faulty.monitor.network_stats();
        for counter in [
            final_stats.total_messages,
            final_stats.total_bytes,
            final_stats.dropped_messages,
            final_stats.dropped_by_cause.peer_down,
            final_stats.dropped_by_cause.partition,
            final_stats.dropped_by_cause.random,
        ] {
            fnv1a(&mut digest, &counter.to_le_bytes());
        }

        // Clean teardown: everything unsubscribes, nothing lingers.
        let live: Vec<usize> = faulty.live().map(|(i, _)| i).collect();
        for index in live {
            faulty.unsubscribe(index);
            oracle.unsubscribe(index);
        }
        let swept = faulty.monitor.bookkeeping_snapshot();
        if swept.operators != 0 || !swept.def_refs.is_empty() || !swept.replicas.is_empty() {
            fail(
                u64::MAX,
                format!("teardown left state behind: {swept:?}"),
                &mut violations,
            );
        }

        if !violations.is_empty() {
            return Err(violations);
        }
        Ok(ChaosReport {
            scenario: scenario.name.clone(),
            rounds: scenario.rounds,
            faults: scenario.faults.len(),
            delivered,
            oracle_delivered,
            missing,
            double_delivered,
            dropped_messages: stats.dropped_messages,
            dropped_peer_down: stats.dropped_by_cause.peer_down,
            dropped_partition: stats.dropped_by_cause.partition,
            dropped_random: stats.dropped_by_cause.random,
            unaccounted,
            converged,
            digest,
        })
    }

    /// The invariants checked after every fault window and at the end:
    /// duplicate-free subset sinks, loss explained by recorded drops, and
    /// the drop accounting identity.
    fn conservation_checks(&self, faulty: &Lane, oracle: &Lane) -> Vec<String> {
        let mut violations = Vec::new();
        let faulty_sinks = faulty.sink_multisets();
        let oracle_sinks = oracle.sink_multisets();
        let (missing, double) = sink_delta(&faulty_sinks, &oracle_sinks);
        if double > 0 {
            violations.push(format!(
                "double delivery: {double} sink items delivered more often than the oracle"
            ));
        }
        let stats = faulty.monitor.network_stats();
        if missing > 0 && stats.dropped_messages == 0 {
            violations.push(format!(
                "{missing} sink items missing with zero recorded network drops"
            ));
        }
        if stats.dropped_messages != stats.dropped_by_cause.total() {
            violations.push(format!(
                "drop ledger mismatch: {} dropped vs per-cause total {}",
                stats.dropped_messages,
                stats.dropped_by_cause.total()
            ));
        }
        let per_link: u64 = stats.per_link.values().map(|l| l.dropped).sum();
        if stats.dropped_messages != per_link {
            violations.push(format!(
                "drop ledger mismatch: {} dropped vs per-link sum {per_link}",
                stats.dropped_messages
            ));
        }
        violations
    }
}

/// `(missing, double_delivered)` between index-aligned sink multisets.
fn sink_delta(
    faulty: &BTreeMap<usize, BTreeMap<String, u64>>,
    oracle: &BTreeMap<usize, BTreeMap<String, u64>>,
) -> (u64, u64) {
    let mut missing = 0;
    let mut double = 0;
    for (index, oracle_items) in oracle {
        let empty = BTreeMap::new();
        let faulty_items = faulty.get(index).unwrap_or(&empty);
        for (item, &oracle_count) in oracle_items {
            let faulty_count = faulty_items.get(item).copied().unwrap_or(0);
            missing += oracle_count.saturating_sub(faulty_count);
            double += faulty_count.saturating_sub(oracle_count);
        }
        for (item, &faulty_count) in faulty_items {
            if !oracle_items.contains_key(item) {
                double += faulty_count;
            }
        }
    }
    (missing, double)
}
