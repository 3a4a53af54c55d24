//! The measured runs behind `crates/bench`'s trajectories and the contract
//! tests in `crates/core/tests/bench_contracts.rs`.  Both call these
//! functions, the tests at sizes `cargo test` can afford and the bench
//! writers at full size, so the numbers a test asserts and the numbers a
//! `BENCH_*.json` row records come from the same code.
//!
//! * **Reuse** ([`reuse_pair`]) — reuse-on vs reuse-off over an
//!   [`OverlappingStorm`]: deployed tasks, wire messages and bytes, hit rate.
//! * **Replicas** ([`replica_pair`]) — the same shapes submitted from
//!   clustered consumer peers, replicas on vs off: how many remote consumers
//!   a re-published copy serves and what the origin hub sends.
//! * **Locality** ([`placement_pair`] over [`run_paired`] or
//!   [`run_massive`]) — rate-aware vs count-based placement, scored by
//!   bytes × latency-weighted hops.
//! * **Scale** ([`run_scale`]) — one [`MassiveStorm`] tier: per-alert
//!   dispatch cost and the Chord hops of its definition lookups.
//! * **Sketch** ([`run_sketch`]) — the three sketch aggregates of a
//!   [`SketchStorm`] vs shipping every item, checked against an exact oracle.
//!
//! Every quantity except the wall-clock fields (`deploy_ns`, `deploy_ms`,
//! `ns_per_alert`) is a pure function of the arguments.  A pair runner
//! asserts that both sides delivered the same sink output: the comparison is
//! a cost comparison only when the two sides agree on what they computed.

use std::collections::HashMap;
use std::time::Instant;

use p2pmon_core::{Monitor, MonitorConfig, ReplicaStats, ReuseStats, Sink, SubscriptionHandle};
use p2pmon_net::NetworkConfig;

use crate::{MassiveStorm, OverlappingStorm, SketchStorm};

/// Distinct subscription shapes of the reuse and replica storms.
pub const SHAPES: usize = 8;
/// Monitored hubs of the paired storm (one shape per hub).
const HUBS: usize = 8;
/// Consumer clusters of the replica and paired storms.
pub const CLUSTERS: usize = 2;
/// Consumer peers per cluster.
pub const PEERS_PER_CLUSTER: usize = 4;
/// Heavy hitters requested from the `topk` aggregate.
const TOPK: usize = 3;
/// Quantile requested from the `quantile` aggregate.
const QUANTILE: f64 = 0.99;

/// Results sitting in the sinks of `handles`, counted without reading them.
fn delivered(monitor: &Monitor, handles: &[SubscriptionHandle]) -> usize {
    handles
        .iter()
        .map(|h| monitor.sink(h).map_or(0, Sink::len))
        .sum()
}

/// A monitor holding `n_subs` subscriptions of the reuse storm
/// (`OverlappingStorm::new(1, SHAPES)`), all submitted from `manager.org`.
pub fn overlapping_monitor(
    enable_reuse: bool,
    n_subs: usize,
) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = OverlappingStorm::new(1, SHAPES);
    let handles = storm
        .subscriptions(n_subs)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    (monitor, handles)
}

/// One side of the reuse axis.
#[derive(Debug, Clone)]
pub struct ReuseRun {
    /// Wall-clock deployment time per subscription (ns).
    pub deploy_ns: f64,
    /// Tasks deployed across every subscription.
    pub tasks: usize,
    /// Wire messages.
    pub messages: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Results delivered across every sink.
    pub results: usize,
    /// The monitor's reuse counters.
    pub reuse: ReuseStats,
}

fn reuse_run(enable_reuse: bool, n_subs: usize, calls_n: usize) -> ReuseRun {
    let start = Instant::now();
    let (mut monitor, handles) = overlapping_monitor(enable_reuse, n_subs);
    let deploy_ns = start.elapsed().as_nanos() as f64 / n_subs as f64;
    let tasks = handles
        .iter()
        .map(|h| monitor.report(h).expect("deployed").tasks)
        .sum();
    for call in OverlappingStorm::new(9, SHAPES).calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let stats = monitor.network_stats();
    ReuseRun {
        deploy_ns,
        tasks,
        messages: stats.total_messages,
        bytes: stats.total_bytes,
        results: delivered(&monitor, &handles),
        reuse: monitor.reuse_stats(),
    }
}

/// Reuse on, then off, over the same storm and traffic: `(on, off)`.
pub fn reuse_pair(n_subs: usize, calls_n: usize) -> (ReuseRun, ReuseRun) {
    let (on, off) = (
        reuse_run(true, n_subs, calls_n),
        reuse_run(false, n_subs, calls_n),
    );
    assert_eq!(
        on.results, off.results,
        "reuse must not change what the sinks receive"
    );
    (on, off)
}

/// A monitor over a clustered storm's latency model, with the storm's
/// backend peer added.
fn clustered_monitor(storm: &OverlappingStorm, config: MonitorConfig) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..config
    });
    monitor.add_peer("backend.net");
    monitor
}

/// One side of the replica axis.
#[derive(Debug, Clone)]
pub struct ReplicaRun {
    /// Messages sent by the origin hub (`hub.net`).
    pub origin_messages: u64,
    /// Wire messages.
    pub total_messages: u64,
    /// Results delivered across every sink.
    pub results: usize,
    /// The monitor's replica counters.
    pub replicas: ReplicaStats,
}

/// Every subscription is submitted from its clustered consumer peer; with
/// replicas on, later duplicates attach to the closest re-published copy
/// instead of the origin hub.
fn replica_run(enable_replicas: bool, n_subs: usize, calls_n: usize) -> ReplicaRun {
    let storm = OverlappingStorm::clustered(1, SHAPES, CLUSTERS, PEERS_PER_CLUSTER);
    let mut monitor = clustered_monitor(
        &storm,
        MonitorConfig {
            enable_replicas,
            ..MonitorConfig::default()
        },
    );
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(n_subs)
        .iter()
        .enumerate()
        .map(|(i, text)| {
            monitor
                .submit(storm.manager_of(i), text)
                .expect("clustered storm deploys")
        })
        .collect();
    for call in storm.clone().calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let stats = monitor.network_stats();
    ReplicaRun {
        origin_messages: stats
            .per_peer()
            .get(&"hub.net".into())
            .map(|t| t.messages_out)
            .unwrap_or(0),
        total_messages: stats.total_messages,
        results: delivered(&monitor, &handles),
        replicas: monitor.replica_stats(),
    }
}

/// Replicas on, then off, over the same clustered storm: `(on, off)`.
pub fn replica_pair(n_subs: usize, calls_n: usize) -> (ReplicaRun, ReplicaRun) {
    let (on, off) = (
        replica_run(true, n_subs, calls_n),
        replica_run(false, n_subs, calls_n),
    );
    assert_eq!(
        on.results, off.results,
        "replicas must not change what the sinks receive"
    );
    (on, off)
}

/// Everything one locality run measures.
#[derive(Debug, Clone)]
pub struct LocalityRow {
    /// Subscriptions deployed.
    pub subscriptions: usize,
    /// Σ over directed links of `bytes × expected latency` (byte·ms) — the
    /// locality score placement minimizes.
    pub bytes_hops: f64,
    /// Payload bytes sent by the monitored hub peers (origin egress).
    pub origin_egress: u64,
    /// Payload bytes that crossed any link.
    pub total_bytes: u64,
    /// Replicas declared during the run.
    pub replicas: u64,
    /// Results delivered across every sink.
    pub results: usize,
    /// FNV-1a fingerprint of every sink's serialized results, in handle
    /// order — equal fingerprints mean byte-identical sink output.
    pub sink_fingerprint: u64,
}

fn locality_row(
    monitor: &Monitor,
    handles: &[SubscriptionHandle],
    hubs: &[String],
    n: usize,
) -> LocalityRow {
    let stats = monitor.network_stats();
    let bytes_hops: f64 = stats
        .per_link
        .iter()
        .map(|(&(from, to), link)| {
            link.bytes as f64 * monitor.expected_latency(from.as_str(), to.as_str()) as f64
        })
        .sum();
    let mut sink_fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut results = 0usize;
    for handle in handles {
        for element in monitor.results(handle) {
            results += 1;
            for byte in element.to_xml().bytes() {
                sink_fingerprint ^= byte as u64;
                sink_fingerprint = sink_fingerprint.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    LocalityRow {
        subscriptions: n,
        bytes_hops,
        origin_egress: hubs.iter().map(|hub| stats.bytes_out_of(hub)).sum(),
        total_bytes: stats.total_bytes,
        replicas: monitor.replica_stats().replicas_created,
        results,
        sink_fingerprint,
    }
}

/// Rate-aware, then count-based placement of one workload:
/// `(aware, count)`.  `run(rate_aware)` is [`run_paired`] or
/// [`run_massive`] at fixed arguments.
pub fn placement_pair(
    workload: &str,
    run: impl Fn(bool) -> LocalityRow,
) -> (LocalityRow, LocalityRow) {
    let (aware, count) = (run(true), run(false));
    assert_eq!(
        (aware.results, aware.sink_fingerprint),
        (count.results, count.sink_fingerprint),
        "placement must not change what the sinks receive ({workload})"
    );
    assert!(
        aware.results > 0,
        "the {workload} locality row at {} subscriptions delivered nothing — the \
         score passed vacuously: {aware:?}",
        aware.subscriptions
    );
    (aware, count)
}

/// One paired-storm run (`OverlappingStorm::paired`): every shape unions two
/// hub streams with *different* measured rates.  The first half of the
/// shapes deploy, warmup traffic lets the monitor measure every hub's rate,
/// then the remaining subscriptions deploy with rates in hand and the
/// measured traffic runs.  Count-based placement breaks the two-candidate
/// tie by input order and moves the hot stream across the network for the
/// wrapped half of the shapes; rate-aware placement puts every union next
/// to its hotter input.
pub fn run_paired(seed: u64, n_subs: usize, calls_n: usize, rate_aware: bool) -> LocalityRow {
    let storm = OverlappingStorm::paired(seed, HUBS, CLUSTERS, PEERS_PER_CLUSTER);
    let mut monitor = clustered_monitor(
        &storm,
        MonitorConfig {
            rate_aware_placement: rate_aware,
            ..MonitorConfig::default()
        },
    );
    let mut handles: Vec<SubscriptionHandle> = Vec::with_capacity(n_subs);
    let mut submit = |monitor: &mut Monitor, i: usize| {
        handles.push(
            monitor
                .submit(storm.manager_of(i), &storm.subscription(i))
                .expect("paired storm deploys"),
        );
    };
    let warmup_subs = (HUBS / 2).min(n_subs);
    for i in 0..warmup_subs {
        submit(&mut monitor, i);
    }
    let mut traffic = storm.clone();
    // Rate-learning phase: calls are injected one at a time with the
    // network drained in between, so alerts land at *distinct* logical
    // instants and the per-channel EWMA rates measure the hub skew (bulk
    // injection would collapse every alert onto one timestamp).
    for call in traffic.calls((calls_n / 2).max(50)) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
    for i in warmup_subs..n_subs {
        submit(&mut monitor, i);
    }
    for call in traffic.calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    locality_row(&monitor, &handles, &storm.monitored_peers, n_subs)
}

/// A monitor over a MassiveStorm's topology: its Chord size, latency model,
/// hubs and cluster managers.
fn massive_monitor(storm: &MassiveStorm, rate_aware_placement: bool) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        rate_aware_placement,
        dht_nodes: storm.dht_nodes(),
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    for hub in &storm.monitored_peers {
        monitor.add_peer(hub);
    }
    for manager in storm.manager_peers() {
        monitor.add_peer(&manager);
    }
    monitor
}

/// One MassiveStorm run with [`run_paired`]'s two-phase protocol.  Every
/// shape there is single-input, so rate-aware placement must change
/// *nothing*: the row guards the no-regression side of the locality axis.
pub fn run_massive(seed: u64, n_subs: usize, calls_n: usize, rate_aware: bool) -> LocalityRow {
    let mut storm = MassiveStorm::sized(seed, n_subs);
    let mut monitor = massive_monitor(&storm, rate_aware);
    let mut handles: Vec<SubscriptionHandle> = Vec::with_capacity(n_subs);
    for i in 0..n_subs / 2 {
        handles.push(
            monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("massive storm deploys"),
        );
    }
    // Same per-call draining as `run_paired`: the second half of the
    // deployments must see real measured rates, not one collapsed instant.
    for call in storm.calls(calls_n / 2) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
    for i in n_subs / 2..n_subs {
        handles.push(
            monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("massive storm deploys"),
        );
    }
    for call in storm.calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    locality_row(&monitor, &handles, &storm.monitored_peers, n_subs)
}

/// Everything one MassiveStorm scale run measures.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Subscriptions deployed.
    pub subscriptions: usize,
    /// Physical peers (hubs + cluster managers).
    pub peers: usize,
    /// Chord nodes backing the Stream Definition Database.
    pub dht_nodes: usize,
    /// Wall-clock deployment time for all subscriptions (ms).
    pub deploy_ms: f64,
    /// Steady-state dispatch cost per injected alert (ns).
    pub ns_per_alert: f64,
    /// Alerts injected for the timed phase.
    pub alerts: usize,
    /// Results delivered to sinks across the run.
    pub results_delivered: u64,
    /// Bytes deep-copied at sink delivery: 0, since a sink keeps the tree the
    /// dispatch plane shares.
    pub sink_clone_bytes: u64,
    /// Payload bytes that crossed simulated links.
    pub network_bytes: u64,
    /// Average Chord hops per definition-index operation.
    pub dht_avg_hops: f64,
    /// Definition-index operations routed through the DHT.
    pub dht_operations: u64,
    /// Live operator instances after deployment — with reuse collapsing the
    /// zipf head, this stays near the shape count, not the subscription
    /// count.
    pub operators: u64,
}

impl ScaleRow {
    /// Chord's routing bound on average definition-lookup hops:
    /// `log2(nodes)`.
    pub fn hops_bound(&self) -> f64 {
        (self.dht_nodes as f64).log2()
    }
}

/// Deploys `n_subs` zipf-skewed MassiveStorm subscriptions (every
/// definition publish and lookup routed through the monitor's Chord
/// overlay), warms up, then times `calls_n` alerts of steady-state dispatch.
pub fn run_scale(seed: u64, n_subs: usize, calls_n: usize) -> ScaleRow {
    let mut storm = MassiveStorm::sized(seed, n_subs);
    let mut monitor = massive_monitor(&storm, true);

    let deploy_start = Instant::now();
    let handles: Vec<_> = (0..n_subs)
        .map(|i| {
            monitor
                .submit(&storm.manager_of(i), &storm.subscription(i))
                .expect("massive storm subscriptions deploy")
        })
        .collect();
    let deploy_ms = deploy_start.elapsed().as_secs_f64() * 1_000.0;

    // Warm-up: the first injections pay one-time costs (multicast plan
    // caches, lazily grown buffers, allocator warm-up) that the steady-state
    // per-alert claim is not about.
    for call in &storm.calls((calls_n / 4).max(25)) {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();

    let calls = storm.calls(calls_n);
    let dispatch_start = Instant::now();
    for call in &calls {
        monitor.inject_soap_call(call);
    }
    monitor.run_until_idle();
    let ns_per_alert = dispatch_start.elapsed().as_nanos() as f64 / calls_n as f64;

    let dht = monitor.dht_stats();
    ScaleRow {
        subscriptions: n_subs,
        peers: storm.monitored_peers.len() + storm.clusters(),
        dht_nodes: storm.dht_nodes(),
        deploy_ms,
        ns_per_alert,
        alerts: calls_n,
        results_delivered: delivered(&monitor, &handles) as u64,
        sink_clone_bytes: monitor.dispatch_stats().sink_clone_bytes,
        network_bytes: monitor.network_stats().total_bytes,
        dht_avg_hops: dht.avg_hops(),
        dht_operations: dht.insert_operations + dht.query_operations,
        operators: monitor.operator_count() as u64,
    }
}

/// Everything one SketchStorm run measures.
#[derive(Debug, Clone)]
pub struct SketchRow {
    /// Monitored peers (the tier axis).
    pub peers: usize,
    /// Events injected into each monitor.
    pub events: usize,
    /// Dispatch rounds the events were spread over.
    pub rounds: usize,
    /// Wire bytes of the sketch-on monitor (bounded partials).
    pub sketch_bytes: u64,
    /// Wire bytes of the ship-items-off baseline (every event crosses).
    pub ship_bytes: u64,
    /// Wire messages of the sketch-on monitor.
    pub sketch_messages: u64,
    /// Wire messages of the baseline.
    pub ship_messages: u64,
    /// Aggregate answers materialized at the root across the run.
    pub answers: u64,
    /// Worst relative error over the `topk` answer's per-key counts.
    pub topk_max_rel_err: f64,
    /// |sketch − exact| of the method-mix entropy (bits).
    pub entropy_err_bits: f64,
    /// Relative error of the duration quantile.
    pub quantile_rel_err: f64,
    /// Wall-clock deployment time for the aggregate plane (ms).
    pub deploy_ms: f64,
}

impl SketchRow {
    /// Bytes saved by sketching: baseline wire bytes per sketch wire byte.
    pub fn ratio(&self) -> f64 {
        self.ship_bytes as f64 / self.sketch_bytes.max(1) as f64
    }
}

fn sketch_monitor(storm: &SketchStorm) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer);
    }
    monitor
}

/// Drives the same seeded traffic through two monitors over the same
/// `n_peers` population, in `rounds` batches with a quiescence point after
/// each:
///
/// * **sketch-on** — three aggregate subscriptions (`topk`, `entropy`,
///   `quantile`) whose planner-built merge trees span all peers; only
///   bounded sketch partials cross the wire, once per dispatch round.
/// * **ship-items-off** — one plain subscription per active peer whose
///   restructure stage runs at the manager, so every matching alert
///   crosses the wire.
///
/// The generated calls double as the exact oracle: the answers are checked
/// against exact heavy-hitter counts, exact entropy and the exact
/// (nearest-rank) quantile of the very same events.
pub fn run_sketch(seed: u64, n_peers: usize, events_per_peer: usize, rounds: usize) -> SketchRow {
    let mut storm = SketchStorm::sized(seed, n_peers);
    let events = n_peers * events_per_peer;
    let calls = storm.calls(events);

    let mut sketch_mon = sketch_monitor(&storm);
    let deploy_start = Instant::now();
    let handles: Vec<_> = storm
        .aggregate_subscriptions(TOPK, QUANTILE)
        .iter()
        .map(|text| {
            sketch_mon
                .submit(storm.manager(), text)
                .expect("aggregate subscriptions deploy")
        })
        .collect();
    let deploy_ms = deploy_start.elapsed().as_secs_f64() * 1_000.0;

    let mut ship_mon = sketch_monitor(&storm);
    for text in storm.ship_subscriptions() {
        ship_mon
            .submit(storm.manager(), &text)
            .expect("baseline subscriptions deploy");
    }

    for chunk in calls.chunks(events.div_ceil(rounds)) {
        for call in chunk {
            sketch_mon.inject_soap_call(call);
            ship_mon.inject_soap_call(call);
        }
        sketch_mon.run_until_idle();
        ship_mon.run_until_idle();
    }

    // Exact oracle from the very same calls.
    let mut exact_counts: HashMap<&str, u64> = HashMap::new();
    for call in &calls {
        *exact_counts.entry(call.method.as_str()).or_default() += 1;
    }
    let exact_entropy = {
        let total = calls.len() as f64;
        -exact_counts
            .values()
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    };
    let exact_quantile = {
        let mut durations: Vec<u64> = calls.iter().map(|c| c.duration()).collect();
        durations.sort_unstable();
        let rank = ((QUANTILE * durations.len() as f64).ceil() as usize).clamp(1, durations.len());
        durations[rank - 1] as f64
    };

    // Sketch answers vs the oracle.
    let answers = delivered(&sketch_mon, &handles) as u64;
    let last = |i: usize| {
        sketch_mon
            .results(&handles[i])
            .last()
            .cloned()
            .expect("every aggregate answers at least once")
    };

    let topk_answer = last(0);
    let mut topk_max_rel_err = 0.0f64;
    let mut topk_entries = 0;
    for entry in topk_answer.children_named("entry") {
        topk_entries += 1;
        let key = entry.attr("key").expect("topk entries carry their key");
        let count: f64 = entry
            .attr("count")
            .and_then(|c| c.parse().ok())
            .expect("topk entries carry a count");
        let exact = *exact_counts.get(key).unwrap_or(&0) as f64;
        topk_max_rel_err = topk_max_rel_err.max((count - exact).abs() / exact.max(1.0));
    }
    assert_eq!(topk_entries, TOPK, "topk answers exactly {TOPK} entries");

    let entropy_bits: f64 = last(1)
        .attr("bits")
        .and_then(|b| b.parse().ok())
        .expect("entropy answers carry bits");
    let quantile_value: f64 = last(2)
        .attr("value")
        .and_then(|v| v.parse().ok())
        .expect("quantile answers carry a value");

    let sketch_net = sketch_mon.network_stats();
    let ship_net = ship_mon.network_stats();
    SketchRow {
        peers: n_peers,
        events,
        rounds,
        sketch_bytes: sketch_net.total_bytes,
        ship_bytes: ship_net.total_bytes,
        sketch_messages: sketch_net.total_messages,
        ship_messages: ship_net.total_messages,
        answers,
        topk_max_rel_err,
        entropy_err_bits: (entropy_bits - exact_entropy).abs(),
        quantile_rel_err: (quantile_value - exact_quantile).abs() / exact_quantile.max(1.0),
        deploy_ms,
    }
}
