//! The locality runner shared by `reuse_benches` (which writes the locality
//! axis of `BENCH_reuse.json`) and `examples/placement_probe` (the
//! human-readable probe): rate-aware vs count-based placement on workloads
//! with multi-input operators, scored by **bytes × latency-weighted hops**.
//!
//! The paired `OverlappingStorm` gives every shape a union over two hub
//! alerter streams with *different* measured rates (harmonic traffic skew).
//! A run deploys the first half of the shapes, drives warmup traffic so the
//! monitor measures every hub's rate, then deploys the rest: those later
//! unions are placed with rates in hand.  Count-based placement breaks the
//! two-candidate tie by input order and moves the *hot* stream across the
//! network for the wrapped half of the shapes; rate-aware placement puts
//! every union next to its hotter input.  Placement is an optimization,
//! never a semantics change — each run fingerprints every sink's serialized
//! output so callers can assert byte-identical results across modes.

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm};

/// Monitored hubs of the paired storm (and distinct shapes — one per hub).
pub const HUBS: usize = 8;
/// Consumer clusters of the paired storm.
pub const CLUSTERS: usize = 2;
/// Consumer peers per cluster.
pub const PEERS_PER_CLUSTER: usize = 4;

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

fn finish(
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
    let origin_egress: u64 = hubs.iter().map(|hub| stats.bytes_out_of(hub)).sum();
    let total_bytes = stats.total_bytes;
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
        origin_egress,
        total_bytes,
        replicas: monitor.replica_stats().replicas_created,
        results,
        sink_fingerprint,
    }
}

/// One paired-storm run: warmup shapes first, traffic to learn rates, then
/// the remaining subscriptions, then the measured traffic.
pub fn run_paired(seed: u64, n_subs: usize, calls_n: usize, rate_aware: bool) -> LocalityRow {
    let storm = OverlappingStorm::paired(seed, HUBS, CLUSTERS, PEERS_PER_CLUSTER);
    let mut monitor = Monitor::new(MonitorConfig {
        rate_aware_placement: rate_aware,
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    let warmup_subs = (HUBS / 2).min(n_subs);
    let mut handles: Vec<SubscriptionHandle> = Vec::with_capacity(n_subs);
    let mut traffic = storm.clone();
    for i in 0..warmup_subs {
        handles.push(
            monitor
                .submit(storm.manager_of(i), &storm.subscription(i))
                .expect("paired storm deploys"),
        );
    }
    // Rate-learning phase: calls are injected one at a time with the
    // network drained in between, so alerts land at *distinct* logical
    // instants and the per-channel EWMA rates measure the hub skew (bulk
    // injection would collapse every alert onto one timestamp).
    for call in traffic.calls((calls_n / 2).max(50)) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
    for i in warmup_subs..n_subs {
        handles.push(
            monitor
                .submit(storm.manager_of(i), &storm.subscription(i))
                .expect("paired storm deploys"),
        );
    }
    for call in traffic.calls(calls_n) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    finish(&monitor, &handles, &storm.monitored_peers, n_subs)
}

/// One MassiveStorm run with the same two-phase protocol, at the 10k scale
/// tier: every shape there is single-input, so rate-aware placement must
/// change *nothing* — the row guards the no-regression side of the gate.
pub fn run_massive(seed: u64, n_subs: usize, calls_n: usize, rate_aware: bool) -> LocalityRow {
    let mut storm = MassiveStorm::sized(seed, n_subs);
    let mut monitor = Monitor::new(MonitorConfig {
        rate_aware_placement: rate_aware,
        enable_reuse: true,
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
    finish(&monitor, &handles, &storm.monitored_peers, n_subs)
}
