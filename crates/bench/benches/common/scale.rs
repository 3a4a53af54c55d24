//! The MassiveStorm scale runner shared by `scale_benches` (which writes the
//! `BENCH_scale.json` trajectory) and `examples/scale_probe` (the
//! human-readable probe).
//!
//! One run deploys `n` zipf-skewed subscriptions over the storm's clustered
//! hub topology (the hub count grows with `n`, see
//! `p2pmon_workloads::MassiveStorm`), then injects matching SOAP traffic and
//! measures the steady-state dispatch cost per alert.  Deployment routes
//! every stream-definition publish and lookup through the monitor's Chord
//! overlay, so the run also reports the observed DHT hop count against the
//! `log2(nodes)` bound.

use std::time::Instant;

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_workloads::MassiveStorm;

/// Everything one MassiveStorm run measures.
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
    /// Bytes deep-copied at sink delivery (the zero-copy path's single
    /// remaining copy point).
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
    /// The Chord bound `scale_benches` asserts on every tier: `log2(nodes)`.
    pub fn hops_bound(&self) -> f64 {
        (self.dht_nodes as f64).log2()
    }
}

/// Deploys and drives one MassiveStorm tier.
pub fn run_scale(seed: u64, n_subs: usize, calls_n: usize) -> ScaleRow {
    let mut storm = MassiveStorm::sized(seed, n_subs);
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: true,
        dht_nodes: storm.dht_nodes(),
        network: p2pmon_net::NetworkConfig {
            latency: storm.latency_model(),
            ..p2pmon_net::NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    for hub in &storm.monitored_peers {
        monitor.add_peer(hub);
    }
    for manager in storm.manager_peers() {
        monitor.add_peer(&manager);
    }

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
    let warmup = storm.calls((calls_n / 4).max(25));
    for call in &warmup {
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

    let results_delivered: u64 = handles
        .iter()
        .map(|h| monitor.results(h).len() as u64)
        .sum();
    let dispatch = monitor.dispatch_stats();
    let dht = monitor.dht_stats();
    let net = monitor.network_stats();
    ScaleRow {
        subscriptions: n_subs,
        peers: storm.monitored_peers.len() + storm.clusters(),
        dht_nodes: storm.dht_nodes(),
        deploy_ms,
        ns_per_alert,
        alerts: calls_n,
        results_delivered,
        sink_clone_bytes: dispatch.sink_clone_bytes,
        network_bytes: net.total_bytes,
        dht_avg_hops: dht.avg_hops(),
        dht_operations: dht.insert_operations + dht.query_operations,
        operators: monitor.operator_count() as u64,
    }
}
