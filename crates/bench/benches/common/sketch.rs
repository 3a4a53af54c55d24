//! The SketchStorm aggregation runner shared by `sketch_benches` (which
//! writes the `BENCH_sketch.json` trajectory) and `examples/sketch_probe`
//! (the human-readable probe).
//!
//! One run drives the same seeded traffic through two monitors over the same
//! `n`-peer population:
//!
//! * **sketch-on** — three aggregate subscriptions (`topk`, `entropy`,
//!   `quantile`) whose planner-built merge trees span all `n` peers; only
//!   bounded sketch partials cross the wire, once per dispatch round.
//! * **ship-items-off** — the baseline: one plain subscription per active
//!   peer whose restructure stage runs at the manager, so every matching
//!   alert crosses the wire.
//!
//! The generated calls double as the exact oracle: the sketch answers are
//! checked against exact heavy-hitter counts, exact entropy, and the exact
//! (nearest-rank) quantile of the very same event stream.

use std::collections::HashMap;
use std::time::Instant;

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_workloads::SketchStorm;

/// Heavy hitters requested from the `topk` aggregate.
pub const TOPK: usize = 3;
/// Quantile requested from the `quantile` aggregate.
pub const QUANTILE: f64 = 0.99;

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

fn monitor_over(storm: &SketchStorm) -> Monitor {
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

/// Deploys and drives one SketchStorm tier.
pub fn run_sketch(seed: u64, n_peers: usize, events_per_peer: usize, rounds: usize) -> SketchRow {
    let mut storm = SketchStorm::sized(seed, n_peers);
    let events = n_peers * events_per_peer;
    let calls = storm.calls(events);

    // The sketch plane: three aggregates spanning the whole population.
    let mut sketch_mon = monitor_over(&storm);
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

    // The baseline: ship every matching item of the active window to the
    // manager, no aggregation.
    let mut ship_mon = monitor_over(&storm);
    for text in storm.ship_subscriptions() {
        ship_mon
            .submit(storm.manager(), &text)
            .expect("baseline subscriptions deploy");
    }

    // Identical traffic through both monitors, in `rounds` batches with a
    // quiescence point (= a run of dispatch rounds) after each.
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
    let answers: u64 = handles
        .iter()
        .map(|h| sketch_mon.results(h).len() as u64)
        .sum();
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
        let err = (count - exact).abs() / exact.max(1.0);
        topk_max_rel_err = topk_max_rel_err.max(err);
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
