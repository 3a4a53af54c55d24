//! The SketchStorm aggregation trajectory: sketch-on wire bytes vs the
//! ship-items-off baseline at 1k / 4k / 10k monitored peers (see
//! `p2pmon_workloads::SketchStorm`).
//!
//! The sketch plane's claim is that aggregate answers cost rounds × tree
//! edges on the wire, not events: as the population (and with it the event
//! count) grows, sketch-on bytes stay near-flat while the baseline grows
//! linearly — and the answers stay within the sketches' accuracy bounds of
//! the exact oracle.  Besides the Criterion group, this bench writes
//! `BENCH_sketch.json` to the workspace root, after asserting the part of
//! that contract only the full trajectory has: the top tier's byte ratio,
//! sublinear byte growth and a ratio that never falls across tiers.  Answer
//! accuracy is asserted on the same runner at 1k peers by
//! `crates/core/tests/bench_contracts.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_workloads::runners::run_sketch;

/// The gated trajectory: monitored-peer tiers.
const TIERS: [usize; 3] = [1_000, 4_000, 10_000];
/// Dispatch-round batches per run.
const ROUNDS: usize = 2;
/// The top tier's ship/sketch byte ratio must reach this.
const MIN_RATIO: f64 = 5.0;
/// Sketch bytes may grow at most this share of the peer growth (sublinear
/// with real margin: the measured trajectory is near-flat).
const MAX_SUBLINEAR_SHARE: f64 = 0.5;

fn events_per_peer() -> usize {
    // The byte trajectory is structural (deterministic per seed), so the
    // quick run already produces gate-worthy numbers; the full run doubles
    // the event stream for tighter accuracy estimates.
    if full_run_requested() {
        32
    } else {
        16
    }
}

/// Criterion tracks the smallest tier end to end (deploy + two monitors);
/// the full trajectory lives in `BENCH_sketch.json`.
fn sketch_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch_storm");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("peers", TIERS[0]), |b| {
        b.iter(|| run_sketch(1, black_box(TIERS[0]), 2, ROUNDS).answers)
    });
    group.finish();
}

/// Asserts the full-trajectory sketch contract, then emits the
/// BENCH_sketch.json trajectory at the workspace root.
fn emit_trajectory(_c: &mut Criterion) {
    let epp = events_per_peer();
    let mut rows = Vec::new();
    let mut tiers = Vec::new();
    for n_peers in TIERS {
        // One run per tier: every recorded quantity but `deploy_ms` (bytes,
        // messages, answer accuracy) is a pure function of the seed.
        let row = run_sketch(1, n_peers, epp, ROUNDS);
        eprintln!(
            "sketch [{} peers, {} events]: {} sketch bytes vs {} ship bytes \
             ({:.1}x), topk err {:.4}, entropy err {:.4} bits, quantile err \
             {:.4}, {} answers, deploy {:.0} ms",
            row.peers,
            row.events,
            row.sketch_bytes,
            row.ship_bytes,
            row.ratio(),
            row.topk_max_rel_err,
            row.entropy_err_bits,
            row.quantile_rel_err,
            row.answers,
            row.deploy_ms,
        );
        rows.push(format!(
            "    {{\"peers\": {}, \"events\": {}, \"rounds\": {}, \
             \"sketch_bytes\": {}, \"ship_bytes\": {}, \"ratio\": {:.3}, \
             \"sketch_messages\": {}, \"ship_messages\": {}, \
             \"answers\": {}, \"topk_max_rel_err\": {:.6}, \
             \"entropy_err_bits\": {:.6}, \"quantile_rel_err\": {:.6}, \
             \"deploy_ms\": {:.0}}}",
            row.peers,
            row.events,
            row.rounds,
            row.sketch_bytes,
            row.ship_bytes,
            row.ratio(),
            row.sketch_messages,
            row.ship_messages,
            row.answers,
            row.topk_max_rel_err,
            row.entropy_err_bits,
            row.quantile_rel_err,
            row.deploy_ms,
        ));
        tiers.push(row);
    }
    let tier = |n_peers: usize| {
        tiers
            .iter()
            .find(|row| row.peers == n_peers)
            .expect("the trajectory has a row at every gated tier")
    };
    let (base, top) = (tier(1_000), tier(10_000));
    assert!(
        top.ratio() >= MIN_RATIO,
        "the sketch plane moves only {:.1}x fewer bytes than the ship-items baseline at \
         {} peers (bound {MIN_RATIO}x) — partials stopped paying for themselves: {top:?}",
        top.ratio(),
        top.peers
    );
    assert!(
        base.sketch_bytes > 0,
        "degenerate base tier (sketch_bytes <= 0): {base:?}"
    );
    let byte_growth = top.sketch_bytes as f64 / base.sketch_bytes as f64;
    let peer_growth = top.peers as f64 / base.peers as f64;
    eprintln!(
        "sketch bytes growth {} -> {} peers: {byte_growth:.2}x against {peer_growth:.0}x \
         peers (bound {:.1}x)",
        base.peers,
        top.peers,
        MAX_SUBLINEAR_SHARE * peer_growth
    );
    assert!(
        byte_growth <= MAX_SUBLINEAR_SHARE * peer_growth,
        "sketch wire bytes grew {byte_growth:.2}x while the peer count grew \
         {peer_growth:.0}x — the partial flow is no longer sublinear: {top:?}"
    );
    for pair in tiers.windows(2) {
        assert!(
            pair[1].ratio() >= pair[0].ratio() * 0.9,
            "the bytes-saved ratio fell as the population grew ({:.3}x at {} peers, \
             {:.3}x at {}) — sketching should pay MORE at scale, not less",
            pair[0].ratio(),
            pair[0].peers,
            pair[1].ratio(),
            pair[1].peers
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"sketch\",\n  \"mode\": \"{}\",\n  \
         \"events_per_peer\": {epp},\n  \"results\": [\n{}\n  ]\n}}\n",
        if full_run_requested() {
            "full"
        } else {
            "quick"
        },
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sketch.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = emit_trajectory, sketch_storm
}
criterion_main!(benches);
