//! The deterministic contracts of the bench trajectories, at `cargo test`
//! sizes.
//!
//! Each test restates one of the paper's claims on the counters of a
//! `p2pmon_workloads::runners` run — the same runs `crates/bench` writes
//! into `BENCH_reuse.json`, `BENCH_scale.json` and `BENCH_sketch.json` — so
//! `cargo test` fails when reuse, replicas, placement locality, Chord
//! routing or sketch accuracy regress, without a bench run.  The sizes are
//! the quick-mode rows of those files (the 1k MassiveStorm rows stand in
//! for the 10k ones); every checked quantity is a pure function of the seed.

use p2pmon_workloads::runners::{
    replica_pair, reuse_pair, run_massive, run_paired, run_scale, run_sketch,
};

/// The subscription count whose row each axis of `BENCH_reuse.json` bounds.
const GATED_SUBSCRIPTIONS: usize = 256;
/// That file's other rows: their pair runs check only that both sides'
/// sinks agree, their locality runs only that they deliver.
const SMALLER_ROWS: [usize; 2] = [16, 64];
/// Traffic per run (`BENCH_reuse.json`'s quick-mode `calls_per_run`).
const CALLS: usize = 120;

/// Section 5: the Subscription Manager reuses existing streams, so
/// overlapping subscriptions share work and traffic.
#[test]
fn reuse_collapses_overlapping_subscriptions() {
    for n_subs in SMALLER_ROWS {
        reuse_pair(n_subs, CALLS);
    }
    let (on, off) = reuse_pair(GATED_SUBSCRIPTIONS, CALLS);
    let hit_rate = on.reuse.hit_rate();
    assert!(
        hit_rate >= 0.5,
        "reuse hit rate regressed below 50%: {hit_rate:.4} at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        on.messages <= off.messages,
        "stream reuse sent MORE network messages than the reuse-off baseline: \
             {} vs {} at {GATED_SUBSCRIPTIONS} subscriptions",
        on.messages,
        off.messages
    );
}

/// Consumers attach to a close re-published copy of a stream instead of its
/// origin, which takes load off the origin peer.
#[test]
fn replicas_take_load_off_the_origin() {
    for n_subs in SMALLER_ROWS {
        replica_pair(n_subs, CALLS);
    }
    let (on, off) = replica_pair(GATED_SUBSCRIPTIONS, CALLS);
    let served = on.replicas.consumers_via_replica;
    let remote = served + on.replicas.consumers_via_origin;
    assert!(
        remote > 0,
        "the clustered storm produced no remote consumers at {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        served as f64 / remote as f64 >= 0.5,
        "replicas serve fewer than 50% of remote consumers: {served}/{remote} at \
             {GATED_SUBSCRIPTIONS} subscriptions"
    );
    assert!(
        on.origin_messages <= off.origin_messages,
        "replica-on sent MORE origin-peer messages than replica-off: {} vs {} at \
             {GATED_SUBSCRIPTIONS} subscriptions",
        on.origin_messages,
        off.origin_messages
    );
}

/// Where placement and the provider load tie-break put the traffic, pinned
/// as recorded when placement's rate weighting was deleted: operators go
/// next to their inputs (a union on the input peer hosting the fewest
/// tasks), and a reference to a stream with equally-near providers attaches
/// to the least-loaded one.  Without the tie-break the paired storm's
/// origin egress is 8 541.  To re-record, run `cargo test -q --release -p
/// p2pmon-core --test bench_contracts -- placement_locality_is_pinned
/// --nocapture`: it prints each row.
#[test]
fn placement_locality_is_pinned() {
    for n_subs in SMALLER_ROWS {
        run_paired(1, n_subs, CALLS);
    }
    let paired = run_paired(1, GATED_SUBSCRIPTIONS, CALLS);
    println!("paired storm, {GATED_SUBSCRIPTIONS} subscriptions: {paired:?}");
    assert_eq!(
        (paired.bytes_hops, paired.origin_egress),
        (888_030.0, 7_410),
        "the paired storm's (bytes_hops, origin_egress) at {GATED_SUBSCRIPTIONS} \
         subscriptions moved: {paired:?}"
    );
    let massive = run_massive(1, 1_000, 400);
    println!("massive storm, 1000 subscriptions: {massive:?}");
    assert_eq!(
        massive.bytes_hops, 82_930.0,
        "the MassiveStorm's bytes_hops at 1000 subscriptions moved: {massive:?}"
    );
}

/// The Stream Definition Database lives on a DHT: every definition publish
/// and lookup of a deployment routes through Chord in at most `log2(nodes)`
/// hops on average.
#[test]
fn definition_lookups_stay_within_chords_hop_bound() {
    let row = run_scale(1, 1_000, 100);
    assert!(
        row.dht_operations > 0,
        "no definition-index operations went through the DHT at {} subscriptions — \
         lookups are bypassing Chord: {row:?}",
        row.subscriptions
    );
    assert!(
        row.dht_avg_hops <= row.hops_bound(),
        "Chord routing exceeded the log2(nodes) hop bound at {} subscriptions \
         ({:.2} > {:.2}): {row:?}",
        row.subscriptions,
        row.dht_avg_hops,
        row.hops_bound()
    );
}

/// Sketch partials answer `topk`, `entropy` and `quantile` within each
/// sketch's ε of an exact oracle over the same events.
#[test]
fn sketch_answers_stay_within_epsilon_of_exact() {
    const TOPK_MAX_REL_ERR: f64 = 0.05;
    const ENTROPY_MAX_ERR_BITS: f64 = 0.05;
    const QUANTILE_MAX_REL_ERR: f64 = 0.10;
    // `BENCH_sketch.json`'s 1k-peer row: 16 events per peer in 2 rounds.
    let row = run_sketch(1, 1_000, 16, 2);
    assert!(
        row.events > 0 && row.answers > 0,
        "the {}-peer tier drove no events or produced no aggregate answers — the byte \
         comparison passed vacuously: {row:?}",
        row.peers
    );
    assert!(
        row.topk_max_rel_err <= TOPK_MAX_REL_ERR,
        "topk heavy-hitter counts drifted beyond {TOPK_MAX_REL_ERR} of exact at {} \
         peers: {row:?}",
        row.peers
    );
    assert!(
        row.entropy_err_bits <= ENTROPY_MAX_ERR_BITS,
        "entropy answer drifted beyond {ENTROPY_MAX_ERR_BITS} bits of exact at {} \
         peers: {row:?}",
        row.peers
    );
    assert!(
        row.quantile_rel_err <= QUANTILE_MAX_REL_ERR,
        "quantile answer drifted beyond {QUANTILE_MAX_REL_ERR} of exact at {} \
         peers: {row:?}",
        row.peers
    );
}
