//! The compiled link table answers what the `PerLink` model says.
//!
//! `LatencySampler::new` compiles a `LatencyModel::PerLink` map once into a
//! table keyed by the link's packed pair of interned symbols, and
//! `expected` / `sample_ids` read that table.  The model's map stays the
//! oracle: for every listed link of the clustered topologies the workloads
//! build, and for a sample of unlisted pairs (reverse and cross-cluster
//! links, self links, peers the map never names), the sampler must answer
//! exactly the map's value, or its `default` for an unlisted pair.

use std::collections::BTreeSet;

use p2pmon_net::latency::LatencySampler;
use p2pmon_net::{LatencyModel, PeerId};
use p2pmon_workloads::{MassiveStorm, OverlappingStorm};

/// Checks every listed link of `model` and a sample of unlisted pairs;
/// returns `(listed, unlisted)` links checked.
fn answers_like_the_map(model: LatencyModel) -> (usize, usize) {
    let LatencyModel::PerLink { links, default } = model.clone() else {
        panic!("a clustered topology lists its links");
    };
    let mut sampler = LatencySampler::new(model);
    for (&(from, to), &ms) in &links {
        assert_eq!(sampler.expected(from, to), ms, "{from} -> {to}");
        assert_eq!(sampler.sample_ids(from, to), ms, "{from} -> {to}");
        assert_eq!(sampler.sample(&from, &to), ms, "{from} -> {to} by name");
    }
    let mut peers: BTreeSet<PeerId> = links.keys().flat_map(|&(from, to)| [from, to]).collect();
    peers.extend((0..4).map(|k| PeerId::from(format!("unlisted{k}.org"))));
    let peers: Vec<PeerId> = peers.into_iter().collect();
    let mut unlisted = 0;
    for (i, &from) in peers.iter().enumerate() {
        for (j, &to) in peers.iter().enumerate() {
            if (i + j) % 3 != 0 {
                continue;
            }
            let want = links.get(&(from, to)).copied().unwrap_or(default);
            assert_eq!(sampler.expected(from, to), want, "{from} -> {to}");
            assert_eq!(sampler.sample_ids(from, to), want, "{from} -> {to}");
            unlisted += usize::from(!links.contains_key(&(from, to)));
        }
    }
    (links.len(), unlisted)
}

#[test]
fn the_clustered_consumer_topology_answers_like_its_map() {
    let (listed, unlisted) =
        answers_like_the_map(OverlappingStorm::clustered(1, 16, 8, 8).latency_model());
    assert_eq!(
        listed,
        8 * 8 * 7,
        "every same-cluster ordered pair is listed"
    );
    assert!(unlisted > 1_000, "{unlisted} unlisted pairs checked");
}

#[test]
fn the_scale_tier_topology_answers_like_its_map() {
    let (listed, unlisted) = answers_like_the_map(MassiveStorm::sized(1, 1024).latency_model());
    assert!(listed > 0);
    assert!(unlisted > 0, "{unlisted} unlisted pairs checked");
}
