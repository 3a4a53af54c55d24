//! Property tests: the zero-copy hot path (one `Arc<Element>` shared by
//! every consumer of an item) is an optimization, not a semantics change.
//! The oracle is `deep_clone_items` — a config flag that deep-copies every
//! item at creation, so no two operators can possibly alias a tree.  For
//! any storm and a mutation-heavy operator mix (restructuring patterns and
//! LET residuals rewrite trees — the copy-on-write points), sink output
//! must be byte-identical between the shared and the isolated runs.
//!
//! The sink keeps the tree it is handed: every sink of a reused stream and
//! the published channel's history hold one allocation per result, and no
//! byte is copied on delivery.

use std::sync::Arc;

use proptest::prelude::*;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{OverlappingStorm, SubscriptionStorm};
use p2pmon_xmlkit::Element;

#[allow(clippy::too_many_arguments)]
fn run_storm(
    deep_clone_items: bool,
    enable_reuse: bool,
    storm_seed: u64,
    n_peers: usize,
    pattern_every: usize,
    residual_every: usize,
    n_subs: usize,
    n_calls: usize,
) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut storm = SubscriptionStorm::with_peers(storm_seed, n_peers);
    storm.pattern_every = pattern_every;
    storm.residual_every = residual_every;
    let mut monitor = Monitor::new(MonitorConfig {
        placement: PlacementStrategy::PushToSources,
        enable_reuse,
        deep_clone_items,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "backend.net"] {
        monitor.add_peer(peer);
    }
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(n_subs)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    let mut traffic = SubscriptionStorm::with_peers(storm_seed, n_peers);
    traffic.pattern_every = pattern_every;
    traffic.residual_every = residual_every;
    for call in traffic.calls(n_calls) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    (monitor, handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Shared-`Arc` dispatch ≡ the deep-clone-everything oracle: same sink
    /// bytes.  `pattern_every`/`residual_every` down to 1 make every
    /// subscription rewrite its input (restructure + LET residual),
    /// exercising the copy-on-write boundary on most items.
    #[test]
    fn zero_copy_dispatch_equals_deep_clone_oracle(
        seed in 0u64..10_000,
        n_subs in 1usize..24,
        n_calls in 1usize..28,
        n_peers in 1usize..5,
        pattern_every in 1usize..4,
        residual_every in 1usize..4,
        enable_reuse in proptest::bool::ANY,
    ) {
        let (shared, shared_handles) = run_storm(
            false, enable_reuse, seed, n_peers,
            pattern_every, residual_every, n_subs, n_calls,
        );
        let (isolated, isolated_handles) = run_storm(
            true, enable_reuse, seed, n_peers,
            pattern_every, residual_every, n_subs, n_calls,
        );
        for (s, i) in shared_handles.iter().zip(&isolated_handles) {
            prop_assert_eq!(
                shared.results(s),
                isolated.results(i),
                "zero-copy sink divergence — an operator mutated a shared tree \
                 (seed {}, {} subs, {} calls, {} peers, \
                  pattern_every {}, residual_every {}, reuse {})",
                seed, n_subs, n_calls, n_peers,
                pattern_every, residual_every, enable_reuse
            );
        }
        // Sharing changes who owns the bytes, never how much work runs.
        prop_assert_eq!(shared.operator_invocations, isolated.operator_invocations);
    }
}

/// Two subscriptions of one shape, the second attached to the first's
/// running root by reuse: each result is one tree, held by both sinks and
/// by the channel the root task publishes.
#[test]
fn a_reused_stream_shares_one_tree_across_its_sinks() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("manager.org");
    let text = |by: &str| {
        format!(
            "for $c in outCOM(<p>hub.net</p>)\n\
             where $c.callMethod = \"Pay\"\n\
             return <hit method=\"{{$c.callMethod}}\"/>\n\
             by {by};"
        )
    };
    let producer = monitor
        .submit("manager.org", &text("publish as channel \"hits\""))
        .expect("deploys");
    let consumer = monitor
        .submit("manager.org", &text("email \"ops@example.org\""))
        .expect("deploys");
    assert!(monitor.reuse_stats().hit_rate() > 0.0, "the second reuses");
    for id in 0..3 {
        monitor.inject_soap_call(&SoapCall::new(
            id,
            "http://hub.net",
            "http://backend.net",
            "Pay",
            10,
            20,
        ));
    }
    monitor.run_until_idle();

    let published = monitor.published_channel("hub.net", "hits");
    let (first, second) = (monitor.results(&producer), monitor.results(&consumer));
    assert_eq!(published.len(), 3);
    assert_eq!((first.len(), second.len()), (3, 3));
    for ((root, a), b) in published.iter().zip(&first).zip(&second) {
        assert!(
            Arc::ptr_eq(root, a),
            "the producer's sink holds the root's output"
        );
        assert!(Arc::ptr_eq(a, b), "the reusing sink holds the same tree");
    }
    assert_eq!(monitor.dispatch_stats().sink_clone_bytes, 0);
}

/// The `churn_mix` shape of the end-to-end benchmark (16 shapes over 8 hubs,
/// duplicates spread over 8 clusters of 8 consumer peers), scaled down:
/// standing subscriptions, then steps that each retire the oldest, submit
/// as many and dispatch a batch.  Results fan out to many sinks and none is
/// copied into one.
#[test]
fn a_churn_mix_round_copies_nothing_into_sinks() {
    const STANDING: usize = 128;
    const STEPS: usize = 4;
    const CHURN: usize = 8;
    const BATCH: usize = 64;
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .chain(&storm.consumer_peers)
        .cloned()
        .collect();
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: peers.len(),
        ..MonitorConfig::default()
    });
    for peer in peers {
        monitor.add_peer(peer);
    }
    let mut traffic = storm.clone();
    let submit = |monitor: &mut Monitor, i: usize| {
        monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm subscription deploys")
    };
    let mut live: Vec<SubscriptionHandle> =
        (0..STANDING).map(|i| submit(&mut monitor, i)).collect();
    for step in 0..STEPS {
        for oldest in live.drain(..CHURN) {
            assert!(monitor.unsubscribe(&oldest));
        }
        for i in 0..CHURN {
            live.push(submit(&mut monitor, STANDING + step * CHURN + i));
        }
        for call in traffic.calls(BATCH) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
    }

    let results: Vec<Arc<Element>> = live.iter().flat_map(|h| monitor.results(h)).collect();
    let mut trees: Vec<*const Element> = results.iter().map(Arc::as_ptr).collect();
    trees.sort_unstable();
    trees.dedup();
    assert!(
        trees.len() < results.len(),
        "reuse fans one result out to several sinks: {} trees, {} results",
        trees.len(),
        results.len()
    );
    assert_eq!(monitor.dispatch_stats().sink_clone_bytes, 0);
}
