//! Property tests: the zero-copy hot path (one `Arc<Element>` shared by
//! every consumer of an item) is an optimization, not a semantics change.
//! The oracle is `deep_clone_items` — a config flag that deep-copies every
//! item at creation, so no two operators can possibly alias a tree.  For
//! any storm and a mutation-heavy operator mix (restructuring patterns and
//! LET residuals rewrite trees — the copy-on-write points), sink output
//! must be byte-identical between the shared and the isolated runs.

use proptest::prelude::*;

use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy, SubscriptionHandle};
use p2pmon_workloads::SubscriptionStorm;

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
