//! Property tests: for random alert/subscription mixes, engine-gated
//! batched dispatch delivers exactly the same sink results as the
//! pre-refactor linear path (kept behind the `naive_dispatch` config flag as
//! the equivalence oracle), and every optimization knob (reuse, replicas)
//! leaves the sinks unchanged.

use proptest::prelude::*;

use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy, SubscriptionHandle};
use p2pmon_workloads::{OverlappingStorm, SubscriptionStorm};

fn run_storm(
    naive_dispatch: bool,
    placement: PlacementStrategy,
    enable_reuse: bool,
    storm: &SubscriptionStorm,
    n_subs: usize,
    n_calls: usize,
    traffic_seed: u64,
) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        placement,
        enable_reuse,
        naive_dispatch,
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
    let mut traffic = storm.clone_with_seed(traffic_seed);
    for call in traffic.calls(n_calls) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    (monitor, handles)
}

trait CloneWithSeed {
    fn clone_with_seed(&self, seed: u64) -> SubscriptionStorm;
}

impl CloneWithSeed for SubscriptionStorm {
    fn clone_with_seed(&self, seed: u64) -> SubscriptionStorm {
        let mut storm = SubscriptionStorm::new(seed);
        storm.monitored_peers.clone_from(&self.monitored_peers);
        storm.methods.clone_from(&self.methods);
        storm.pattern_every = self.pattern_every;
        storm.residual_every = self.residual_every;
        storm.slow_fraction = self.slow_fraction;
        storm.detail_fraction = self.detail_fraction;
        storm
    }
}

/// One step of the churn alphabet: `(operation, argument, drained)`.
/// Operations: 0 subscribe, 1 unsubscribe the `argument`-th live
/// subscription, 2 crash a cluster, 3 recover every crashed cluster,
/// 4 partition along cluster lines, 5 heal, anything else nothing.  Every step then injects three calls and runs the
/// monitor until idle — or, when `drained` is false, for one bare `tick()`,
/// so the next step's deploy, teardown or fault finds alerts batched on
/// their consuming hosts and messages in flight.
type ChurnStep = (u8, usize, bool);

/// Runs `n_base` subscriptions of the clustered `storm` and then `steps`
/// through a monitor built from `config` (the storm's latency model
/// applied); ends recovered, healed and drained.
fn churn(
    storm: &OverlappingStorm,
    clusters: usize,
    per_cluster: usize,
    config: MonitorConfig,
    n_base: usize,
    steps: &[ChurnStep],
) -> (Monitor, Vec<Option<SubscriptionHandle>>) {
    let cluster_peers = |c: usize| -> Vec<String> {
        (0..per_cluster)
            .map(|p| format!("c{c}-peer{p}.org"))
            .collect()
    };
    let mut monitor = Monitor::new(MonitorConfig {
        network: p2pmon_net::NetworkConfig {
            latency: storm.latency_model(),
            ..p2pmon_net::NetworkConfig::default()
        },
        ..config
    });
    monitor.add_peer("backend.net");
    let mut traffic = storm.clone();
    let mut handles: Vec<Option<SubscriptionHandle>> = Vec::new();
    let subscribe = |monitor: &mut Monitor, handles: &mut Vec<Option<SubscriptionHandle>>| {
        let i = handles.len();
        let handle = monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm deploys");
        handles.push(Some(handle));
    };
    for _ in 0..n_base {
        subscribe(&mut monitor, &mut handles);
    }
    let mut downed: Vec<usize> = Vec::new();
    for &(op, arg, drained) in steps {
        match op {
            0 => subscribe(&mut monitor, &mut handles),
            1 => {
                let live: Vec<usize> = handles
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.as_ref().map(|_| i))
                    .collect();
                if !live.is_empty() {
                    let victim = live[arg % live.len()];
                    let handle = handles[victim].take().expect("victim was live");
                    monitor.unsubscribe(&handle);
                }
            }
            2 => {
                let c = arg % clusters;
                if !downed.contains(&c) {
                    downed.push(c);
                    for peer in cluster_peers(c) {
                        monitor.fail_peer(&peer);
                    }
                }
            }
            3 => {
                for c in downed.drain(..) {
                    for peer in cluster_peers(c) {
                        monitor.recover_peer(&peer);
                    }
                }
            }
            4 => {
                let groups: Vec<Vec<String>> = (0..clusters).map(cluster_peers).collect();
                monitor.partition_peers(&groups);
            }
            5 => monitor.heal_partition(),
            _ => {}
        }
        for call in traffic.calls(3) {
            monitor.inject_soap_call(&call);
        }
        if drained {
            monitor.run_until_idle();
        } else {
            monitor.tick();
        }
    }
    for c in downed.drain(..) {
        for peer in cluster_peers(c) {
            monitor.recover_peer(&peer);
        }
    }
    monitor.heal_partition();
    for call in traffic.calls(10) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    (monitor, handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_dispatch_equals_naive_dispatch(
        seed in 0u64..10_000,
        n_subs in 1usize..24,
        n_calls in 1usize..32,
        methods in 1usize..6,
        pattern_every in 0usize..4,
        residual_every in 0usize..5,
        centralized in proptest::bool::ANY,
        enable_reuse in proptest::bool::ANY,
    ) {
        let mut storm = SubscriptionStorm::new(seed);
        storm.methods = (0..methods).map(|i| format!("Method{i}")).collect();
        storm.pattern_every = pattern_every;
        storm.residual_every = residual_every;
        let placement = if centralized {
            PlacementStrategy::Centralized
        } else {
            PlacementStrategy::PushToSources
        };

        let (engine_monitor, engine_handles) =
            run_storm(false, placement, enable_reuse, &storm, n_subs, n_calls, seed ^ 0xbeef);
        let (naive_monitor, naive_handles) =
            run_storm(true, placement, enable_reuse, &storm, n_subs, n_calls, seed ^ 0xbeef);

        for (e, n) in engine_handles.iter().zip(&naive_handles) {
            prop_assert_eq!(
                engine_monitor.results(e),
                naive_monitor.results(n),
                "sink divergence (seed {}, {} subs, {} calls, {:?}, reuse {})",
                seed, n_subs, n_calls, placement, enable_reuse
            );
        }
        // Gating can only remove work, never add it.
        prop_assert!(
            engine_monitor.operator_invocations <= naive_monitor.operator_invocations
        );
    }

    /// Batched engine dispatch ≡ naive fan-out across storms whose
    /// monitored functions are spread over several peers, so a round runs
    /// more than one host's local phase before the commit.
    #[test]
    fn engine_dispatch_equals_naive_across_multi_peer_storms(
        seed in 0u64..10_000,
        n_subs in 1usize..24,
        n_calls in 1usize..32,
        n_peers in 1usize..5,
        pattern_every in 0usize..4,
        residual_every in 0usize..5,
    ) {
        let mut storm = SubscriptionStorm::with_peers(seed, n_peers);
        storm.pattern_every = pattern_every;
        storm.residual_every = residual_every;
        let placement = PlacementStrategy::PushToSources;

        let (engine_monitor, engine_handles) =
            run_storm(false, placement, false, &storm, n_subs, n_calls, seed ^ 0xfeed);
        let (naive_monitor, naive_handles) =
            run_storm(true, placement, false, &storm, n_subs, n_calls, seed ^ 0xfeed);

        for (e, n) in engine_handles.iter().zip(&naive_handles) {
            prop_assert_eq!(
                engine_monitor.results(e),
                naive_monitor.results(n),
                "engine vs naive sink divergence (seed {}, {} subs, {} calls, {} peers)",
                seed, n_subs, n_calls, n_peers
            );
        }
    }

    /// Live stream reuse is an optimization, not a semantics change:
    /// reuse-on delivers byte-identical sink output to reuse-off over
    /// overlapping-subscription storms, without ever sending more network
    /// messages or running more operators.
    #[test]
    fn reuse_on_equals_reuse_off(
        seed in 0u64..10_000,
        shapes in 1usize..6,
        n_subs in 1usize..28,
        n_calls in 1usize..32,
        n_peers in 1usize..4,
    ) {
        let run = |enable_reuse: bool| -> (Monitor, Vec<SubscriptionHandle>) {
            let mut monitor = Monitor::new(MonitorConfig {
                enable_reuse,
                ..MonitorConfig::default()
            });
            for peer in ["manager.org", "backend.net"] {
                monitor.add_peer(peer);
            }
            let storm = OverlappingStorm::with_peers(seed, shapes, n_peers);
            let handles: Vec<SubscriptionHandle> = storm
                .subscriptions(n_subs)
                .iter()
                .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
                .collect();
            let mut traffic = OverlappingStorm::with_peers(seed ^ 0xc0de, shapes, n_peers);
            for call in traffic.calls(n_calls) {
                monitor.inject_soap_call(&call);
            }
            monitor.run_until_idle();
            (monitor, handles)
        };
        let (reuse_on, on_handles) = run(true);
        let (reuse_off, off_handles) = run(false);
        for (a, b) in on_handles.iter().zip(&off_handles) {
            prop_assert_eq!(
                reuse_on.results(a),
                reuse_off.results(b),
                "reuse sink divergence (seed {}, {} shapes, {} subs, {} calls, {} peers)",
                seed, shapes, n_subs, n_calls, n_peers
            );
        }
        prop_assert!(
            reuse_on.network_stats().total_messages
                <= reuse_off.network_stats().total_messages,
            "reuse must never add traffic ({} vs {})",
            reuse_on.network_stats().total_messages,
            reuse_off.network_stats().total_messages
        );
        prop_assert!(reuse_on.operator_invocations <= reuse_off.operator_invocations);
    }

    /// Churn under faults: random interleavings of subscribe, unsubscribe,
    /// cluster crash/recover, cluster-aligned partition/heal and traffic
    /// processing preserve the equivalence chain — engine ≡ naive dispatch
    /// and replica-on ≡ replica-off.  Faults are *cluster-granular* by
    /// construction: replica chains never leave a cluster (ties go to the
    /// origin), so failing or splitting whole clusters loses the same items
    /// under every variant, and the sinks must stay byte-identical after the
    /// final heal.
    #[test]
    fn churn_under_faults_preserves_the_equivalence_chain(
        seed in 0u64..10_000,
        shapes in 1usize..4,
        clusters in 2usize..4,
        per_cluster in 1usize..4,
        n_base in 1usize..10,
        ops in proptest::collection::vec((0u8..6, 0usize..16), 1..12),
    ) {
        let storm = OverlappingStorm::clustered(seed, shapes, clusters, per_cluster);
        let steps: Vec<ChurnStep> = ops.iter().map(|&(op, arg)| (op, arg, true)).collect();
        let run = |naive_dispatch: bool, enable_replicas: bool| {
            let config = MonitorConfig {
                naive_dispatch,
                enable_replicas,
                ..MonitorConfig::default()
            };
            churn(&storm, clusters, per_cluster, config, n_base, &steps)
        };

        let (engine, engine_h) = run(false, true);
        let (no_replica, no_replica_h) = run(false, false);
        let (naive, naive_h) = run(true, false);

        for (i, handle) in engine_h.iter().enumerate() {
            let Some(handle) = handle else {
                prop_assert!(no_replica_h[i].is_none());
                prop_assert!(naive_h[i].is_none());
                continue;
            };
            let expected = engine.results(handle);
            prop_assert_eq!(
                &expected,
                &no_replica.results(no_replica_h[i].as_ref().expect("aligned")),
                "replica divergence at sub {} (seed {}, {} shapes, {}x{})",
                i, seed, shapes, clusters, per_cluster
            );
            prop_assert_eq!(
                &expected,
                &naive.results(naive_h[i].as_ref().expect("aligned")),
                "engine-vs-naive divergence at sub {} (seed {}, {} shapes, {}x{})",
                i, seed, shapes, clusters, per_cluster
            );
        }
        // Fault drops are accounted identically however the engine is
        // configured: the ledger identity holds in every variant.
        for monitor in [&engine, &no_replica, &naive] {
            let stats = monitor.network_stats();
            prop_assert_eq!(
                stats.dropped_messages,
                stats.dropped_by_cause.total(),
                "drop ledger identity (seed {seed})"
            );
        }
    }

}

/// Replica re-publication is an optimization, not a semantics change: with
/// consumers spread over clustered manager peers, replica-on delivers
/// byte-identical sink output to replica-off — and the origin hubs never
/// send *more* messages than the replica-free baseline.
///
/// Two storms feed it.  The clustered storm's single-hub shapes all deploy
/// before any traffic.  The paired storm's shapes union two hubs with
/// skewed traffic; its first two subscriptions deploy, warm-up calls are
/// drained one at a time (so the per-channel rates see distinct instants),
/// and only then do the rest deploy — so the provider load tie-break, which
/// runs only with replicas on, picks among measured loads over unions.  At
/// least one case reads a load (`ReuseStats::loads_read`), so the tie-break
/// is not held vacuously.
#[test]
fn replicas_on_equals_replicas_off() {
    // Driven by the runner directly, so the cases can be counted.
    let mut loads_read = 0;
    TestRunner::new(ProptestConfig::with_cases(24)).run(|rng| {
        let seed = (0u64..10_000).new_value(rng);
        let paired = proptest::bool::ANY.new_value(rng);
        let shapes = (1usize..5).new_value(rng);
        let clusters = (1usize..4).new_value(rng);
        let per_cluster = (1usize..4).new_value(rng);
        let n_subs = (1usize..28).new_value(rng);
        let warmup_calls = (4usize..14).new_value(rng);
        let n_calls = (1usize..24).new_value(rng);
        let storm = if paired {
            OverlappingStorm::paired(seed, 4, clusters, per_cluster)
        } else {
            OverlappingStorm::clustered(seed, shapes, clusters, per_cluster)
        };
        let run = |enable_replicas: bool| -> (Monitor, Vec<SubscriptionHandle>) {
            let mut monitor = Monitor::new(MonitorConfig {
                enable_replicas,
                network: p2pmon_net::NetworkConfig {
                    latency: storm.latency_model(),
                    ..p2pmon_net::NetworkConfig::default()
                },
                ..MonitorConfig::default()
            });
            monitor.add_peer("backend.net");
            let mut traffic = storm.clone();
            let early = if paired { 2usize.min(n_subs) } else { n_subs };
            let mut handles: Vec<SubscriptionHandle> = Vec::with_capacity(n_subs);
            for i in 0..n_subs {
                if paired && i == early {
                    for call in traffic.calls(warmup_calls) {
                        monitor.inject_soap_call(&call);
                        monitor.run_until_idle();
                    }
                }
                handles.push(
                    monitor
                        .submit(storm.manager_of(i), &storm.subscription(i))
                        .expect("storm deploys"),
                );
            }
            for call in traffic.calls(n_calls) {
                monitor.inject_soap_call(&call);
            }
            monitor.run_until_idle();
            (monitor, handles)
        };
        let (replica_on, on_handles) = run(true);
        let (replica_off, off_handles) = run(false);
        for (a, b) in on_handles.iter().zip(&off_handles) {
            prop_assert_eq!(
                replica_on.results(a),
                replica_off.results(b),
                "replica sink divergence (seed {seed}, paired {paired}, {shapes} shapes, \
                 {clusters}x{per_cluster} consumers, {n_subs} subs, {warmup_calls}+{n_calls} calls)"
            );
        }
        let origin_out = |monitor: &Monitor| -> u64 {
            let per_peer = monitor.network_stats().per_peer();
            storm
                .monitored_peers
                .iter()
                .filter_map(|hub| per_peer.get(&hub.as_str().into()))
                .map(|t| t.messages_out)
                .sum()
        };
        prop_assert!(
            origin_out(&replica_on) <= origin_out(&replica_off),
            "replicas must never add origin-peer load ({} vs {})",
            origin_out(&replica_on),
            origin_out(&replica_off)
        );
        loads_read += replica_on.reuse_stats().loads_read;
        Ok(())
    });
    assert!(loads_read > 0, "no generated case read a provider load");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine ≡ naive with work in flight across every edit of the
    /// deployment.  The properties above compare after `run_until_idle`,
    /// where no alert is ever batched across a deploy; here a step may end
    /// after one bare `tick()`, so the following `submit`, `unsubscribe` or
    /// cluster crash finds alerts batched on their consuming hosts under
    /// target lists, multicast plans and gate resolutions compiled before
    /// it.  Both monitors declare the same replicas over the same network,
    /// so they hold the same items in flight at every step; whatever the
    /// engine side kept compiled across the edit must deliver what the
    /// oracle — which gates nothing and keeps no resolution — delivers.
    #[test]
    fn engine_equals_naive_with_alerts_in_flight_across_deployment_edits(
        seed in 0u64..10_000,
        shapes in 1usize..4,
        clusters in 2usize..4,
        per_cluster in 1usize..4,
        n_base in 1usize..10,
        steps in proptest::collection::vec((0u8..8, 0usize..16, proptest::bool::ANY), 1..20),
    ) {
        let storm = OverlappingStorm::clustered(seed, shapes, clusters, per_cluster);
        let run = |naive_dispatch: bool| {
            let config = MonitorConfig {
                naive_dispatch,
                ..MonitorConfig::default()
            };
            churn(&storm, clusters, per_cluster, config, n_base, &steps)
        };
        let (engine, engine_h) = run(false);
        let (naive, naive_h) = run(true);
        prop_assert_eq!(engine_h.len(), naive_h.len());
        for (i, (e, n)) in engine_h.iter().zip(&naive_h).enumerate() {
            let (Some(e), Some(n)) = (e, n) else {
                prop_assert!(e.is_none() && n.is_none());
                continue;
            };
            prop_assert_eq!(
                engine.results(e),
                naive.results(n),
                "engine-vs-naive divergence at sub {} (seed {}, {} shapes, {}x{}, {:?})",
                i, seed, shapes, clusters, per_cluster, steps
            );
        }
        prop_assert_eq!(
            engine.network_stats().total_messages,
            naive.network_stats().total_messages,
            "gating never changes what crosses the wire"
        );
        prop_assert_eq!(engine.bookkeeping_snapshot(), naive.bookkeeping_snapshot());
    }
}

/// Removals from a large index, end to end: 220 subscriptions with pairwise
/// distinct WHERE clauses on one hub (reuse cannot collapse them) fill its
/// engine, and most of them are unsubscribed between rounds — first one by
/// one out of the hash-tree, then across the rebuild a
/// mostly dead alphabet triggers.  Every round carries an alert each
/// subscription takes, so a survivor lost by a prune (or a victim kept) would
/// show in its sink; the sinks stay byte-identical to the `naive_dispatch`
/// oracle's.
#[test]
fn unsubscribing_most_of_a_large_index_between_rounds_leaves_the_sinks_unchanged() {
    use p2pmon_alerters::SoapCall;
    use p2pmon_xmlkit::Element;

    /// The engine-dispatch monitor and its `naive_dispatch` oracle, each with
    /// the handles of the same submissions.
    type Deployments = Vec<(Monitor, Vec<SubscriptionHandle>)>;

    const SUBS: usize = 220;
    let mut storm = SubscriptionStorm::new(11);
    storm.methods = (0..SUBS).map(|i| format!("Method{i}")).collect();
    let mut deployments: Deployments = [false, true]
        .into_iter()
        .map(|naive_dispatch| {
            let mut monitor = Monitor::new(MonitorConfig {
                naive_dispatch,
                ..MonitorConfig::default()
            });
            for peer in ["manager.org", "backend.net"] {
                monitor.add_peer(peer);
            }
            let handles = storm
                .subscriptions(SUBS)
                .iter()
                .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
                .collect();
            (monitor, handles)
        })
        .collect();

    // Two calls per method: a slow one with a `<detail>` body, which every
    // subscription on that method takes, and a fast bare one, which only
    // those without pattern or residual do.
    let mut next_id = 0u64;
    let mut round = |deployments: &mut Deployments| {
        for m in 0..2 * SUBS {
            let sent = 1_000 + 50 * next_id;
            let rich = m.is_multiple_of(2);
            let mut call = SoapCall::new(
                next_id,
                "http://hub.net",
                storm.service.clone(),
                format!("Method{}", m / 2),
                sent,
                sent + if rich { 25 } else { 5 },
            );
            if rich {
                call = call.with_body(Element::text_element("detail", "payload"));
            }
            next_id += 1;
            for (monitor, _) in deployments.iter_mut() {
                monitor.inject_soap_call(&call);
            }
        }
        for (monitor, _) in deployments.iter_mut() {
            monitor.run_until_idle();
        }
        let (engine, oracle) = (&deployments[0], &deployments[1]);
        let mut delivered = 0;
        for (e, o) in engine.1.iter().zip(&oracle.1) {
            assert_eq!(engine.0.results(e), oracle.0.results(o), "sink of {e:?}");
            delivered += engine.0.results(e).len();
        }
        delivered
    };
    let first = round(&mut deployments);
    assert!(
        first >= SUBS,
        "every subscription takes its slow call: {first}"
    );
    let hub = deployments[0].0.peer_filter_stats("hub.net").expect("hub");
    assert_eq!(hub.documents, 2 * SUBS as u64);
    assert_eq!(round(&mut deployments), 2 * first);

    // The victims come from the middle, so the first and the last
    // subscription are still there to be missed.
    let unsubscribe = |deployments: &mut Deployments, victims: std::ops::Range<usize>| {
        for (monitor, handles) in deployments.iter_mut() {
            for handle in &handles[victims.clone()] {
                assert!(monitor.unsubscribe(handle));
            }
        }
    };
    unsubscribe(&mut deployments, 30..140);
    let half = round(&mut deployments);
    assert!(half > 2 * first, "the 110 left deliver");
    assert!(half < 3 * first, "the 110 gone do not");
    unsubscribe(&mut deployments, 140..190);
    let before = round(&mut deployments);
    assert!(round(&mut deployments) > before, "the 60 left deliver");
}

/// The stale-gate case: an item is batched for a host whose pass-through
/// `ChannelSource` is collapsed into the `Select` it feeds, and *then* a new
/// subscription taps that pass-through's output channel (the host's replica
/// of the stream).  Gates are resolved when the batch is drained, against the
/// tables as they are then, so the pass-through runs after all and the new
/// subscriber receives the item — exactly as under `naive_dispatch`, where
/// nothing is ever collapsed.  A design that resolved the gate when the item
/// was batched would deliver it to the select alone.
#[test]
fn an_item_batched_before_a_tap_is_deployed_reaches_the_new_subscriber() {
    let sinks = |naive_dispatch: bool| {
        // Centralized placement keeps every operator on its manager: the
        // producer's root emits from p.org, the consumers run on watcher.org.
        let mut monitor = Monitor::new(MonitorConfig {
            naive_dispatch,
            placement: PlacementStrategy::Centralized,
            ..MonitorConfig::default()
        });
        for peer in ["p.org", "hub.net", "backend.net", "watcher.org"] {
            monitor.add_peer(peer);
        }
        let producer = monitor
            .submit(
                "p.org",
                r#"for $c in outCOM(<p>hub.net</p>)
                   where $c.callMethod = "Get"
                   return <hit method="{$c.callMethod}"/>
                   by publish as channel "feed";"#,
            )
            .expect("producer deploys");
        // A remote consumer: `ChannelSource → Select` on watcher.org, which
        // also makes watcher.org re-publish the stream (its pass-through's
        // output channel is the replica).
        let filtered = monitor
            .submit(
                "watcher.org",
                r##"for $x in channel("#feed@p.org")
                    where $x.method = "Get"
                    return <filtered method="{$x.method}"/>
                    by email "ops@watcher.org";"##,
            )
            .expect("consumer deploys");

        let call = |id: u64| {
            p2pmon_alerters::SoapCall::new(
                id,
                "http://hub.net",
                "http://backend.net",
                "Get",
                1_000 * id,
                1_000 * id + 20,
            )
        };
        // A first item, all the way through: watcher.org has now resolved
        // the gates of the plan's target list once — collapsed — and keeps
        // that resolution for as long as the deployment stands.
        monitor.inject_soap_call(&call(1));
        monitor.run_until_idle();
        assert_eq!(monitor.results(&filtered).len(), 1);

        monitor.inject_soap_call(&call(2));
        // Bare rounds, until the network has delivered the item and it sits
        // batched on watcher.org under the pass-through's target.
        let batched = |monitor: &Monitor| {
            let watcher = monitor.peer_host("watcher.org").expect("hosted");
            watcher.pending_alert_count()
        };
        let mut rounds = 0;
        while batched(&monitor) == 0 {
            rounds += 1;
            assert!(rounds <= 4 && monitor.tick(), "the item never arrived");
        }
        assert_eq!(batched(&monitor), 1, "the item is batched");
        assert_eq!(monitor.results(&filtered).len(), 1);

        // The closest provider of the stream for a watcher.org subscriber is
        // watcher.org's own replica: the pass-through's output channel.
        let tap = monitor
            .submit(
                "watcher.org",
                r##"for $x in channel("#feed@p.org")
                    return <tapped method="{$x.method}"/>
                    by email "audit@watcher.org";"##,
            )
            .expect("tap deploys");
        let attached = monitor.subscribed_providers(&tap);
        assert_eq!(attached.len(), 1);
        assert_eq!(attached[0].0, "watcher.org", "the tap rides the replica");
        assert_eq!(
            monitor.replica_stats().consumers_via_replica,
            1,
            "…and was served by it"
        );

        monitor.tick();
        monitor.run_until_idle();
        [producer, filtered, tap].map(|handle| monitor.results(&handle))
    };
    let [produced, filtered, tapped] = sinks(false);
    assert_eq!(produced.len(), 2);
    assert_eq!(filtered.len(), 2);
    assert_eq!(
        tapped.len(),
        1,
        "the item batched before the tap was deployed reaches the tap"
    );
    assert_eq!(tapped[0].attr("method"), Some("Get"));
    assert_eq!(
        [produced, filtered, tapped],
        sinks(true),
        "identically under naive dispatch"
    );
}
