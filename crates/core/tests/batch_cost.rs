//! Deploy compiles, dispatch executes.
//!
//! What a batch fans out through — a channel's multicast plan, an alerter
//! feed's target list, a host's engine-gate resolution of the target lists
//! it is handed — is compiled from the deployment, so it is compiled when
//! the deployment changes and not when a batch arrives.
//! `DispatchStats::plans_compiled` and `DispatchStats::gates_resolved` count
//! the compilations (never the debug-build audit's), which pins that the way
//! `host_visits` pins the round and `providers_scored` the submit: over a
//! standing deployment the first batch pays for what it touches and every
//! later batch reads 0 and 0; one `submit` or `unsubscribe` makes exactly
//! the next batch pay again; and none of it sees how many idle peers are
//! registered beside the deployment.

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_filter::FilterStats;
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{OverlappingStorm, SubscriptionStorm};

/// `(plans_compiled, gates_resolved)` so far.
fn compiled(monitor: &Monitor) -> (u64, u64) {
    let stats = monitor.dispatch_stats();
    (stats.plans_compiled, stats.gates_resolved)
}

/// Runs `batch` and returns what it compiled.
fn cost_of(monitor: &mut Monitor, batch: impl FnOnce(&mut Monitor)) -> (u64, u64) {
    let before = compiled(monitor);
    batch(monitor);
    monitor.run_until_idle();
    let after = compiled(monitor);
    (after.0 - before.0, after.1 - before.1)
}

/// The `filter_storm` shape: one hub, `SELECTS` subscriptions whose WHERE
/// clauses are pairwise distinct, so reuse (on) collapses nothing and the hub
/// hosts one registered select per subscription.
const SELECTS: usize = 1_000;

/// Deploys the storm beside `idle_peers` peers no plan names.
fn deploy_filter_storm(idle_peers: usize) -> (Monitor, SubscriptionStorm, Vec<SubscriptionHandle>) {
    let mut storm = SubscriptionStorm::new(5);
    storm.methods = (0..=SELECTS).map(|i| format!("Method{i}")).collect();
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["manager.org", "backend.net"] {
        monitor.add_peer(peer);
    }
    for i in 0..idle_peers {
        monitor.add_peer(format!("idle{i}.org"));
    }
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(SELECTS)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    let hub = monitor.peer_host("hub.net").expect("the hub is hosted");
    assert_eq!(hub.registered_selects(), SELECTS, "reuse collapses nothing");
    (monitor, storm, handles)
}

/// Deploys the storm beside `idle_peers` peers no plan names and returns the
/// per-batch compile costs of: the first batch, 10 more, 100 more, the batch
/// after one `submit` and the one after it, the batch after one
/// `unsubscribe` and the one after it — with the number of results the whole
/// run delivered.
fn standing_filter_storm(idle_peers: usize) -> (Vec<(u64, u64)>, usize) {
    let (mut monitor, storm, mut handles) = deploy_filter_storm(idle_peers);
    let mut traffic = storm.clone();
    let mut batch = |monitor: &mut Monitor| {
        for call in traffic.calls(16) {
            monitor.inject_soap_call(&call);
        }
    };
    let mut costs = vec![cost_of(&mut monitor, &mut batch)];
    for following in [10, 100] {
        let mut total = (0, 0);
        for _ in 0..following {
            let (plans, gates) = cost_of(&mut monitor, &mut batch);
            total = (total.0 + plans, total.1 + gates);
        }
        costs.push(total);
    }
    let late = monitor
        .submit("manager.org", &storm.subscription(SELECTS))
        .expect("one more deploys");
    handles.push(late);
    costs.push(cost_of(&mut monitor, &mut batch));
    costs.push(cost_of(&mut monitor, &mut batch));
    assert!(monitor.unsubscribe(&handles[SELECTS / 2]));
    costs.push(cost_of(&mut monitor, &mut batch));
    costs.push(cost_of(&mut monitor, &mut batch));
    let delivered = handles.iter().map(|h| monitor.results(h).len()).sum();
    (costs, delivered)
}

#[test]
fn a_standing_deployment_compiles_once_and_an_edit_makes_the_next_batch_pay() {
    let (costs, delivered) = standing_filter_storm(0);
    assert!(delivered > 0, "the storm delivers");
    let [first, ten_more, hundred_more, after_submit, then, after_unsubscribe, and_then] =
        costs[..]
    else {
        panic!("seven readings, got {costs:?}");
    };
    // Two fan-outs: the hub's feed (the first subscription's source task)
    // and the multicast plan of the source stream every later subscription
    // reuses, all of them attached on the hub itself.  Every target of
    // either is a pass-through whose select's gate the hub resolves.
    let selects = SELECTS as u64;
    assert_eq!(
        first,
        (2, selects),
        "the first batch pays for what it touches"
    );
    assert_eq!(ten_more, (0, 0), "10 batches over a standing deployment");
    assert_eq!(
        hundred_more,
        (0, 0),
        "100 batches over a standing deployment"
    );
    assert_eq!(after_submit, (2, selects + 1), "a submit edits the fan-out");
    assert_eq!(then, (0, 0), "…and only the next batch pays for it");
    assert_eq!(after_unsubscribe, (2, selects), "so does an unsubscribe");
    assert_eq!(and_then, (0, 0), "…and only the next batch pays for it");

    let (beside_idle_peers, delivered_beside) = standing_filter_storm(2_000);
    assert_eq!(
        (costs, delivered),
        (beside_idle_peers, delivered_beside),
        "2 000 idle peers must not change what a batch compiles"
    );
}

const ENGINE_DOCUMENTS: u64 = 16;
const BATCH_DEDUP_HITS: u64 = 16;
const HUB_STATS: FilterStats = FilterStats {
    documents: 16,
    documents_matched: 12,
    complex_evaluations: 9,
    complex_stage_entered: 9,
    promotions: 0,
    condition_probes: 32,
    trees_compared: 0,
};

/// What one batch of the storm costs the hub's engine, recorded when
/// `match_batch` found duplicates by hashing whole trees (137e24c):
/// `cargo test -q -p p2pmon-core --test batch_cost -- one_batch --nocapture`
/// prints the values to re-record.
///
/// Every alert enters the hub's batch twice, as one `Arc`: once on the feed
/// list of the first subscription's `Source` task, and once on the local
/// multicast group of the source stream every later subscription reuses.
/// So half of the documents are dedup hits, and every one of them is a
/// second reference to an allocation already in the batch: no tree is
/// compared (`trees_compared`, which that commit did not count, reads 0).
#[test]
fn one_batch_costs_the_recorded_engine_work_and_compares_no_tree() {
    let (mut monitor, mut traffic, _handles) = deploy_filter_storm(0);
    for call in traffic.calls(16) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let dispatch = monitor.dispatch_stats();
    let hub = monitor
        .peer_filter_stats("hub.net")
        .expect("the hub has an engine");
    println!(
        "engine_documents {} batch_dedup_hits {} hub {hub:?}",
        dispatch.engine_documents, dispatch.batch_dedup_hits
    );
    assert_eq!(
        (dispatch.engine_documents, dispatch.batch_dedup_hits),
        (ENGINE_DOCUMENTS, BATCH_DEDUP_HITS)
    );
    assert_eq!(hub, HUB_STATS);
}

/// The same claim where the fan-out crosses the wire: the clustered storm's
/// duplicates subscribe to each shape's root channel, replicas forward it
/// into every cluster, so a batch goes through multicast plans on the
/// emitting side, the same plans read back on the receiving side, and gate
/// resolutions on hub and consumer hosts alike.
#[test]
fn multicast_plans_and_receiving_side_gates_are_compiled_once_too() {
    let storm = OverlappingStorm::clustered(3, 6, 3, 3);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(96)
        .iter()
        .enumerate()
        .map(|(i, text)| {
            monitor
                .submit(storm.manager_of(i), text)
                .expect("clustered storm deploys")
        })
        .collect();
    let mut traffic = storm.clone();
    let mut batch = |monitor: &mut Monitor| {
        for call in traffic.calls(32) {
            monitor.inject_soap_call(&call);
        }
    };
    // The first batches compile as traffic reaches each shape's channels;
    // once every shape has carried an item there is nothing left to compile.
    let mut warm_up = (0, 0);
    for _ in 0..8 {
        let (plans, gates) = cost_of(&mut monitor, &mut batch);
        warm_up = (warm_up.0 + plans, warm_up.1 + gates);
    }
    assert!(warm_up.0 > 6, "channels were compiled: {warm_up:?}");
    assert!(
        warm_up.1 >= 96,
        "every sink's feed was resolved: {warm_up:?}"
    );
    let messages = monitor.network_stats().total_messages;
    for round in 0..50 {
        assert_eq!(cost_of(&mut monitor, &mut batch), (0, 0), "round {round}");
    }
    assert!(
        monitor.network_stats().total_messages > messages,
        "the steady rounds did cross the wire"
    );
    // A teardown retracts its consumers from the channels they read: the
    // next batch recompiles, the one after does not.
    assert!(monitor.unsubscribe(&handles[6]));
    let (plans, gates) = cost_of(&mut monitor, &mut batch);
    assert!(
        plans > 0 && gates > 0,
        "the edit is paid for: {plans} {gates}"
    );
    // Not every shape need appear in one batch of 32; drain the stragglers.
    for _ in 0..8 {
        cost_of(&mut monitor, &mut batch);
    }
    assert_eq!(cost_of(&mut monitor, &mut batch), (0, 0));
}

/// The two counters ride the `monStats` stream beside `hostVisits`, so a
/// subscription over the monitor itself can tell a monitor that compiles per
/// deployment from one that compiles per round.
#[test]
fn mon_stats_publishes_both_counters() {
    let mut monitor = Monitor::new(MonitorConfig {
        ..MonitorConfig::default()
    });
    let storm = SubscriptionStorm::new(9);
    for text in storm.subscriptions(8) {
        monitor.submit("manager.org", &text).expect("storm deploys");
    }
    let watch = monitor
        .submit(
            "manager.org",
            r#"for $m in monStats(<p>self</p>)
               where $m.kind = "dispatch"
               return <compiled plans="{$m.plansCompiled}" gates="{$m.gatesResolved}"/>
               by email "ops@manager.org";"#,
        )
        .expect("self-watch deploys");
    let mut traffic = storm.clone();
    let mut snapshots = Vec::new();
    for _ in 0..3 {
        for call in traffic.calls(8) {
            monitor.inject_soap_call(&call);
        }
        // Each call opens with one snapshot of the counters as they stand.
        snapshots.push(compiled(&monitor));
        monitor.run_until_idle();
    }
    let published: Vec<(u64, u64)> = monitor
        .results(&watch)
        .iter()
        .map(|item| {
            let read = |name| item.attr(name).expect(name).parse().expect(name);
            (read("plans"), read("gates"))
        })
        .collect();
    assert_eq!(published, snapshots);
    assert!(
        snapshots[1].0 > 0 && snapshots[1].1 > 0,
        "the first batch compiled"
    );
    assert_eq!(snapshots[1], snapshots[2], "the later ones did not");
}

/// The smallest edit there is: with reuse off, a select-free subscription
/// managed on the monitored peer itself adds one source task to the feed and
/// touches nothing else — no channel, no gate, no route.  The feed's kept
/// target list must still go stale.
#[test]
fn a_feed_that_only_gains_a_source_task_is_recompiled() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        ..MonitorConfig::default()
    });
    let submit = |monitor: &mut Monitor, by: &str| {
        let text = format!(
            "for $c in inCOM(<p>a.com</p>)\n\
             return <seen by=\"{by}\" method=\"{{$c.callMethod}}\"/>\n\
             by email \"{by}@a.com\";"
        );
        monitor.submit("a.com", &text).expect("deploys")
    };
    let mut next_id = 0;
    let mut call = |monitor: &mut Monitor| {
        next_id += 1;
        let sent = 1_000 * next_id;
        monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
            next_id,
            "http://client.org",
            "a.com",
            "Get",
            sent,
            sent + 5,
        ));
    };
    let first = submit(&mut monitor, "first");
    assert_eq!(cost_of(&mut monitor, &mut call), (1, 1));
    assert_eq!(cost_of(&mut monitor, &mut call), (0, 0));
    let second = submit(&mut monitor, "second");
    assert_eq!(cost_of(&mut monitor, &mut call), (1, 2));
    assert_eq!(cost_of(&mut monitor, &mut call), (0, 0));
    assert_eq!(monitor.results(&first).len(), 4);
    assert_eq!(monitor.results(&second).len(), 2);
    assert_eq!(monitor.network_stats().total_messages, 0, "all on a.com");
}
