//! A subscription costs what it touches.
//!
//! Seven pins on the subscription lifetime's history walks, each a
//! deterministic counter compared across two sizes of what is already
//! deployed or of the plan itself:
//!
//! * `IndexStats::postings_read` for the reuse query.  A Filter's operand
//!   term carries a digest of its parameters, so a new Filter over a hub
//!   reads the postings of its own clause — not one per Filter the hub
//!   already runs.
//! * `IndexStats::query_operations` for the reuse query over many operands.
//!   The query stops at its first empty posting list, so an aggregate's
//!   unpublished Union asks one operand, not every leaf.
//! * `ReuseStats::loads_read` for load-aware provider selection.  A submit
//!   sums the rate-table channels of the peers it compares, not every
//!   channel the monitor has observed.
//! * `IndexStats::postings_read` for teardown.  A retraction scans the
//!   lists its definition was posted under; with no operator-wide term, no
//!   list holds every source of an aggregate, and tearing one down is
//!   linear in its leaves rather than quadratic.
//! * `IndexStats::postings_read` for a Filter's teardown.  Only a source
//!   posts the alerter lookup's `peer+operator` term, so no list holds every
//!   Filter on a hub, and tearing N of them down oldest first scans the same
//!   postings per unsubscribe for any N.
//! * `DispatchStats::registrations_scanned` for route retraction.  A
//!   teardown edits the routing entries its tasks registered in, not every
//!   consumer list of the deployment.
//! * `ReplicaStats::chains_walked` for orphan re-attachment.  An orphan asks
//!   whether a replica's forwarder chain reaches the origin only of a
//!   replica closer than its best choice so far, not of every declared one.

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{OverlappingStorm, SketchStorm};

const HUB: &str = "f-hub.net";
const MANAGER: &str = "f-mgr.org";

/// Subscription `i` of a storm of Filters no two of which share a clause.
fn distinct_filter(i: usize) -> String {
    filter_on(&[HUB], i)
}

/// The `i`-th distinct Filter over the calls of `hubs`.
fn filter_on(hubs: &[&str], i: usize) -> String {
    let peers: Vec<String> = hubs.iter().map(|hub| format!("<p>{hub}</p>")).collect();
    format!(
        "for $c in outCOM({})\nwhere $c.callMethod = \"M{i}\" and $c.duration > 8\n\
         return <hit sub=\"f{i}\"/>\nby email \"f{i}@example.org\";",
        peers.join(" ")
    )
}

/// A monitor with the clustered latency model of `storm`.
fn clustered_monitor(storm: &OverlappingStorm) -> Monitor {
    Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    })
}

/// Deploys `standing` distinct Filters over one hub, then returns the
/// postings read by one more distinct Filter and by an exact duplicate of
/// the first — asserting the duplicate was found.
fn postings_per_submit(standing: usize) -> (u64, u64) {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for i in 0..standing {
        monitor
            .submit(MANAGER, &distinct_filter(i))
            .expect("filter deploys");
    }
    let read_by = |monitor: &mut Monitor, text: &str| {
        let before = monitor.dht_stats().postings_read;
        let handle = monitor.submit(MANAGER, text).expect("filter deploys");
        let reuse = monitor.report(&handle).expect("report").reuse;
        (monitor.dht_stats().postings_read - before, reuse)
    };
    let (distinct, _) = read_by(&mut monitor, &distinct_filter(standing));
    let (duplicate, reuse) = read_by(&mut monitor, &distinct_filter(0));
    assert_eq!(
        reuse.new_nodes, 0,
        "an exact duplicate is covered up to its root among {standing} Filters"
    );
    (distinct, duplicate)
}

#[test]
fn a_filter_reads_the_postings_of_its_clause_not_of_the_hub() {
    let (distinct_100, duplicate_100) = postings_per_submit(100);
    let (distinct_1000, duplicate_1000) = postings_per_submit(1_000);
    assert_eq!(
        distinct_100, distinct_1000,
        "900 more Filters over the hub must not change what a new one reads"
    );
    assert_eq!(
        duplicate_100, duplicate_1000,
        "nor what finding an exact duplicate reads"
    );
    assert!(duplicate_100 > 0, "the duplicate's covers are read");
}

/// Brings `bystanders` peers into the rate table, one observed alerter
/// channel each, through one subscription over all of them.
fn observe_bystanders(monitor: &mut Monitor, bystanders: usize) {
    let peers: Vec<String> = (0..bystanders).map(|i| format!("by{i}.org")).collect();
    let list: Vec<String> = peers.iter().map(|p| format!("<p>{p}</p>")).collect();
    let text = format!(
        "for $c in inCOM({})\nreturn <seen m=\"{{$c.callMethod}}\"/>\nby email \"by@example.org\";",
        list.join(" ")
    );
    monitor
        .submit("by-mgr.org", &text)
        .expect("bystander subscription deploys");
    for (id, peer) in peers.iter().enumerate() {
        let call = SoapCall::new(id as u64, "http://client.org", peer.as_str(), "Get", 10, 20);
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
}

/// Drives `n` calls one at a time, so the storm's channels carry rates.
fn drive(monitor: &mut Monitor, traffic: &mut OverlappingStorm, n: usize) {
    for call in traffic.calls(n) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
}

/// Loads read by one churn-shaped submit — a duplicate shape arriving in a
/// cluster whose replicas compete on load — after `bystanders` other peers'
/// channels were observed.
fn loads_read_per_submit(bystanders: usize) -> u64 {
    const SHAPES: usize = 4;
    let storm = OverlappingStorm::clustered(3, SHAPES, 2, 4);
    let mut monitor = clustered_monitor(&storm);
    observe_bystanders(&mut monitor, bystanders);
    assert!(monitor.rate_table().len() >= bystanders);
    let mut traffic = storm.clone();
    let mut next = 0;
    for _ in 0..6 {
        for _ in 0..SHAPES {
            monitor
                .submit(storm.manager_of(next), &storm.subscription(next))
                .expect("storm subscription deploys");
            next += 1;
        }
        drive(&mut monitor, &mut traffic, 16);
    }
    let before = monitor.reuse_stats().loads_read;
    monitor
        .submit(storm.manager_of(next), &storm.subscription(next))
        .expect("storm subscription deploys");
    monitor.reuse_stats().loads_read - before
}

#[test]
fn a_submit_reads_the_loads_of_the_peers_it_compares() {
    let few = loads_read_per_submit(200);
    let many = loads_read_per_submit(2_000);
    assert_eq!(
        few, many,
        "1 800 more observed channels elsewhere must not change what a submit sums"
    );
    assert!(few > 0, "the submit compares providers by load");
}

/// Index queries and postings read by the second of two aggregates over the
/// same `leaves` sources.
fn queries_per_second_aggregate(leaves: usize) -> (u64, u64) {
    let storm = SketchStorm::sized(1, leaves);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    let texts = storm.aggregate_subscriptions(3, 0.99);
    monitor
        .submit(storm.manager(), &texts[0])
        .expect("aggregate deploys");
    let before = monitor.dht_stats();
    monitor
        .submit(storm.manager(), &texts[1])
        .expect("aggregate deploys");
    let after = monitor.dht_stats();
    (
        after.query_operations - before.query_operations,
        after.postings_read - before.postings_read,
    )
}

#[test]
fn a_reuse_query_stops_at_its_first_empty_posting_list() {
    for leaves in [64, 512] {
        let (queries, postings) = queries_per_second_aggregate(leaves);
        // Every leaf finds the source the first aggregate published; the
        // Union over them was never published, so its query ends at the
        // first operand's empty list instead of asking all `leaves`.
        assert_eq!(
            queries,
            leaves as u64 + 1,
            "{leaves} leaf queries and one operand query"
        );
        // As many as when the union asked every operand: the lists it no
        // longer asks are all empty.
        assert_eq!(postings, leaves as u64, "one source posting per leaf");
    }
}

/// Postings scanned while tearing down one aggregate over `leaves` peers.
fn postings_per_teardown(leaves: usize) -> u64 {
    let storm = SketchStorm::sized(1, leaves);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    let text = storm.aggregate_subscriptions(3, 0.99).swap_remove(0);
    let handle = monitor
        .submit(storm.manager(), &text)
        .expect("aggregate deploys");
    let before = monitor.dht_stats().postings_read;
    assert!(monitor.unsubscribe(&handle));
    monitor.dht_stats().postings_read - before
}

#[test]
fn tearing_an_aggregate_down_scans_postings_linearly_in_its_leaves() {
    let small = postings_per_teardown(1_000);
    let large = postings_per_teardown(4_000);
    assert!(
        small >= 1_000,
        "every leaf's source definition is retracted"
    );
    let ratio = large as f64 / small as f64;
    assert!(
        (3.5..=4.5).contains(&ratio),
        "4x the leaves scanned {large} postings against {small}: ratio {ratio:.2}, \
         linear would be 4"
    );
}

/// Postings scanned by each unsubscribe of an oldest-first teardown of `n`
/// distinct Filters over one hub, the last one (which also releases the
/// hub's source) left out.
fn postings_per_filter_unsubscribe(n: usize) -> Vec<u64> {
    let mut monitor = Monitor::new(MonitorConfig::default());
    let handles: Vec<_> = (0..n)
        .map(|i| {
            monitor
                .submit(MANAGER, &distinct_filter(i))
                .expect("filter deploys")
        })
        .collect();
    let mut scanned: Vec<u64> = handles
        .iter()
        .map(|handle| {
            let before = monitor.dht_stats().postings_read;
            assert!(monitor.unsubscribe(handle));
            monitor.dht_stats().postings_read - before
        })
        .collect();
    scanned.pop();
    scanned
}

#[test]
fn tearing_filters_down_oldest_first_scans_the_same_postings_per_unsubscribe() {
    let few = postings_per_filter_unsubscribe(100);
    let many = postings_per_filter_unsubscribe(1_000);
    let span = |scanned: &[u64]| (scanned.iter().min().copied(), scanned.iter().max().copied());
    let per_unsubscribe = Some(few[0]);
    assert!(few[0] > 0, "a Filter's own definitions are retracted");
    assert_eq!(
        (span(&few), span(&many)),
        (
            (per_unsubscribe, per_unsubscribe),
            (per_unsubscribe, per_unsubscribe)
        ),
        "every unsubscribe of 100 and of 1 000 Filters over the hub scans the same \
         postings (min, max)"
    );
}

/// Consumer registrations read by tearing down one Filter over two hubs — two
/// alerter feeds and the channel one hub's half crosses to the union on the
/// other — deployed beside `bystanders` distinct Filters over ten other hubs.
fn registrations_per_unsubscribe(bystanders: usize) -> u64 {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for i in 0..bystanders {
        let hub = format!("by{}.net", i % 10);
        monitor
            .submit(MANAGER, &filter_on(&[&hub], i))
            .expect("bystander deploys");
    }
    let handle = monitor
        .submit(MANAGER, &filter_on(&[HUB, "g-hub.net"], 0))
        .expect("filter deploys");
    let before = monitor.dispatch_stats().registrations_scanned;
    assert!(monitor.unsubscribe(&handle));
    monitor.dispatch_stats().registrations_scanned - before
}

#[test]
fn a_teardown_reads_the_registrations_of_its_own_routes() {
    let few = registrations_per_unsubscribe(100);
    let many = registrations_per_unsubscribe(1_000);
    assert_eq!(
        few, many,
        "900 more subscriptions on other hubs must not change what a teardown reads"
    );
    assert!(few > 0, "the teardown retracts its own registrations");
}

/// Forwarder chains walked when the replica forwarding for cluster 1 of a
/// one-shape clustered storm (`clusters` clusters of four consumers, one
/// subscription per consumer) is retracted: its three orphans choose among
/// the origin and one replica per other consumer peer.
fn chains_per_retraction(clusters: usize) -> u64 {
    const PER_CLUSTER: usize = 4;
    let storm = OverlappingStorm::clustered(5, 1, clusters, PER_CLUSTER);
    let mut monitor = clustered_monitor(&storm);
    let handles: Vec<_> = (0..storm.consumer_peers.len())
        .map(|i| {
            monitor
                .submit(storm.manager_of(i), &storm.subscription(i))
                .expect("storm subscription deploys")
        })
        .collect();
    let before = monitor.replica_stats();
    assert!(
        before.replicas_created as usize >= clusters * PER_CLUSTER - 1,
        "every consumer peer but the producer's re-publishes the stream"
    );
    // The first subscription of cluster 1 forwards the replica the rest of
    // its cluster attached to.
    assert!(monitor.unsubscribe(&handles[PER_CLUSTER]));
    let after = monitor.replica_stats();
    assert_eq!(after.replicas_retracted - before.replicas_retracted, 1);
    after.chains_walked - before.chains_walked
}

#[test]
fn an_orphan_walks_the_chains_of_the_replicas_that_would_win() {
    let two = chains_per_retraction(2);
    let eight = chains_per_retraction(8);
    assert_eq!(
        two, eight,
        "replicas in six more clusters, none closer, must not be walked"
    );
    assert!(
        two > 0,
        "an orphan's own dangling declaration is walked and refused"
    );
}
