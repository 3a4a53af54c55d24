//! Replica re-publication (Section 5's `<InChannel>` declarations), live:
//! a subscriber of a hot channel hosted away from the origin re-publishes
//! the stream from its own peer, later consumers attach to the closest
//! copy, and the consuming peers carry the fan-out hops the origin would
//! otherwise send — with byte-identical sink output, replica-on vs
//! replica-off.  Teardown retracts declarations, keeps a forwarder that
//! leaves first deployed until its replica's other subscribers have gone,
//! and provider selection skips downed replica peers.

use std::collections::{BTreeMap, BTreeSet};

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_streams::ChannelId;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm};

/// A channel as its `(peer, stream)` names, the form
/// `Monitor::subscribed_providers` lists providers in.
trait Named {
    fn named(&self) -> (String, String);
}

impl Named for ChannelId {
    fn named(&self) -> (String, String) {
        (self.peer.to_string(), self.stream.to_string())
    }
}

const ORIGIN: &str = "hub.net";

/// A monitor over the clustered storm's latency topology.
fn clustered_monitor(storm: &OverlappingStorm, enable_replicas: bool) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_replicas,
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    monitor
}

/// Deploys `n_subs` clustered subscriptions and drives `n_calls` of traffic.
fn run_clustered(
    storm: &OverlappingStorm,
    enable_replicas: bool,
    n_subs: usize,
    n_calls: usize,
) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = clustered_monitor(storm, enable_replicas);
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(n_subs)
        .iter()
        .enumerate()
        .map(|(i, text)| {
            monitor
                .submit(storm.manager_of(i), text)
                .expect("clustered storm deploys")
        })
        .collect();
    let mut traffic = storm.clone();
    for call in traffic.calls(n_calls) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    (monitor, handles)
}

/// Messages the origin hub sent (the load replicas are meant to move off
/// of it).
fn origin_messages_out(monitor: &Monitor) -> u64 {
    monitor
        .network_stats()
        .per_peer()
        .get(&ORIGIN.into())
        .map(|t| t.messages_out)
        .unwrap_or(0)
}

/// The acceptance criterion: over clustered consumers, replica-on delivers
/// byte-identical sink output to replica-off while the origin peer sends
/// measurably fewer messages — consumer peers forward the difference.
#[test]
fn clustered_storm_replicas_offload_the_origin_with_identical_sinks() {
    const SHAPES: usize = 8;
    const SUBS: usize = 64;
    const CALLS: usize = 60;
    let storm = OverlappingStorm::clustered(1, SHAPES, 2, 4);
    let (on, on_handles) = run_clustered(&storm, true, SUBS, CALLS);
    let (off, off_handles) = run_clustered(&storm, false, SUBS, CALLS);

    let mut delivered = 0;
    for (a, b) in on_handles.iter().zip(&off_handles) {
        let results = on.results(a);
        assert_eq!(results, off.results(b), "sink divergence");
        delivered += results.len();
    }
    assert!(delivered > 0, "the storm must deliver incidents");

    let stats = on.replica_stats();
    assert!(stats.replicas_created > 0, "consumers must re-publish");
    assert!(
        stats.consumers_via_replica > 0,
        "later consumers must attach to replicas: {stats:?}"
    );
    assert!(
        stats.replica_share() >= 0.5,
        "most remote consumers ride a replica: {stats:?}"
    );
    assert!(
        stats.origin_messages_saved > 0,
        "replica peers must forward on the origin's behalf"
    );
    // The replica counters also flow through the E7 aggregate.
    assert_eq!(on.reuse_stats().replicas, stats);
    assert_eq!(off.replica_stats().replicas_created, 0);

    let on_origin = origin_messages_out(&on);
    let off_origin = origin_messages_out(&off);
    assert!(
        on_origin < off_origin,
        "the origin must send fewer messages with replicas ({on_origin} vs {off_origin})"
    );
    assert!(
        on.network_stats().total_messages <= off.network_stats().total_messages,
        "forwarded hops must not add net traffic ({} vs {})",
        on.network_stats().total_messages,
        off.network_stats().total_messages
    );
}

/// Teardown: the last subscriber of a replicated stream retracts its peer's
/// declaration, and a fresh consumer then falls back to the origin.
#[test]
fn last_subscriber_retracts_the_replica_and_selection_falls_back_to_origin() {
    let storm = OverlappingStorm::clustered(3, 1, 1, 3);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let dup1 = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("first duplicate deploys");
    let origin = monitor
        .report(&dup1)
        .expect("report")
        .reuse
        .reused_defs
        .first()
        .map(Named::named)
        .expect("the duplicate reuses the producer's stream");
    assert_eq!(origin.0, ORIGIN, "the pipeline root runs at the hub");
    // A second duplicate on another peer attaches to the replica (close)
    // rather than the origin (far), and re-publishes from its own peer too.
    let dup2 = monitor
        .submit("c0-peer2.org", &storm.subscription(2))
        .expect("second duplicate deploys");
    let provider = monitor
        .report(&dup2)
        .expect("report")
        .reuse
        .subscribed_channels[0]
        .named();
    assert_eq!(
        provider.0, "c0-peer1.org",
        "the close replica beats the far origin"
    );
    assert_eq!(
        monitor
            .stream_db_mut()
            .replicas_of(ChannelId::new(&origin.0, &origin.1))
            .len(),
        2,
        "both consuming peers re-publish"
    );

    assert!(monitor.unsubscribe(&dup2));
    assert!(monitor.unsubscribe(&dup1));
    assert!(
        monitor
            .stream_db_mut()
            .replicas_of(ChannelId::new(&origin.0, &origin.1))
            .is_empty(),
        "replica declarations retract with their last subscriber"
    );
    let stats = monitor.replica_stats();
    assert_eq!(stats.replicas_created, 2);
    assert_eq!(stats.replicas_retracted, 2);

    // With every replica gone, a fresh consumer is served by the origin.
    let late = monitor
        .submit("c0-peer1.org", &storm.subscription(3))
        .expect("late duplicate deploys");
    let provider = monitor
        .report(&late)
        .expect("report")
        .reuse
        .subscribed_channels[0]
        .named();
    assert_eq!(provider, origin, "selection falls back to the origin");
    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        !monitor.results(&late).is_empty(),
        "the origin serves the late consumer"
    );
    assert_eq!(monitor.results(&late), monitor.results(&producer));
}

/// A replica's subscribers are not stranded when the replica goes away:
/// retracting the declaration re-attaches them to the origin.
#[test]
fn orphaned_replica_subscribers_fall_back_to_the_origin() {
    let storm = OverlappingStorm::clustered(5, 1, 1, 3);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let replica_sub = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("replica subscriber deploys");
    // This consumer rides c0-peer1's replica.
    let orphan = monitor
        .submit("c0-peer2.org", &storm.subscription(2))
        .expect("orphan-to-be deploys");
    assert_eq!(
        monitor
            .report(&orphan)
            .expect("report")
            .reuse
            .subscribed_channels[0]
            .named()
            .0,
        "c0-peer1.org"
    );

    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let before = monitor.results(&orphan).len();
    assert!(before > 0, "the forwarded stream reaches the orphan");

    // The replica's only local subscriber leaves: the declaration retracts
    // and the orphan is re-attached to the origin.
    assert!(monitor.unsubscribe(&replica_sub));
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        monitor.results(&orphan).len() > before,
        "the orphan keeps receiving, now from the origin"
    );
    assert_eq!(monitor.results(&orphan), monitor.results(&producer));
}

/// The declarations of `origin`'s replica on `peer`.
fn declarations_on(
    monitor: &mut Monitor,
    origin: &(String, String),
    peer: &str,
) -> Vec<(String, String)> {
    monitor
        .stream_db_mut()
        .replicas_of(ChannelId::new(&origin.0, &origin.1))
        .iter()
        .filter(|r| r.peer == peer)
        .map(Named::named)
        .collect()
}

/// A removed *forwarder* with surviving same-peer subscribers stays deployed
/// until they leave: the declaration, every consumer's provider and the
/// forwarded stream are untouched, and the last survivor's departure
/// retracts the replica and re-attaches its remote consumers.
#[test]
fn a_departing_forwarder_keeps_forwarding_until_its_replica_drains() {
    let storm = OverlappingStorm::clustered(7, 1, 1, 3);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let forwarder = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("forwarder deploys");
    // Same peer: shares c0-peer1's replica declaration (no duplicate entry).
    let survivor = monitor
        .submit("c0-peer1.org", &storm.subscription(2))
        .expect("survivor deploys");
    // Another peer, attached to c0-peer1's replica.
    let downstream = monitor
        .submit("c0-peer2.org", &storm.subscription(3))
        .expect("downstream deploys");
    let origin = monitor
        .report(&forwarder)
        .expect("report")
        .reuse
        .reused_defs[0]
        .named();
    let declared = declarations_on(&mut monitor, &origin, "c0-peer1.org");
    assert_eq!(
        declared.len(),
        1,
        "same-peer subscribers share one declaration"
    );
    assert_eq!(
        monitor.subscribed_providers(&downstream)[0].0,
        "c0-peer1.org"
    );

    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let fed = monitor.results(&downstream).len();
    assert!(fed > 0);

    // The forwarder leaves first: only its forwarding task stays, and
    // nothing the replica's consumers see moves.
    let providers =
        |monitor: &Monitor| [&survivor, &downstream].map(|h| monitor.subscribed_providers(h));
    let before = providers(&monitor);
    let operators = monitor.operator_count();
    let forwarder_tasks = monitor.report(&forwarder).expect("report").tasks;
    assert!(monitor.unsubscribe(&forwarder));
    assert_eq!(
        declarations_on(&mut monitor, &origin, "c0-peer1.org"),
        declared,
        "the declaration keeps its replica stream"
    );
    assert_eq!(providers(&monitor), before, "no consumer is re-pointed");
    assert_eq!(
        monitor.operator_count(),
        operators - (forwarder_tasks - 1),
        "the forwarding task stays deployed"
    );

    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        monitor.results(&survivor).len() > fed,
        "the replica's local subscriber keeps receiving"
    );
    assert!(
        monitor.results(&downstream).len() > fed,
        "downstream replica subscribers keep receiving through the pinned forwarder"
    );
    assert_eq!(monitor.results(&downstream), monitor.results(&producer));

    // The last other subscriber leaves: the forwarder drains with it, the
    // declaration retracts and the remote consumer is re-attached.
    assert!(monitor.unsubscribe(&survivor));
    assert!(declarations_on(&mut monitor, &origin, "c0-peer1.org").is_empty());
    assert_ne!(
        monitor.subscribed_providers(&downstream)[0].0,
        "c0-peer1.org"
    );
    let fed = monitor.results(&downstream).len();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(monitor.results(&downstream).len() > fed);
    assert_eq!(monitor.results(&downstream), monitor.results(&producer));

    // Full teardown still balances: nothing is left behind.
    for handle in [downstream, producer] {
        assert!(monitor.unsubscribe(&handle));
    }
    assert!(monitor.stream_db_mut().is_empty());
    assert_eq!(monitor.operator_count(), 0);
    let stats = monitor.replica_stats();
    assert_eq!(stats.replicas_created, stats.replicas_retracted);
}

/// Failure injection: provider selection never routes a new consumer
/// through a downed replica peer.
#[test]
fn downed_replica_peer_is_skipped_by_provider_selection() {
    let storm = OverlappingStorm::clustered(9, 1, 1, 3);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let replica_sub = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("replica subscriber deploys");
    let origin = monitor
        .report(&replica_sub)
        .expect("report")
        .reuse
        .reused_defs[0]
        .named();

    monitor.fail_peer("c0-peer1.org");
    // The replica at c0-peer1 would be closest, but its peer is down.
    let late = monitor
        .submit("c0-peer2.org", &storm.subscription(2))
        .expect("late consumer deploys");
    assert_eq!(
        monitor
            .report(&late)
            .expect("report")
            .reuse
            .subscribed_channels[0]
            .named(),
        origin,
        "a downed replica peer is never selected as provider"
    );
    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        !monitor.results(&late).is_empty(),
        "the origin serves the consumer around the downed replica"
    );
    assert_eq!(monitor.results(&late), monitor.results(&producer));
}

/// Regression: removing a subscriber that never took a replica reference
/// (it attached before the stream was published, so nothing could be
/// re-published on its behalf) must not retract a replica that a *later*
/// subscriber on the same peer legitimately backs.
#[test]
fn never_noted_subscriber_removal_does_not_retract_a_live_replica() {
    // Reuse off keeps both joiners' alerter sources as real Source tasks, so
    // the join — and with it the co-placed channel subscription — lands
    // deterministically on hub2.net for both of them (with reuse on, the
    // second joiner's alerter would be covered and the join could anchor
    // elsewhere).  Replica creation only needs `enable_replicas`.
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    // A join over the published channel and a local alerter: the channel
    // subscription is co-placed with the join at hub2.net — remote from the
    // channel's origin.
    let joiner = r##"for $x in channel("#shared@mgr.org"),
            $c in outCOM(<p>hub2.net</p>)
        where $x.method = $c.callMethod
        return <pair m="{$c.callMethod}"/>
        by email "pair@example.org";"##;
    // Deployed BEFORE the producer: no definition exists yet, so this
    // subscriber is re-pointed later but never takes a replica reference.
    let early = monitor.submit("mgr.org", joiner).expect("early deploys");
    let producer = monitor
        .submit(
            "mgr.org",
            r#"for $c in outCOM(<p>hub.net</p>)
               where $c.callee = "http://backend.net"
               return <hit method="{$c.callMethod}"/>
               by publish as channel "shared";"#,
        )
        .expect("producer deploys");
    // Deployed AFTER the producer: this one re-publishes (hub.net, shared)
    // from hub2.net.
    let noted = monitor.submit("mgr.org", joiner).expect("noted deploys");
    assert_eq!(
        monitor
            .stream_db_mut()
            .replicas_of(ChannelId::new(ORIGIN, "shared"))
            .iter()
            .filter(|r| r.peer == "hub2.net")
            .count(),
        1,
        "the post-producer subscriber re-publishes the channel"
    );

    let inject = |monitor: &mut Monitor, base: u64| {
        for i in 0..6u64 {
            // Channel items out of hub.net, join partners out of hub2.net.
            monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
                base + 2 * i,
                "http://hub.net",
                "http://backend.net",
                "Ping",
                1_000 + i,
                1_004 + i,
            ));
            monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
                base + 2 * i + 1,
                "http://hub2.net",
                "http://backend.net",
                "Ping",
                1_000 + i,
                1_004 + i,
            ));
        }
        monitor.run_until_idle();
    };
    inject(&mut monitor, 0);
    let fed = monitor.results(&noted).len();
    assert!(
        fed > 0,
        "the join over the replicated channel produces pairs"
    );

    // The early (never-noted) subscriber leaves: the replica it never backed
    // must survive.
    assert!(monitor.unsubscribe(&early));
    assert_eq!(
        monitor
            .stream_db_mut()
            .replicas_of(ChannelId::new(ORIGIN, "shared"))
            .iter()
            .filter(|r| r.peer == "hub2.net")
            .count(),
        1,
        "removing a never-noted subscriber must not retract the live replica"
    );
    assert_eq!(monitor.replica_stats().replicas_retracted, 0);
    inject(&mut monitor, 100);
    assert!(
        monitor.results(&noted).len() > fed,
        "the noted subscriber keeps receiving"
    );

    // The real backer leaves: now the declaration goes.
    assert!(monitor.unsubscribe(&noted));
    assert!(monitor
        .stream_db_mut()
        .replicas_of(ChannelId::new(ORIGIN, "shared"))
        .is_empty());
    assert_eq!(monitor.replica_stats().replicas_retracted, 1);
    let _ = producer;
}

/// Regression for the ROADMAP-noted orphan gap: when a replica is
/// retracted and another *surviving* replica of the same origin is closer
/// than the origin, orphaned subscribers re-attach to that copy instead of
/// all falling back to the far origin.  Re-attachment is cycle-free: the
/// first orphan (in deterministic order) re-anchors to the origin — its
/// own declaration cannot feed itself — and later orphans chain behind the
/// re-anchored one.
#[test]
fn orphans_reattach_to_the_closest_surviving_replica_not_the_origin() {
    let storm = OverlappingStorm::clustered(11, 1, 1, 4);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    // First remote consumer: pulls from the origin, re-publishes at peer1.
    let x1 = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("x1 deploys");
    // Both later consumers ride peer1's replica (5ms beats the 100ms hub)
    // and re-publish from their own peers.
    let x2 = monitor
        .submit("c0-peer2.org", &storm.subscription(2))
        .expect("x2 deploys");
    let x3 = monitor
        .submit("c0-peer3.org", &storm.subscription(3))
        .expect("x3 deploys");
    let origin = monitor
        .report(&x1)
        .expect("report")
        .reuse
        .reused_defs
        .first()
        .map(Named::named)
        .expect("x1 reuses the producer's stream");
    assert_eq!(origin.0, ORIGIN);
    for handle in [&x2, &x3] {
        assert_eq!(
            monitor.subscribed_providers(handle)[0].0,
            "c0-peer1.org",
            "later consumers attach to the first replica"
        );
    }

    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let before = monitor.results(&x3).len();
    assert!(before > 0, "the replica chain feeds the last consumer");

    // peer1's only subscriber leaves: its declaration retracts and both
    // orphans must be re-homed.
    assert!(monitor.unsubscribe(&x1));
    let survivors: Vec<String> = monitor
        .stream_db_mut()
        .replicas_of(ChannelId::new(&origin.0, &origin.1))
        .iter()
        .map(|r| r.peer.to_string())
        .collect();
    assert!(
        survivors.contains(&"c0-peer2.org".to_string())
            && !survivors.contains(&"c0-peer1.org".to_string()),
        "peer1 retracted, peer2/peer3 survive: {survivors:?}"
    );
    // x2 re-anchors to the origin (every other replica is an orphan of the
    // same sweep at that point); x3 then rides x2's surviving replica — the
    // 5ms intra-cluster copy — NOT the 100ms origin.
    assert_eq!(monitor.subscribed_providers(&x2)[0], origin);
    let x3_provider = monitor.subscribed_providers(&x3)[0].clone();
    assert_eq!(
        x3_provider.0, "c0-peer2.org",
        "the orphan must re-attach to the closest surviving replica"
    );
    assert!(
        survivors.contains(&x3_provider.0),
        "the re-attachment target is a live declaration"
    );

    // The re-homed chain keeps delivering, byte-identically to the
    // producer's sink, and the forwarded hop rides the surviving replica.
    let forwarded_before = monitor
        .network_stats()
        .link("c0-peer2.org", "c0-peer3.org")
        .messages;
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        monitor.results(&x3).len() > before,
        "the orphan keeps receiving through the surviving replica"
    );
    assert_eq!(monitor.results(&x3), monitor.results(&producer));
    assert!(
        monitor
            .network_stats()
            .link("c0-peer2.org", "c0-peer3.org")
            .messages
            > forwarded_before,
        "items reach the orphan via the surviving replica's forwarder"
    );
}

/// Orphan re-attachment skips surviving replicas whose peers are *down*:
/// with the nearest copy failed, the orphan goes to the origin even though
/// a declaration for the closer peer would still win on proximity alone.
#[test]
fn orphan_reattachment_skips_downed_replica_peers() {
    let storm = OverlappingStorm::clustered(13, 1, 1, 4);
    let mut monitor = clustered_monitor(&storm, true);
    let producer = monitor
        .submit("c0-peer0.org", &storm.subscription(0))
        .expect("producer deploys");
    let x1 = monitor
        .submit("c0-peer1.org", &storm.subscription(1))
        .expect("x1 deploys");
    let x2 = monitor
        .submit("c0-peer2.org", &storm.subscription(2))
        .expect("x2 deploys");
    let x3 = monitor
        .submit("c0-peer3.org", &storm.subscription(3))
        .expect("x3 deploys");
    let origin = monitor
        .report(&x1)
        .expect("report")
        .reuse
        .reused_defs
        .first()
        .map(Named::named)
        .expect("x1 reuses the producer's stream");

    // The peer that would become the surviving intra-cluster provider is
    // down when the retraction happens.
    monitor.fail_peer("c0-peer2.org");
    assert!(monitor.unsubscribe(&x1));
    assert_eq!(
        monitor.subscribed_providers(&x3)[0],
        origin,
        "a downed surviving replica is never selected for re-attachment"
    );
    monitor.recover_peer("c0-peer2.org");
    let mut traffic = storm.clone();
    for call in traffic.calls(40) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert_eq!(monitor.results(&x3), monitor.results(&producer));
    let _ = x2;
}

/// A self-join: one subscription whose two channel subscriptions of the same
/// remote stream share one peer, beside a second subscriber there.  The
/// first of the pair forwards the replica; its own sibling never keeps it,
/// whichever subscription leaves first, so no teardown leaves a pin behind.
#[test]
fn a_self_joins_own_subscribers_never_pin_its_forwarder() {
    // Reuse off keeps the join's alerter source a real Source task, so the
    // join and both its channel subscriptions land on hub2.net — away from
    // the channel's origin.
    let self_join = r##"for $c in outCOM(<p>hub2.net</p>),
            $x in channel("#shared@mgr.org"),
            $y in channel("#shared@mgr.org")
        where $c.callMethod = $x.method and $x.method = $y.method
        return <twice m="{$c.callMethod}"/>
        by email "twice@example.org";"##;
    let joiner = r##"for $x in channel("#shared@mgr.org"),
            $c in outCOM(<p>hub2.net</p>)
        where $x.method = $c.callMethod
        return <pair m="{$c.callMethod}"/>
        by email "pair@example.org";"##;
    for self_join_leaves_first in [true, false] {
        let mut monitor = Monitor::new(MonitorConfig {
            enable_reuse: false,
            ..MonitorConfig::default()
        });
        monitor.add_peer("backend.net");
        let producer = monitor
            .submit(
                "mgr.org",
                r#"for $c in outCOM(<p>hub.net</p>)
                   where $c.callee = "http://backend.net"
                   return <hit method="{$c.callMethod}"/>
                   by publish as channel "shared";"#,
            )
            .expect("producer deploys");
        let twice = monitor
            .submit("mgr.org", self_join)
            .expect("self-join deploys");
        let other = monitor.submit("mgr.org", joiner).expect("joiner deploys");
        assert_eq!(monitor.subscribed_providers(&twice).len(), 2);
        let origin = (ORIGIN.to_string(), "shared".to_string());
        let declared = declarations_on(&mut monitor, &origin, "hub2.net");
        assert_eq!(
            declared.len(),
            1,
            "one declaration for all three subscribers"
        );
        assert!(
            declared[0].1.starts_with(&format!("s{}-", twice.0)),
            "the self-join forwards it"
        );
        let producer_tasks = monitor.report(&producer).expect("report").tasks;

        let (first, second) = if self_join_leaves_first {
            (twice, other)
        } else {
            (other, twice)
        };
        assert!(monitor.unsubscribe(&first));
        assert_eq!(
            declarations_on(&mut monitor, &origin, "hub2.net"),
            declared,
            "a subscriber is left, so the replica stays"
        );
        assert!(monitor.unsubscribe(&second));
        assert!(
            declarations_on(&mut monitor, &origin, "hub2.net").is_empty(),
            "the last subscriber retracts the replica"
        );
        assert_eq!(
            monitor.operator_count(),
            producer_tasks,
            "no forwarder is left pinned"
        );
        let stats = monitor.replica_stats();
        assert_eq!((stats.replicas_created, stats.replicas_retracted), (1, 1));
        assert!(monitor.unsubscribe(&producer));
        assert_eq!(monitor.operator_count(), 0);
    }
}

/// An oldest-first teardown of the 1k-tier storm — the order in which every
/// forwarder leaves before the subscribers riding its replica.  A
/// subscription's provider only changes once the replica it rode has been
/// retracted, and the teardown leaves no operator and no declaration.
#[test]
fn an_oldest_first_storm_teardown_never_moves_a_live_replicas_consumers() {
    let storm = MassiveStorm::sized(1, 1024);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    for peer in storm.monitored_peers.iter().chain(&storm.manager_peers()) {
        monitor.add_peer(peer.as_str());
    }
    let mut handles = Vec::new();
    let mut origins: Vec<(String, String)> = Vec::new();
    for i in 0..1024 {
        let handle = monitor
            .submit(&storm.manager_of(i), &storm.subscription(i))
            .expect("storm subscription deploys");
        for origin in monitor.report(&handle).expect("report").reuse.reused_defs {
            let origin = origin.named();
            if !origins.contains(&origin) {
                origins.push(origin);
            }
        }
        handles.push(handle);
    }
    // Every live replica channel, with the origin it copies.
    let live_replicas = |monitor: &mut Monitor| -> BTreeMap<(String, String), (String, String)> {
        let db = &*monitor.stream_db_mut();
        origins
            .iter()
            .flat_map(|o| {
                db.replicas_of(ChannelId::new(&o.0, &o.1))
                    .iter()
                    .map(move |r| (r.named(), o.clone()))
            })
            .collect()
    };
    let mut live = live_replicas(&mut monitor);
    assert!(!live.is_empty(), "the storm re-publishes");
    let mut providers: Vec<_> = handles
        .iter()
        .map(|h| monitor.subscribed_providers(h))
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        assert!(monitor.unsubscribe(handle));
        let now_live = live_replicas(&mut monitor);
        // A replica is its origin copied on one peer, whatever it is named.
        let declared: BTreeSet<_> = now_live
            .iter()
            .map(|((peer, _), origin)| (origin, peer))
            .collect();
        for (handle, recorded) in handles.iter().zip(&mut providers).skip(i + 1) {
            let current = monitor.subscribed_providers(handle);
            for (was, is) in recorded.iter().zip(&current) {
                let retracted = live
                    .get(was)
                    .is_some_and(|origin| !declared.contains(&(origin, &was.0)));
                assert!(
                    was == is || retracted,
                    "subscription {} moved from {was:?} to {is:?} while its provider lived",
                    handle.0
                );
            }
            *recorded = current;
        }
        live = now_live;
    }
    assert_eq!(monitor.operator_count(), 0);
    assert!(live.is_empty(), "every declaration is retracted");
    let stats = monitor.replica_stats();
    assert_eq!(stats.replicas_created, stats.replicas_retracted);
    assert!(monitor.stream_db_mut().is_empty());
}
