//! Live stream reuse (E7): covered subscriptions attach to the producing
//! operator's *running* output channel — same sink bytes as a full
//! redeployment, measurably less network traffic and operator work — and
//! shared subtrees are refcounted, so teardown removes only unshared work
//! until the last subscriber lets go.

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_workloads::OverlappingStorm;

const SHAPES: usize = 8;

fn run_storm(
    enable_reuse: bool,
    n_subs: usize,
    n_calls: usize,
) -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "backend.net"] {
        monitor.add_peer(peer);
    }
    let storm = OverlappingStorm::new(1, SHAPES);
    let handles: Vec<SubscriptionHandle> = storm
        .subscriptions(n_subs)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    let mut traffic = OverlappingStorm::new(9, SHAPES);
    for call in traffic.calls(n_calls) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    (monitor, handles)
}

/// The acceptance criterion: reuse-on delivers byte-identical sink output to
/// reuse-off while sending measurably fewer network messages and running
/// fewer operators.
#[test]
fn overlapping_storm_reuse_is_byte_identical_and_cheaper() {
    const SUBS: usize = 64;
    const CALLS: usize = 60;
    let (on, on_handles) = run_storm(true, SUBS, CALLS);
    let (off, off_handles) = run_storm(false, SUBS, CALLS);

    let mut delivered = 0;
    for (a, b) in on_handles.iter().zip(&off_handles) {
        let on_results = on.results(a);
        assert_eq!(on_results, off.results(b), "sink divergence");
        delivered += on_results.len();
    }
    assert!(delivered > 0, "the storm must deliver incidents");

    let stats = on.reuse_stats();
    assert!(
        stats.hit_rate() >= 0.5,
        "at {SUBS} subs over {SHAPES} shapes most deployments reuse: {stats:?}"
    );
    assert!(stats.operators_saved > 0);
    assert!(stats.messages_saved > 0, "multicast must share messages");

    let on_messages = on.network_stats().total_messages;
    let off_messages = off.network_stats().total_messages;
    assert!(
        on_messages < off_messages,
        "reuse-on must send fewer messages ({on_messages} vs {off_messages})"
    );
    assert!(
        on.operator_invocations < off.operator_invocations,
        "covered subtrees must not re-run operators ({} vs {})",
        on.operator_invocations,
        off.operator_invocations
    );
    // Reuse-off searched nothing, so its aggregate reports no subscriptions.
    assert_eq!(off.reuse_stats().subscriptions, 0);
}

/// Reuse stays byte-identical to reuse-off over a storm spread across four
/// monitored peers, across successive bursts into the same live deployment.
#[test]
fn multi_peer_reuse_matches_reuse_off_across_bursts() {
    const SUBS: usize = 24;
    const CALLS: usize = 40;
    let storm = OverlappingStorm::with_peers(1, SHAPES, 4);
    let deploy = |enable_reuse: bool| {
        let mut monitor = Monitor::new(MonitorConfig {
            enable_reuse,
            ..MonitorConfig::default()
        });
        for peer in ["manager.org", "backend.net"] {
            monitor.add_peer(peer);
        }
        let handles: Vec<SubscriptionHandle> = storm
            .subscriptions(SUBS)
            .iter()
            .map(|text| monitor.submit("manager.org", text).expect("deploys"))
            .collect();
        (monitor, handles)
    };
    let (mut reusing, handles) = deploy(true);
    let (mut reference, ref_handles) = deploy(false);

    for traffic_seed in [9, 11] {
        for call in &OverlappingStorm::with_peers(traffic_seed, SHAPES, 4).calls(CALLS) {
            reusing.inject_soap_call(call);
            reference.inject_soap_call(call);
        }
        reusing.run_until_idle();
        reference.run_until_idle();
    }

    for (p, r) in handles.iter().zip(&ref_handles) {
        assert_eq!(
            reusing.results(p),
            reference.results(r),
            "reuse must match the reuse-off oracle"
        );
    }
}

/// Shared-subtree teardown: with two overlapping subscriptions, tearing the
/// *producer* down keeps the shared stream serving the survivor; tearing the
/// survivor down afterwards retracts everything — definitions, tasks,
/// routes, queued work.
#[test]
fn shared_stream_survives_producer_unsubscribe_then_fully_retracts() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: true,
        ..MonitorConfig::default()
    });
    monitor.add_peer("manager.org");
    let storm = OverlappingStorm::new(3, 1);
    // Two byte-identical subscriptions (shape 0), different sinks: the first
    // deploys the pipeline, the second attaches to its live root stream.
    let producer = monitor
        .submit("manager.org", &storm.subscription(0))
        .expect("producer deploys");
    let survivor = monitor
        .submit("manager.org", &storm.subscription(1))
        .expect("survivor deploys");
    let report = monitor.report(&survivor).expect("report");
    assert!(report.reuse.reused_nodes > 0, "the duplicate must reuse");
    assert_eq!(
        report.tasks, 1,
        "a covered plan is one channel subscription"
    );

    let mut traffic = OverlappingStorm::new(5, 1);
    for call in traffic.calls(60) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let before = monitor.results(&survivor);
    assert!(!before.is_empty(), "the survivor sees incidents");
    assert_eq!(
        monitor.results(&producer),
        before,
        "identical subscriptions"
    );

    // Tear the producer down: its sink freezes, but the shared subtree keeps
    // producing for the survivor.
    assert!(monitor.unsubscribe(&producer));
    let producer_frozen = monitor.results(&producer).len();
    let hub = monitor.peer_host("hub.net").expect("hub is registered");
    assert!(
        monitor.hosted_tasks("hub.net") > 0,
        "the shared producing subtree must survive the producer's unsubscribe"
    );
    assert_eq!(
        hub.registered_selects(),
        1,
        "the shared Select keeps its engine registration"
    );
    assert!(
        !monitor.stream_db_mut().is_empty(),
        "referenced stream definitions stay published"
    );

    for call in traffic.calls(60) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        monitor.results(&survivor).len() > before.len(),
        "the shared stream keeps serving the survivor"
    );
    assert_eq!(
        monitor.results(&producer).len(),
        producer_frozen,
        "the producer's sink stays frozen"
    );

    // Tear the survivor down: the last reference goes, and the teardown
    // cascades through the shared subtree.
    assert!(monitor.unsubscribe(&survivor));
    assert!(
        monitor.stream_db_mut().is_empty(),
        "all definitions retract with the last subscriber"
    );
    for peer in ["hub.net", "manager.org"] {
        let host = monitor.peer_host(peer).expect("registered");
        assert_eq!(monitor.hosted_tasks(peer), 0, "{peer} must host no tasks");
        assert_eq!(host.registered_selects(), 0);
        assert_eq!(host.queued_work(), 0);
        assert_eq!(host.pending_alert_count(), 0);
    }
    // Fresh traffic is simply unobserved; nothing panics, nothing delivers.
    let survivor_frozen = monitor.results(&survivor).len();
    for call in traffic.calls(20) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert_eq!(monitor.results(&survivor).len(), survivor_frozen);
}

/// A chain of retired producers tears down back to front: A produces, B
/// reuses A, C reuses B's subscription point.  Retiring A and B keeps the
/// whole chain alive for C; retiring C cascades the teardown through both.
#[test]
fn retired_producer_chain_cascades_on_last_release() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: true,
        ..MonitorConfig::default()
    });
    monitor.add_peer("manager.org");
    let storm = OverlappingStorm::new(3, 1);
    let a = monitor
        .submit("manager.org", &storm.subscription(0))
        .unwrap();
    let b = monitor
        .submit("manager.org", &storm.subscription(1))
        .unwrap();
    let c = monitor
        .submit("manager.org", &storm.subscription(2))
        .unwrap();

    assert!(monitor.unsubscribe(&a));
    assert!(monitor.unsubscribe(&b));
    let mut traffic = OverlappingStorm::new(5, 1);
    for call in traffic.calls(60) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    assert!(
        !monitor.results(&c).is_empty(),
        "the survivor keeps receiving through the retired chain"
    );
    assert!(!monitor.stream_db_mut().is_empty());

    assert!(monitor.unsubscribe(&c));
    assert!(
        monitor.stream_db_mut().is_empty(),
        "the last subscriber's release cascades through every retired owner"
    );
    for peer in ["hub.net", "manager.org"] {
        assert_eq!(monitor.hosted_tasks(peer), 0, "{peer} must host no tasks");
    }
}

/// An explicit `channel("#name@manager")` subscription resolves to the
/// canonical identity — the peer placement chose to *emit* the stream — and
/// receives the live multicast, even though the user addressed the channel
/// by the manager that declared it.
#[test]
fn explicit_channel_reference_resolves_to_the_emitting_peer() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["p", "watcher.org", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    let producer = monitor
        .submit("p", p2pmon_p2pml::METEO_SUBSCRIPTION)
        .expect("producer deploys");
    // METEO publishes `by channel "alertQoS"` managed at "p", but placement
    // emits the root from one of the monitored peers.
    let consumer = monitor
        .submit(
            "watcher.org",
            r##"for $x in channel("#alertQoS@p")
                return <seen kind="{$x.type}"/>
                by email "ops@example.org";"##,
        )
        .expect("consumer deploys");

    monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
        1,
        "http://a.com",
        "http://meteo.com",
        "GetTemperature",
        1_000,
        1_020,
    ));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&producer).len(), 1);
    let seen = monitor.results(&consumer);
    assert_eq!(
        seen.len(),
        1,
        "the channel consumer must receive the published stream live"
    );
    assert_eq!(seen[0].attr("kind"), Some("slowAnswer"));
}

/// Two live subscriptions publishing the same BY-channel name from the same
/// peer: the second must not take an owner reference on the first's
/// definition — its pipeline tears down normally on unsubscribe instead of
/// being pinned forever.  The channel they share, and its history, lasts
/// until the last of them is gone.
#[test]
fn colliding_published_channels_do_not_pin_the_second_publisher() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false, // force both to deploy their own pipeline
        ..MonitorConfig::default()
    });
    monitor.add_peer("manager.org");
    let text = |i: usize| {
        format!(
            "for $c in outCOM(<p>hub.net</p>)\n\
             where $c.callMethod = \"Method{i}\"\n\
             return <hit method=\"{{$c.callMethod}}\"/>\n\
             by publish as channel \"shared\";"
        )
    };
    // Both roots restructure on hub.net and publish channel "shared": the
    // definition key collides.
    let first = monitor.submit("manager.org", &text(0)).expect("deploys");
    let second = monitor.submit("manager.org", &text(1)).expect("deploys");
    for (id, method) in ["Method0", "Method1"].into_iter().enumerate() {
        monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
            id as u64,
            "http://hub.net",
            "http://backend.net",
            method,
            10,
            20,
        ));
    }
    monitor.run_until_idle();
    assert_eq!(monitor.published_channel("hub.net", "shared").len(), 2);

    let hosted_with_both = monitor.hosted_tasks("hub.net");
    assert!(monitor.unsubscribe(&second));
    assert!(
        monitor.hosted_tasks("hub.net") < hosted_with_both,
        "the second publisher's tasks must not be pinned by the first's definition"
    );
    assert_eq!(
        monitor.published_channel("hub.net", "shared").len(),
        2,
        "the first publisher keeps the shared channel and its history"
    );

    assert!(monitor.unsubscribe(&first));
    assert_eq!(monitor.hosted_tasks("hub.net"), 0);
    assert!(monitor.stream_db_mut().is_empty());
    assert!(
        monitor.published_channel("hub.net", "shared").is_empty(),
        "the channel goes with its last publisher"
    );
}

/// Submit order is not a contract: a subscriber that attaches to a
/// published channel *before* its producer exists is re-pointed to the
/// canonical identity when the producer deploys, and receives the stream.
#[test]
fn channel_subscriber_deployed_before_the_producer_still_receives() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["p", "watcher.org", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    // The consumer first: nothing is published yet, so the reference keeps
    // its declared (manager, name) identity for now.
    let consumer = monitor
        .submit(
            "watcher.org",
            r##"for $x in channel("#alertQoS@p")
                return <seen kind="{$x.type}"/>
                by email "ops@example.org";"##,
        )
        .expect("consumer deploys");
    let producer = monitor
        .submit("p", p2pmon_p2pml::METEO_SUBSCRIPTION)
        .expect("producer deploys");

    monitor.inject_soap_call(&p2pmon_alerters::SoapCall::new(
        1,
        "http://a.com",
        "http://meteo.com",
        "GetTemperature",
        1_000,
        1_020,
    ));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&producer).len(), 1);
    assert_eq!(
        monitor.results(&consumer).len(),
        1,
        "an early subscriber must be re-pointed to the canonical channel"
    );
    // Teardown still balances: the consumer's reference was moved to the
    // canonical key, so unsubscribing both retracts everything.
    assert!(monitor.unsubscribe(&consumer));
    assert!(monitor.unsubscribe(&producer));
    assert!(monitor.stream_db_mut().is_empty());
}

/// A channel subscription is never covered by an alerter's source stream.
/// The search once looked channel leaves up as the alerter
/// `__channel__<stream>` at the channel's peer, so an alerter of that very
/// name "covered" `channel("#feed@p.org")` with its `src-__channel__feed`
/// stream, and the subscriber attached to alerts instead of the channel.
#[test]
fn a_channel_subscription_is_not_covered_by_a_like_named_alerter() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in ["p.org", "watcher.org"] {
        monitor.add_peer(peer);
    }
    monitor
        .submit(
            "p.org",
            r#"for $x in __channel__feed(<p>p.org</p>)
               return <raw/>
               by email "raw@example.org";"#,
        )
        .expect("alerter subscription deploys");
    let queries = monitor.dht_stats().query_operations;
    let watcher = monitor
        .submit(
            "watcher.org",
            r##"for $x in channel("#feed@p.org")
                return <seen/>
                by email "ops@example.org";"##,
        )
        .expect("channel subscription deploys");
    let reuse = monitor.report(&watcher).expect("report").reuse;
    assert_eq!(reuse.reused_nodes, 0, "{reuse:?}");
    assert!(reuse.subscribed_channels.is_empty(), "{reuse:?}");
    assert_eq!(
        monitor.dht_stats().query_operations,
        queries,
        "a channel leaf, and the restructure blocked by it, are not looked up"
    );
}
