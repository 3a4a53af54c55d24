//! ChannelSource co-placement: a task subscribing to an existing stream is
//! movable, so it runs on its consumer's peer instead of being parked on the
//! manager — the reused stream travels producer→consumer directly, one
//! network hop fewer per alert (verified through `NetworkStats::per_peer`).

use p2pmon_alerters::SoapCall;
use p2pmon_core::{place, Monitor, MonitorConfig, PlacementStrategy, TaskKind};
use p2pmon_p2pml::plan::{LogicalNode, LogicalPlan};
use p2pmon_p2pml::ByClause;
use p2pmon_streams::{ChannelId, Template};

/// ∪(channel src-outCOM@hub.net, σ(inCOM@backend.net)) → Π, managed at
/// manager.org: the union is anchored at backend.net (the only non-movable
/// input), and the channel source must follow it there.
fn consumer_plan() -> LogicalPlan {
    LogicalPlan {
        root: LogicalNode::Restructure {
            input: Box::new(LogicalNode::Union {
                var: "u".into(),
                inputs: vec![
                    LogicalNode::ChannelIn {
                        channel: ChannelId::new("hub.net", "src-outCOM"),
                        var: "c".into(),
                    },
                    LogicalNode::Select {
                        var: "d".into(),
                        input: Box::new(LogicalNode::Alerter {
                            function: "inCOM".into(),
                            peer: "backend.net".into(),
                            var: "d".into(),
                        }),
                        simple: vec![],
                        patterns: vec![],
                        derived: vec![],
                        conditions: vec![],
                    },
                ],
            }),
            template: Template::parse("<seen/>").expect("template parses"),
            derived: vec![],
        },
        by: ByClause::Email("ops@example.org".into()),
        distinct: false,
    }
}

#[test]
fn channel_sources_are_placed_on_their_consumers_peer() {
    let placed = place(
        &consumer_plan(),
        "manager.org",
        PlacementStrategy::PushToSources,
    );
    let channel_source = placed
        .tasks
        .iter()
        .find(|t| matches!(t.kind, TaskKind::ChannelSource { .. }))
        .expect("channel source exists");
    let union = placed
        .tasks
        .iter()
        .find(|t| matches!(t.kind, TaskKind::Union))
        .expect("union exists");
    assert_eq!(
        union.peer, "backend.net",
        "the union anchors on its only non-movable input"
    );
    assert_eq!(
        channel_source.peer, union.peer,
        "the channel source is co-placed with its consumer"
    );
    assert_ne!(channel_source.peer, "manager.org");
}

#[test]
fn co_placement_cuts_the_manager_hop_per_alert() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "hub.net", "backend.net"] {
        monitor.add_peer(peer);
    }
    // A producer subscription installs the outCOM alerter at hub.net and
    // publishes the src-outCOM stream; its own filter never matches, so it
    // contributes no traffic of its own.
    let producer = monitor
        .submit(
            "manager.org",
            r#"for $c in outCOM(<p>hub.net</p>)
               where $c.callMethod = "NeverCalled"
               return <never/>
               by email "producer@example.org";"#,
        )
        .expect("producer deploys");
    let consumer = monitor.deploy_plan("manager.org", consumer_plan());

    const CALLS: usize = 10;
    for i in 0..CALLS as u64 {
        monitor.inject_soap_call(&SoapCall::new(
            i,
            "http://hub.net",
            "http://backend.net",
            "Work",
            1_000 + i,
            1_005 + i,
        ));
    }
    monitor.run_until_idle();

    assert!(monitor.results(&producer).is_empty());
    assert_eq!(
        monitor.results(&consumer).len(),
        2 * CALLS,
        "every call is seen once from each side of the union"
    );

    // The reused stream flows hub.net → backend.net directly; the manager
    // receives only the (restructured) results from backend.net.
    let stats = monitor.network_stats();
    assert_eq!(
        stats.link("hub.net", "manager.org").messages,
        0,
        "no alert transits the manager"
    );
    assert_eq!(stats.link("hub.net", "backend.net").messages, CALLS as u64);
    let per_peer = stats.per_peer();
    let manager = per_peer[&"manager.org".into()];
    let backend = per_peer[&"backend.net".into()];
    assert_eq!(
        manager.messages_in,
        2 * CALLS as u64,
        "the manager receives one result per delivered incident, nothing else"
    );
    assert_eq!(manager.messages_out, 0, "the manager forwards nothing");
    assert!(
        backend.messages_in >= CALLS as u64,
        "the consumer peer ingests the reused stream directly"
    );
}

/// A compiled plan with every alerter peer rewritten as a URL, as a
/// hand-built plan may name it.
fn with_url_peers(node: LogicalNode) -> LogicalNode {
    match node {
        LogicalNode::Alerter {
            function,
            peer,
            var,
        } => LogicalNode::Alerter {
            function,
            peer: format!("http://{peer}/"),
            var,
        },
        LogicalNode::Select {
            var,
            input,
            simple,
            patterns,
            derived,
            conditions,
        } => LogicalNode::Select {
            var,
            input: Box::new(with_url_peers(*input)),
            simple,
            patterns,
            derived,
            conditions,
        },
        LogicalNode::Restructure {
            input,
            template,
            derived,
        } => LogicalNode::Restructure {
            input: Box::new(with_url_peers(*input)),
            template,
            derived,
        },
        other => panic!("not part of the test plan: {other:?}"),
    }
}

#[test]
fn a_plan_naming_its_alerter_peer_by_url_delivers_like_its_compiled_twin() {
    const TEXT: &str = r#"for $c in outCOM(<p>a.com</p>)
        where $c.callMethod = "Get"
        return <got/>
        by email "ops@example.org";"#;
    let call = SoapCall::new(1, "http://a.com", "b.com", "Get", 10, 20);
    let deliver = |monitor: &mut Monitor| {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    };

    let mut compiled = Monitor::new(MonitorConfig::default());
    let twin = compiled.submit("manager.org", TEXT).expect("compiles");
    deliver(&mut compiled);
    assert_eq!(compiled.results(&twin).len(), 1);

    let plan = p2pmon_p2pml::compile_subscription(TEXT).expect("compiles");
    let raw = LogicalPlan {
        root: with_url_peers(plan.root),
        ..plan
    };
    let mut monitor = Monitor::new(MonitorConfig::default());
    let first = monitor.deploy_plan("manager.org", raw.clone());
    let second = monitor.deploy_plan("manager.org", raw);
    assert_eq!(
        monitor.report(&second).expect("report").reuse.new_nodes,
        0,
        "an identical plan is covered up to its root"
    );
    assert_eq!(
        monitor.peers(),
        compiled.peers(),
        "no peer is registered under its URL"
    );
    deliver(&mut monitor);
    assert_eq!(monitor.results(&first), compiled.results(&twin));
    assert_eq!(monitor.results(&second), compiled.results(&twin));
}
