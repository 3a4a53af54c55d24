//! End-to-end Monitor behaviour (formerly `monitor.rs` unit tests, kept as
//! integration tests of the façade's public API after the PeerHost
//! decomposition).

use std::sync::mpsc;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, PlacementStrategy};
use p2pmon_p2pml::METEO_SUBSCRIPTION;
use p2pmon_streams::ops::Window;
use p2pmon_xmlkit::{parse, Element};

fn meteo_monitor(placement: PlacementStrategy, enable_reuse: bool) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        placement,
        enable_reuse,
        ..MonitorConfig::default()
    });
    for peer in ["p", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    monitor
}

fn slow_call(id: u64, caller: &str) -> SoapCall {
    SoapCall::new(
        id,
        caller,
        "http://meteo.com",
        "GetTemperature",
        1_000,
        1_020,
    )
}

fn fast_call(id: u64, caller: &str) -> SoapCall {
    SoapCall::new(
        id,
        caller,
        "http://meteo.com",
        "GetTemperature",
        1_000,
        1_003,
    )
}

#[test]
fn meteo_subscription_detects_only_slow_answers() {
    let mut monitor = meteo_monitor(PlacementStrategy::PushToSources, true);
    let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    monitor.inject_soap_call(&slow_call(1, "http://a.com"));
    monitor.inject_soap_call(&fast_call(2, "http://a.com"));
    monitor.inject_soap_call(&slow_call(3, "http://b.com"));
    monitor.inject_soap_call(&slow_call(4, "http://other.com")); // unmonitored caller
    monitor.run_until_idle();
    let results = monitor.results(&handle);
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.attr("type") == Some("slowAnswer")));
    // The published channel carries the same items.
    assert_eq!(monitor.published_channel("p", "alertQoS").len(), 2);
}

/// Hosts are created on demand: a deploy may name a manager and monitored
/// peers nobody registered, and each becomes a full peer — listed, hosted
/// and known to the network, so nothing sent to it drops as unknown —
/// exactly once, however many of the deploy's tasks land on it.
#[test]
fn a_deploy_registers_the_peers_it_names() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    assert!(monitor.peers().is_empty());
    let handle = monitor.submit("http://p/", METEO_SUBSCRIPTION).unwrap();
    assert_eq!(monitor.peers(), vec!["a.com", "b.com", "meteo.com", "p"]);
    for peer in ["a.com", "b.com", "meteo.com", "p"] {
        let host = monitor.peer_host(peer).expect("named peers are hosted");
        assert_eq!(host.name(), peer);
    }
    assert!(monitor.hosted_tasks("a.com") > 1);
    assert!(monitor.peer_host("other.com").is_none());
    // A second deploy over the same peers registers nothing new and leaves
    // the hosts (and the tasks they already run) in place.
    let tasks_before = monitor.operator_count();
    monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    assert_eq!(monitor.peers().len(), 4);
    assert!(monitor.operator_count() >= tasks_before);
    monitor.inject_soap_call(&slow_call(1, "http://a.com"));
    monitor.inject_soap_call(&slow_call(2, "http://b.com"));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&handle).len(), 2);
    let stats = monitor.network_stats();
    assert!(stats.total_messages > 0, "results crossed to the manager");
    assert_eq!(stats.dropped_by_cause.unknown_peer, 0);
}

#[test]
fn centralized_and_pushdown_agree_on_results_but_not_on_traffic() {
    let mut results = Vec::new();
    let mut bytes = Vec::new();
    for placement in [
        PlacementStrategy::PushToSources,
        PlacementStrategy::Centralized,
    ] {
        let mut monitor = meteo_monitor(placement, false);
        let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
        for i in 0..20u64 {
            if i % 4 == 0 {
                monitor.inject_soap_call(&slow_call(i, "http://a.com"));
            } else {
                monitor.inject_soap_call(&fast_call(i, "http://a.com"));
            }
            monitor.inject_soap_call(&fast_call(1000 + i, "http://b.com"));
        }
        monitor.run_until_idle();
        results.push(monitor.results(&handle).len());
        bytes.push(monitor.network_stats().total_bytes);
    }
    assert_eq!(results[0], results[1], "both plans find the same incidents");
    assert!(results[0] > 0);
    assert!(
        bytes[0] < bytes[1],
        "pushdown ({}) must move fewer bytes than centralized ({})",
        bytes[0],
        bytes[1]
    );
}

/// An aggregate's merge tree runs beside its sources or, centralized, at
/// the manager, where every raw alert travels to its leaf; the answers
/// agree, and only the centralized tree's inputs cross the network.
#[test]
fn centralized_and_pushdown_aggregates_answer_alike() {
    let text = r#"for $c in inCOM(<p>a.com</p> <p>b.com</p> <p>meteo.com</p>)
                  return topk($c.callMethod, 2)
                  by email "ops@example.org";"#;
    let mut answers = Vec::new();
    let mut messages = Vec::new();
    for placement in [
        PlacementStrategy::PushToSources,
        PlacementStrategy::Centralized,
    ] {
        let mut monitor = meteo_monitor(placement, false);
        let handle = monitor.submit("p", text).unwrap();
        for i in 0..30u64 {
            let callee = ["a.com", "b.com", "meteo.com"][i as usize % 3];
            let method = if i % 5 == 0 { "Put" } else { "Get" };
            monitor.inject_soap_call(&SoapCall::new(i, "client.org", callee, method, 0, 5));
        }
        monitor.run_until_idle();
        let results = monitor.results(&handle);
        answers.push(results.last().expect("the root answers").to_xml());
        messages.push(monitor.network_stats().total_messages);
    }
    assert_eq!(answers[0], answers[1]);
    assert!(answers[0].contains(r#"total="30""#), "{}", answers[0]);
    // Pushed down: one partial per leaf; centralized: every alert and no
    // partial (the tree and the root share the manager).
    assert_eq!(messages, [3, 30]);
}

#[test]
fn second_identical_subscription_reuses_published_streams() {
    let mut monitor = meteo_monitor(PlacementStrategy::PushToSources, true);
    let first = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    let second_manager = "observer.org";
    monitor.add_peer(second_manager);
    let second = monitor.submit(second_manager, METEO_SUBSCRIPTION).unwrap();

    let report_first = monitor.report(&first).unwrap();
    let report_second = monitor.report(&second).unwrap();
    assert_eq!(report_first.reuse.reused_nodes, 0);
    assert!(
        report_second.reuse.reused_nodes > 0,
        "the second subscription should reuse at least the alerter/filter streams"
    );
    assert!(report_second.tasks < report_first.tasks);

    // Both subscriptions still deliver the same incidents.
    monitor.inject_soap_call(&slow_call(1, "http://a.com"));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&first).len(), 1);
    assert_eq!(monitor.results(&second).len(), 1);
}

#[test]
fn rss_subscription_routes_add_alerts_to_email_sink() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("portal");
    monitor.add_peer("admin");
    let handle = monitor
        .submit(
            "admin",
            r#"for $e in rssFeed(<p>portal</p>)
               where $e.kind = "add"
               return <new entry="{$e.entry}"/>
               by email "ops@example.org";"#,
        )
        .unwrap();
    let v1 =
        parse("<rss><channel><item><guid>1</guid><title>a</title></item></channel></rss>").unwrap();
    let v2 = parse(
        "<rss><channel><item><guid>1</guid><title>a</title></item><item><guid>2</guid><title>b</title></item></channel></rss>",
    )
    .unwrap();
    monitor.inject_rss_snapshot("portal", "http://portal/feed", &v1);
    monitor.run_until_idle();
    monitor.inject_rss_snapshot("portal", "http://portal/feed", &v2);
    monitor.run_until_idle();
    // First snapshot: 1 add; second: 1 add — both pass the kind filter.
    assert_eq!(monitor.results(&handle).len(), 2);
    let rendered = monitor.sink(&handle).unwrap().render();
    assert!(rendered.contains("To: ops@example.org"));
}

/// An RSS item `levels` deep: a `<guid>` beside a chain of `<a>`s ending in
/// a `<b/>` when `with_b`, or in one more `<a/>`.
fn deep_item(guid: &str, levels: usize, with_b: bool) -> String {
    let chain = levels - 2;
    let bottom = if with_b { "<b/>" } else { "<a/>" };
    format!(
        "<item><guid>{guid}</guid>{}{bottom}{}</item>",
        "<a>".repeat(chain),
        "</a>".repeat(chain)
    )
}

/// A chain of `//` steps in a WHERE clause costs the alert path elements ×
/// steps: one round over two items 256 levels deep (the deepest document
/// the parser accepts) finishes well inside a deadline, and only the item
/// with a `b` at the bottom of its chain is delivered.
#[test]
fn a_descendant_chain_over_a_deep_rss_item_finishes_within_a_deadline() {
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);
    let (tx, rx) = mpsc::channel();
    // On a 2 MB stack, the size test threads get.
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut monitor = Monitor::new(MonitorConfig::default());
            monitor.add_peer("portal");
            monitor.add_peer("admin");
            let handle = monitor
                .submit(
                    "admin",
                    r#"for $e in rssFeed(<p>portal</p>)
                       where $e//a//a//a//a//b
                       return <deep entry="{$e.entry}"/>
                       by email "ops@example.org";"#,
                )
                .unwrap();
            let mut channel = Element::new("channel");
            for (guid, with_b) in [("1", false), ("2", true)] {
                channel.push_element(parse(&deep_item(guid, 256, with_b)).unwrap());
            }
            let mut feed = Element::new("rss");
            feed.push_element(channel);
            assert_eq!(
                monitor.inject_rss_snapshot("portal", "http://portal/feed", &feed),
                2
            );
            monitor.run_until_idle();
            let results = monitor.results(&handle);
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].attr("entry"), Some("2"));
            tx.send(()).unwrap();
        })
        .unwrap();
    // A worker past the deadline cannot be joined; it is left running.
    if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(DEADLINE) {
        panic!("the round did not finish within {DEADLINE:?}");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn dynamic_membership_subscription_follows_joins_and_leaves() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for p in ["hub", "dht.example", "a.com", "b.com"] {
        monitor.add_peer(p);
    }
    let handle = monitor
        .submit(
            "hub",
            r#"for $j in areRegistered(<p>dht.example</p>), $c in inCOM($j)
               where $c.callMethod = "Query"
               return <q callee="{$c.callee}"/>
               by publish as channel "usage";"#,
        )
        .unwrap();
    // a.com joins; b.com never joins.
    monitor.inject_peer_join("dht.example", "a.com");
    monitor.run_until_idle();
    monitor.inject_soap_call(&SoapCall::new(1, "x.org", "a.com", "Query", 10, 12));
    monitor.inject_soap_call(&SoapCall::new(2, "x.org", "b.com", "Query", 10, 12));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&handle).len(), 1);
    // After a.com leaves, its calls are no longer reported.
    monitor.inject_peer_leave("dht.example", "a.com");
    monitor.run_until_idle();
    monitor.inject_soap_call(&SoapCall::new(3, "x.org", "a.com", "Query", 20, 22));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&handle).len(), 1);
}

#[test]
fn join_state_is_bounded_by_the_window() {
    let mut monitor = Monitor::new(MonitorConfig {
        join_window: Window::items(8),
        ..MonitorConfig::default()
    });
    for peer in ["p", "a.com", "b.com", "meteo.com"] {
        monitor.add_peer(peer);
    }
    let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    for i in 0..200u64 {
        monitor.inject_soap_call(&slow_call(i, "http://a.com"));
    }
    monitor.run_until_idle();
    assert!(monitor.state_bytes(&handle) > 0);
    assert!(
        monitor.state_bytes(&handle) < 100_000,
        "windowed join must not retain all 200 calls"
    );
}

#[test]
fn report_counts_tasks_and_edges() {
    let mut monitor = meteo_monitor(PlacementStrategy::PushToSources, true);
    let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    let report = monitor.report(&handle).unwrap();
    assert_eq!(report.manager, "p");
    assert!(report.tasks >= 7);
    assert!(report.cross_peer_edges >= 2);
    assert_eq!(report.results_delivered, 0);
    assert_eq!(monitor.subscription_count(), 1);
    assert!(
        !report.filter_stats.is_empty(),
        "select tasks register with their host peers' engines"
    );
}

#[test]
fn engine_dispatch_is_on_the_meteo_hot_path() {
    let mut monitor = meteo_monitor(PlacementStrategy::PushToSources, true);
    let handle = monitor.submit("p", METEO_SUBSCRIPTION).unwrap();
    monitor.inject_soap_call(&slow_call(1, "http://a.com"));
    monitor.inject_soap_call(&fast_call(2, "http://b.com"));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&handle).len(), 1);
    let stats = monitor.dispatch_stats();
    assert!(
        stats.engine_documents > 0,
        "alerts must flow through the shared engines: {stats:?}"
    );
    assert!(monitor.filter_stats().documents > 0);
}

#[test]
fn activexml_replacements_reach_the_sink_through_both_filter_stages() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("repo.org");
    monitor.add_peer("admin");
    let handle = monitor
        .submit(
            "admin",
            r#"for $u in axmlUpdate(<p>repo.org</p>)
               where $u.kind = "replace" and $u//change
               return <changed document="{$u.document}" version="{$u.version}"/>
               by email "ops@example.org";"#,
        )
        .unwrap();
    let repository = monitor
        .axml_repository_mut("repo.org")
        .expect("an axmlUpdate source is deployed at repo.org");
    repository.insert(
        "catalog",
        parse(r#"<catalog><pkg name="bash"/></catalog>"#).unwrap(),
    );
    repository.insert(
        "catalog",
        parse(r#"<catalog><pkg name="bash"/><pkg name="vim"/></catalog>"#).unwrap(),
    );
    assert!(repository.delete("catalog"));
    monitor.run_until_idle();

    let results = monitor.results(&handle);
    assert_eq!(results.len(), 1, "only the replace passes: {results:?}");
    assert_eq!(results[0].attr("document"), Some("catalog"));
    assert_eq!(results[0].attr("version"), Some("2"));
    // The preFilter saw all three alerts; only the replace reached the
    // tree-pattern stage (YFilterσ), and it matched there.
    let filter = monitor.filter_stats();
    assert_eq!(filter.documents, 3, "{filter:?}");
    assert_eq!(filter.complex_stage_entered, 1, "{filter:?}");
    assert_eq!(filter.documents_matched, 1, "{filter:?}");
    // Nothing is left on the ready list: another round visits no host.
    let visits = monitor.dispatch_stats().host_visits;
    assert!(!monitor.tick());
    assert_eq!(monitor.dispatch_stats().host_visits, visits);
}

#[test]
fn a_mon_stats_subscription_answers_on_the_default_config() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("ops.org");
    let handle = monitor
        .submit(
            "ops.org",
            r#"for $m in monStats(<p>self</p>)
               where $m.kind = "network"
               return <net messages="{$m.messages}"/>
               by email "ops@example.org";"#,
        )
        .unwrap();
    monitor.run_until_idle();
    let results = monitor.results(&handle);
    assert_eq!(results.len(), 1, "one snapshot per run_until_idle");
    assert!(results[0].attr("messages").is_some());
}

#[test]
fn the_mon_stats_alerter_goes_with_its_last_subscription() {
    let text = r#"for $m in monStats(<p>self</p>)
                  where $m.kind = "network"
                  return <net messages="{$m.messages}"/>
                  by email "ops@example.org";"#;
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("ops.org");
    let first = monitor.submit("ops.org", text).unwrap();
    let second = monitor.submit("ops.org", text).unwrap();
    monitor.run_until_idle();
    assert_eq!(monitor.results(&second).len(), 1);
    assert!(monitor.unsubscribe(&first));
    monitor.run_until_idle();
    assert_eq!(
        monitor.results(&second).len(),
        2,
        "a remaining subscription keeps the alerter"
    );
    assert!(monitor.unsubscribe(&second));
    let drained = |monitor: &Monitor| {
        let profile = monitor.round_profile();
        let phase = profile.phase("core.round.drain_alerters");
        phase.map_or(0, |phase| phase.work)
    };
    let before = drained(&monitor);
    for _ in 0..10 {
        monitor.run_until_idle();
    }
    assert_eq!(drained(&monitor), before, "no snapshot is built for nobody");
    let again = monitor.submit("ops.org", text).unwrap();
    monitor.run_until_idle();
    assert_eq!(
        monitor.results(&again).len(),
        1,
        "a new subscription answers"
    );
}
