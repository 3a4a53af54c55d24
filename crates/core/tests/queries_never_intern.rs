//! A query about a peer or a channel never interns the names it is given.
//!
//! Interned names are never freed, so a query that interned its argument
//! would grow the process-wide table with every name any caller ever asked
//! about.  Each public entry point below is handed a name no other test
//! uses, answers as it does for any unknown peer (`None`, `false`, `0` or
//! empty), and must leave that name uninterned — `is_peer_down` while
//! another peer is failed, since only then does the network look its
//! argument up at all.

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_xmlkit::intern::lookup;
use p2pmon_xmlkit::parse;

#[test]
fn queries_about_unknown_names_intern_nothing() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("qi-known.test");
    monitor.fail_peer("qi-known.test");
    let snapshot = parse("<rss/>").expect("parses");

    assert!(!monitor.is_peer_down("qi-down.test"));
    assert!(monitor
        .published_channel("qi-publisher.test", "qi-channel")
        .is_empty());
    assert!(monitor.peer_host("qi-host.test").is_none());
    assert!(monitor.peer_filter_stats("qi-stats.test").is_none());
    assert_eq!(monitor.hosted_tasks("qi-tasks.test"), 0);
    monitor.inject_soap_call(&SoapCall::new(
        1,
        "qi-caller.test",
        "qi-callee.test",
        "Get",
        0,
        1,
    ));
    assert_eq!(
        monitor.inject_rss_snapshot("qi-rss.test", "feed", &snapshot),
        0
    );
    assert!(!monitor.inject_page_snapshot("qi-page.test", "page", &snapshot));
    assert!(!monitor.inject_peer_join("qi-join.test", "qi-joining.test"));
    assert!(!monitor.inject_peer_leave("qi-leave.test", "qi-leaving.test"));
    assert!(monitor.axml_repository_mut("qi-axml.test").is_none());
    monitor.fail_peer("qi-fail.test");
    monitor.recover_peer("qi-recover.test");

    for name in [
        "qi-down.test",
        "qi-publisher.test",
        "qi-channel",
        "qi-host.test",
        "qi-stats.test",
        "qi-tasks.test",
        "qi-caller.test",
        "qi-callee.test",
        "qi-rss.test",
        "qi-page.test",
        "qi-join.test",
        "qi-joining.test",
        "qi-leave.test",
        "qi-leaving.test",
        "qi-axml.test",
        "qi-fail.test",
        "qi-recover.test",
    ] {
        assert_eq!(lookup(name), None, "a query interned {name}");
    }
}
