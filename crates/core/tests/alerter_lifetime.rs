//! An alerter lives exactly as long as its source stream has a reference.
//!
//! A deployed `Source` task installs its function's alerter on the monitored
//! peer, and the release of the source stream's last reference drops it,
//! whatever its kind, with everything it buffers and remembers.  For each
//! alerter kind fed through an `inject_*` call:
//!
//! * a second subscription on the same source keeps the alerter after the
//!   first one goes;
//! * after the last one goes, ten rounds of injections followed by
//!   `run_until_idle` drain nothing (`core.round.drain_alerters` work), and
//!   the stateful injections report that nobody observed them;
//! * a redeployed subscription answers, from empty alerter state.
//!
//! Then a source kept alive by reuse (a filter another subscription
//! consumes) keeps its alerter until that consumer goes, and a redeployed
//! `monStats` alerter reports whole channel totals, not deltas since a gone
//! subscriber's last snapshot.

use std::collections::BTreeMap;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_xmlkit::{parse, Element};

/// Peers a membership feed joins to the monitored DHT.
const MEMBERS: u64 = 32;

fn monitor() -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig::default());
    let peers = [
        "ops.org",
        "a.com",
        "b.com",
        "meteo.com",
        "portal",
        "repo.org",
    ];
    for peer in peers.into_iter().chain(["dht.example"]) {
        monitor.add_peer(peer);
    }
    for i in 0..MEMBERS {
        monitor.add_peer(format!("m{i}.org"));
    }
    monitor
}

/// A subscription that returns every alert of `source` wrapped in `<tag>`.
fn wrap(source: &str, tag: &str) -> String {
    format!(r#"for $x in {source} return <{tag}>{{$x}}</{tag}> by email "ops@example.org";"#)
}

/// Alerts drained by every round so far.
fn drained(monitor: &Monitor) -> u64 {
    let profile = monitor.round_profile();
    let phase = profile.phase("core.round.drain_alerters");
    phase.map_or(0, |phase| phase.work)
}

fn submit(monitor: &mut Monitor, text: &str) -> SubscriptionHandle {
    monitor
        .submit("ops.org", text)
        .unwrap_or_else(|e| panic!("{text} deploys: {e}"))
}

/// One event for a subscription on the source: what the `inject_*` call
/// returned (`None` for a call that returns nothing), each feed producing
/// exactly one alert while the alerter is installed.
type Feed<'a> = &'a mut dyn FnMut(&mut Monitor) -> Option<usize>;

/// Feeds one event, runs it through, and returns how many results each of
/// `handles` received.
fn feed_round(monitor: &mut Monitor, feed: Feed<'_>, handles: &[SubscriptionHandle]) -> Vec<usize> {
    let before: Vec<usize> = handles.iter().map(|h| monitor.results(h).len()).collect();
    let observed = feed(monitor);
    assert_ne!(observed, Some(0), "an installed alerter observes the event");
    monitor.run_until_idle();
    handles
        .iter()
        .zip(before)
        .map(|(h, before)| monitor.results(h).len() - before)
        .collect()
}

/// Deploys two subscriptions on one source and retires them one by one:
/// while either stands, every event answers it; once both are gone, ten
/// more events drain nothing and no stateful injection observes anything.
fn outlive_then_release(monitor: &mut Monitor, text: impl Fn(&str) -> String, feed: Feed<'_>) {
    let first = submit(monitor, &text("first"));
    let second = submit(monitor, &text("second"));
    assert_eq!(feed_round(monitor, feed, &[first, second]), [1, 1]);
    assert!(monitor.unsubscribe(&first));
    for _ in 0..2 {
        assert_eq!(
            feed_round(monitor, feed, &[second]),
            [1],
            "the remaining subscription keeps the alerter"
        );
    }
    assert!(monitor.unsubscribe(&second));
    let before = drained(monitor);
    for round in 0..10 {
        let observed = feed(monitor);
        assert!(
            matches!(observed, None | Some(0)),
            "round {round}: a released alerter observed {observed:?}"
        );
        monitor.run_until_idle();
    }
    assert_eq!(drained(monitor), before, "nobody's alerter drained alerts");
}

fn call(id: u64, caller: &str, callee: &str) -> SoapCall {
    SoapCall::new(id, caller, callee, "Get", 10, 12)
}

#[test]
fn an_out_com_alerter_goes_with_its_last_subscription() {
    let mut monitor = monitor();
    let mut id = 0;
    let mut feed = |m: &mut Monitor| {
        id += 1;
        m.inject_soap_call(&call(id, "a.com", "b.com"));
        None
    };
    let text = |tag: &str| wrap("outCOM(<p>a.com</p>)", tag);
    outlive_then_release(&mut monitor, text, &mut feed);
    let again = submit(&mut monitor, &text("again"));
    assert_eq!(feed_round(&mut monitor, &mut feed, &[again]), [1]);
}

#[test]
fn an_in_com_alerter_goes_with_its_last_subscription() {
    let mut monitor = monitor();
    let mut id = 0;
    let mut feed = |m: &mut Monitor| {
        id += 1;
        m.inject_soap_call(&call(id, "b.com", "meteo.com"));
        None
    };
    let text = |tag: &str| wrap("inCOM(<p>meteo.com</p>)", tag);
    outlive_then_release(&mut monitor, text, &mut feed);
    let again = submit(&mut monitor, &text("again"));
    assert_eq!(feed_round(&mut monitor, &mut feed, &[again]), [1]);
}

/// An RSS feed of `items` entries, guids `1..=items`.
fn rss(items: usize) -> Element {
    let body: String = (1..=items)
        .map(|i| format!("<item><guid>{i}</guid><title>t{i}</title></item>"))
        .collect();
    parse(&format!("<rss><channel>{body}</channel></rss>")).unwrap()
}

#[test]
fn an_rss_alerter_goes_with_its_last_subscription_and_its_snapshots() {
    let mut monitor = monitor();
    // Each snapshot has one entry more than the last: one `add` alert.
    let mut items = 0;
    let mut feed = |m: &mut Monitor| {
        items += 1;
        Some(m.inject_rss_snapshot("portal", "http://portal/feed", &rss(items)))
    };
    let text = |tag: &str| wrap("rssFeed(<p>portal</p>)", tag);
    outlive_then_release(&mut monitor, text, &mut feed);
    assert_eq!(items, 13);

    // The redeployed alerter remembers no snapshot: all 13 entries are new.
    let again = submit(&mut monitor, &text("again"));
    let produced = monitor.inject_rss_snapshot("portal", "http://portal/feed", &rss(13));
    assert_eq!(produced, 13);
    monitor.run_until_idle();
    let results = monitor.results(&again);
    assert_eq!(results.len(), 13);
    let kinds = results
        .iter()
        .map(|r| r.child("rssAlert").unwrap().attr("kind"));
    assert!(kinds.into_iter().all(|kind| kind == Some("add")));
}

#[test]
fn a_web_page_alerter_goes_with_its_last_subscription_and_its_snapshots() {
    let mut monitor = monitor();
    let page = |version: u64| parse(&format!("<html><p>v{version}</p></html>")).unwrap();
    let mut version = 0;
    let mut feed = |m: &mut Monitor| {
        version += 1;
        Some(usize::from(m.inject_page_snapshot(
            "portal",
            "http://portal/",
            &page(version),
        )))
    };
    let text = |tag: &str| wrap("webPage(<p>portal</p>)", tag);
    outlive_then_release(&mut monitor, text, &mut feed);

    // The redeployed alerter has seen no page: the next version is `new`,
    // and the one after it a `changed` alert carrying its delta.
    let again = submit(&mut monitor, &text("again"));
    assert!(monitor.inject_page_snapshot("portal", "http://portal/", &page(version + 1)));
    monitor.run_until_idle();
    assert!(monitor.inject_page_snapshot("portal", "http://portal/", &page(version + 2)));
    monitor.run_until_idle();
    let results = monitor.results(&again);
    let alerts: Vec<&Element> = results
        .iter()
        .map(|r| r.child("pageAlert").expect("the page alert"))
        .collect();
    assert_eq!(alerts.len(), 2);
    assert_eq!(alerts[0].attr("kind"), Some("new"));
    assert_eq!(alerts[1].attr("kind"), Some("changed"));
    assert_eq!(alerts[1].attr("url"), Some("http://portal/"));
    let change = alerts[1].child("delta").and_then(|d| d.child("change"));
    let change = change.expect("a change carries its delta");
    assert_eq!(change.attr("kind"), Some("text"));
    assert_eq!(
        change.attr("after"),
        Some(format!("v{}", version + 2).as_str())
    );
}

#[test]
fn an_axml_alerter_goes_with_its_last_subscription_and_its_repository() {
    let mut monitor = monitor();
    let mut documents = 0;
    let mut feed = |m: &mut Monitor| {
        documents += 1;
        let name = format!("d{documents}");
        let repository = m.axml_repository_mut("repo.org");
        Some(repository.map_or(0, |r| {
            r.insert(&name, Element::new("doc"));
            1
        }))
    };
    let text = |tag: &str| wrap("axmlUpdate(<p>repo.org</p>)", tag);
    outlive_then_release(&mut monitor, text, &mut feed);
    assert!(monitor.axml_repository_mut("repo.org").is_none());

    // The redeployed alerter's repository is empty: `d1` is inserted anew.
    let again = submit(&mut monitor, &text("again"));
    let repository = monitor.axml_repository_mut("repo.org");
    let repository = repository.expect("an axmlUpdate source is deployed");
    repository.insert("d1", Element::new("doc"));
    monitor.run_until_idle();
    let results = monitor.results(&again);
    assert_eq!(results.len(), 1);
    let update = results[0].child("axmlUpdate").expect("the update alert");
    assert_eq!(update.attr("kind"), Some("insert"));
    assert_eq!(update.attr("version"), Some("1"));
}

#[test]
fn a_membership_alerter_goes_with_its_last_subscription_and_its_members() {
    let mut monitor = monitor();
    // Each event joins a new member and, once the join is through, calls
    // it: one result.
    let mut members: u64 = 0;
    let mut feed = |m: &mut Monitor| {
        let member = format!("m{members}.org");
        members += 1;
        let joined = m.inject_peer_join("dht.example", &member);
        m.run_until_idle();
        m.inject_soap_call(&call(members, "b.com", &member));
        Some(usize::from(joined))
    };
    let text = |tag: &str| {
        format!(
            r#"for $j in areRegistered(<p>dht.example</p>), $c in inCOM($j)
               return <{tag}>{{$c}}</{tag}> by email "ops@example.org";"#
        )
    };
    outlive_then_release(&mut monitor, text, &mut feed);
    assert!(!monitor.inject_peer_leave("dht.example", "m0.org"));

    // The redeployed alerter has nobody registered: `m0.org`, which joined
    // the gone alerter and never left, joins anew.
    let again = submit(&mut monitor, &text("again"));
    assert!(monitor.inject_peer_join("dht.example", "m0.org"));
    monitor.run_until_idle();
    monitor.inject_soap_call(&call(100, "b.com", "m0.org"));
    monitor.run_until_idle();
    assert_eq!(monitor.results(&again).len(), 1);
}

#[test]
fn a_source_kept_alive_by_reuse_keeps_its_alerter() {
    let mut monitor = monitor();
    let filter = |tag: &str| {
        format!(
            r#"for $c in outCOM(<p>a.com</p>) where $c.callMethod = "Get"
               return <{tag} id="{{$c.callId}}"/> by email "ops@example.org";"#
        )
    };
    let a = submit(&mut monitor, &filter("a"));
    let b = submit(&mut monitor, &filter("b"));
    let reused = monitor.report(&b).unwrap().reuse;
    assert!(
        !reused.subscribed_channels.is_empty(),
        "b consumes a's filter: {reused:?}"
    );
    let mut id = 0;
    let mut feed = |m: &mut Monitor| {
        id += 1;
        m.inject_soap_call(&call(id, "a.com", "b.com"));
        None
    };
    assert_eq!(feed_round(&mut monitor, &mut feed, &[a, b]), [1, 1]);
    assert!(monitor.unsubscribe(&a));
    assert_eq!(
        feed_round(&mut monitor, &mut feed, &[b]),
        [1],
        "a's filter still feeds b, and its source keeps the alerter"
    );
    assert!(monitor.unsubscribe(&b));
    let before = drained(&monitor);
    for _ in 0..10 {
        feed(&mut monitor);
        monitor.run_until_idle();
    }
    assert_eq!(
        drained(&monitor),
        before,
        "b's teardown released the alerter"
    );
}

#[test]
fn a_redeployed_mon_stats_alerter_reports_whole_channel_totals() {
    let mut monitor = monitor();
    let stats = r#"for $m in monStats(<p>self</p>) where $m.kind = "channel"
                   return <bytes channel="{$m.channel}" bytes="{$m.bytes}"/>
                   by email "ops@example.org";"#;
    submit(&mut monitor, &wrap("outCOM(<p>a.com</p>)", "call"));
    let mut id = 0;
    let mut traffic = |m: &mut Monitor| {
        for _ in 0..4 {
            id += 1;
            m.inject_soap_call(&call(id, "a.com", "b.com"));
        }
        m.run_until_idle();
    };
    let gone = submit(&mut monitor, stats);
    traffic(&mut monitor);
    traffic(&mut monitor);
    assert!(!monitor.results(&gone).is_empty());
    assert!(monitor.unsubscribe(&gone));
    traffic(&mut monitor);

    let again = submit(&mut monitor, stats);
    let totals: BTreeMap<String, u64> = monitor
        .rate_table()
        .channels()
        .filter(|(_, stats)| stats.bytes > 0)
        .map(|(channel, stats)| (channel.to_string(), stats.bytes))
        .collect();
    assert!(!totals.is_empty());
    monitor.run_until_idle();
    let mut reported: BTreeMap<String, u64> = BTreeMap::new();
    for result in monitor.results(&again) {
        let channel = result.attr("channel").unwrap().to_string();
        let bytes: u64 = result.attr("bytes").unwrap().parse().unwrap();
        *reported.entry(channel).or_default() += bytes;
    }
    assert_eq!(reported, totals, "the first snapshot reports every byte");
}
