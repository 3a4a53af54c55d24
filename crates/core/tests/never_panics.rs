//! Hostile monitored events get dropped or delivered, never a panic.
//!
//! A deterministic, seeded sweep at the monitor's event boundary: an
//! arbitrary `Element` (or `SoapCall`) handed to an `inject_*` call.  One
//! monitor runs eight subscriptions side by side — Figure 1 (a join), a
//! `distinct` one (duplicate removal), a two-peer union, a `quantile` and a
//! `topk` aggregate, an `rssFeed`, an `areRegistered` and a `webPage` one —
//! so every alerter kind the sweep feeds is installed, and each injection,
//! followed by `run_until_idle`, runs under `catch_unwind`:
//!
//! * SOAP calls between empty, scheme-only, non-ASCII, unknown and
//!   identical peers, with markup and wide chars in the method, reversed and
//!   `u64::MAX` timestamps, bodies and faults, repeated call ids and
//!   repeated calls;
//! * RSS and page snapshots with no channel, no guid or duplicate guids;
//! * membership joins and leaves of odd peer names.

use std::panic::{catch_unwind, AssertUnwindSafe};

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_p2pml::METEO_SUBSCRIPTION;
use p2pmon_xmlkit::{parse, Element};

/// SOAP calls injected; each is followed by a round of dispatch.
const CALLS: usize = 3_000;

const PEERS: &[&str] = &[
    "",
    "http://",
    "é.com",
    "unknown.org",
    "a.com",
    "http://b.com/",
    "meteo.com",
    "http://meteo.com",
    "dht.example",
];

const METHODS: &[&str] = &["GetTemperature", "Get", "", "<b>x</b>", "a&b\"'<", "é€𝄞"];

const TIMESTAMPS: &[(u64, u64)] = &[
    (100, 120),
    (120, 100),
    (0, 0),
    (0, u64::MAX),
    (u64::MAX, 0),
    (u64::MAX, u64::MAX),
];

const FEEDS: &[&str] = &[
    "<rss/>",
    "<rss><channel/></rss>",
    "<rss><channel><item><title>no guid</title></item></channel></rss>",
    "<rss><channel><item><guid>1</guid><title>a</title></item>\
     <item><guid>1</guid><title>b</title></item></channel></rss>",
    "<rss><channel><item><guid>é€𝄞</guid></item><item><guid/></item></channel></rss>",
    "<feed><entry>not rss</entry></feed>",
];

const URLS: &[&str] = &["http://portal/feed", "", "é"];

const PAGES: &[&str] = &[
    "<html/>",
    "<html><body><p>é€𝄞</p></body></html>",
    "<html><body><p>a</p><p>a</p></body></html>",
];

const SUBSCRIPTIONS: &[&str] = &[
    METEO_SUBSCRIPTION,
    r#"for $c in inCOM(<p>meteo.com</p>)
       return distinct <seen method="{$c.callMethod}"/>
       by publish as channel "seen";"#,
    r#"for $c in outCOM(<p>a.com</p> <p>b.com</p>)
       return <call caller="{$c.caller}" callee="{$c.callee}"/>
       by publish as channel "both";"#,
    r#"for $c in inCOM(<p>a.com</p> <p>b.com</p> <p>meteo.com</p>)
       return quantile($c.duration, 0.5)
       by email "ops@example.org";"#,
    r#"for $c in outCOM(<p>a.com</p> <p>b.com</p>)
       return topk($c.callMethod, 3)
       by email "ops@example.org";"#,
    r#"for $e in rssFeed(<p>portal</p>)
       return <new entry="{$e.entry}"/>
       by email "ops@example.org";"#,
    r#"for $j in areRegistered(<p>dht.example</p>), $c in inCOM($j)
       return <q callee="{$c.callee}" method="{$c.callMethod}"/>
       by publish as channel "usage";"#,
    r#"for $w in webPage(<p>portal</p>)
       return <page url="{$w.url}" kind="{$w.kind}"/>
       by email "ops@example.org";"#,
];

/// splitmix64: a fixed seed gives the same sweep on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

fn hostile_call(rng: &mut Rng) -> SoapCall {
    let caller = rng.pick(PEERS);
    // One call in eight goes from a peer to itself.
    let callee = if rng.next().is_multiple_of(8) {
        caller
    } else {
        rng.pick(PEERS)
    };
    let (sent, answered) = rng.pick(TIMESTAMPS);
    // Few ids, so joins match and `distinct` sees repeats.
    let mut call = SoapCall::new(
        rng.next() % 16,
        caller,
        callee,
        rng.pick(METHODS),
        sent,
        answered,
    );
    match rng.next() % 4 {
        0 => call = call.with_body(parse("<Envelope><x a=\"é\"/>text</Envelope>").unwrap()),
        1 => call = call.with_fault("<fault>é€𝄞</fault>"),
        _ => {}
    }
    call
}

fn monitor() -> (Monitor, Vec<SubscriptionHandle>) {
    let mut monitor = Monitor::new(MonitorConfig::default());
    for peer in [
        "p",
        "hub",
        "a.com",
        "b.com",
        "meteo.com",
        "portal",
        "dht.example",
    ] {
        monitor.add_peer(peer);
    }
    let handles = SUBSCRIPTIONS
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let manager = if i == 0 { "p" } else { "hub" };
            monitor
                .submit(manager, text)
                .unwrap_or_else(|e| panic!("subscription {i} compiles: {e}"))
        })
        .collect();
    (monitor, handles)
}

/// Runs `inject` and a dispatch round under `catch_unwind`; a panic is
/// recorded with `what` and leaves the monitor unusable, so the sweep stops.
fn guarded(
    monitor: &mut Monitor,
    panicked: &mut Option<String>,
    what: impl FnOnce() -> String,
    inject: impl FnOnce(&mut Monitor),
) {
    if panicked.is_some() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        inject(monitor);
        monitor.run_until_idle();
    }));
    if outcome.is_err() {
        *panicked = Some(what());
    }
}

#[test]
fn hostile_events_never_panic_the_monitor() {
    let (mut monitor, handles) = monitor();
    let mut rng = Rng(0x5eed_0010);
    let mut panicked = None;
    let mut call = hostile_call(&mut rng);
    let mut to_meteo = 0;

    for i in 0..CALLS {
        // One call in eight repeats the previous one, for `distinct` to drop.
        if !rng.next().is_multiple_of(8) {
            call = hostile_call(&mut rng);
        }
        to_meteo += usize::from(call.callee.contains("meteo.com"));
        guarded(
            &mut monitor,
            &mut panicked,
            || format!("call {i}: {call:?}"),
            |m| m.inject_soap_call(&call),
        );
        if i % 10 == 0 {
            let peer = rng.pick(PEERS);
            let join = rng.next().is_multiple_of(2);
            guarded(
                &mut monitor,
                &mut panicked,
                || format!("membership {join} of {peer:?}"),
                |m| {
                    if join {
                        m.inject_peer_join("dht.example", peer);
                    } else {
                        m.inject_peer_leave("dht.example", peer);
                    }
                },
            );
        }
        if i % 20 == 0 {
            let feed: Element = parse(rng.pick(FEEDS)).unwrap();
            let page: Element = parse(rng.pick(PAGES)).unwrap();
            let url = rng.pick(URLS);
            guarded(
                &mut monitor,
                &mut panicked,
                || format!("snapshots at {url:?}: {feed:?} / {page:?}"),
                |m| {
                    m.inject_rss_snapshot("portal", url, &feed);
                    m.inject_page_snapshot("portal", url, &page);
                },
            );
        }
    }
    assert!(panicked.is_none(), "first panicking input: {panicked:?}");
    // The sweep is not vacuous: the join, the duplicate removal, the union
    // and the page alerter all delivered, and the duplicate removal dropped
    // repeats.
    let delivered = |i: usize| monitor.results(&handles[i]).len();
    assert!(delivered(0) > 0, "Figure 1's join never matched");
    assert!(delivered(2) > 0, "the union delivered nothing");
    assert!(delivered(7) > 0, "the page alerter observed nothing");
    let seen = delivered(1);
    assert!(
        seen > 0 && seen < to_meteo,
        "distinct delivered {seen} of {to_meteo} calls"
    );
}
