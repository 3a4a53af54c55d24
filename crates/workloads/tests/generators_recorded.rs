//! The hub storms' outputs, pinned: every seeded generator of
//! `p2pmon-workloads` that the recorded tests and the end-to-end benchmark
//! build from must keep producing the same subscription texts, managers,
//! shapes, SOAP calls and latency links for every seed — the same RNG
//! draws in the same order.  Each case digests (FNV-1a) subscription texts
//! `0..64`, `manager_of` and `shape_of` where the storm has them, 256
//! `calls` in their `Debug` form and the sorted `LatencyModel::PerLink`
//! table.
//!
//! The digests were recorded at b6d3199, where each storm still carried
//! its own copy of the subscription writer and of the call draw, by running
//! this very file there: `cargo test -q -p p2pmon-workloads --test
//! generators_recorded -- --nocapture` prints every case's constant.

use p2pmon_net::LatencyModel;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm, SketchStorm, SubscriptionStorm};

/// FNV-1a over `items`, each followed by a `0xff` separator byte.
fn digest<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for b in item.as_ref().bytes().chain([0xff]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The `PerLink` table sorted by link name, then its default.
fn links(model: &LatencyModel) -> u64 {
    let LatencyModel::PerLink { links, default } = model else {
        panic!("the clustered storms build a per-link model");
    };
    let mut rows: Vec<String> = links
        .iter()
        .map(|((from, to), ms)| format!("{from} {to} {ms}"))
        .collect();
    rows.sort();
    rows.push(format!("default {default}"));
    digest(rows)
}

fn calls_of(calls: Vec<p2pmon_alerters::SoapCall>) -> u64 {
    digest(calls.iter().map(|call| format!("{call:?}")))
}

/// Compares `got` with the recorded `want`, printing `got` as a constant.
fn check(name: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    println!("const {name}: &[(&str, u64)] = &[");
    for (part, hash) in got {
        println!("    (\"{part}\", {hash:#018x}),");
    }
    println!("];");
    assert_eq!(got, want, "{name} moved");
}

fn subscription_storm(mut storm: SubscriptionStorm) -> Vec<(&'static str, u64)> {
    vec![
        ("texts", digest(storm.subscriptions(64))),
        ("calls", calls_of(storm.calls(256))),
    ]
}

fn overlapping_storm(mut storm: OverlappingStorm) -> Vec<(&'static str, u64)> {
    vec![
        ("texts", digest(storm.subscriptions(64))),
        ("managers", digest((0..64).map(|i| storm.manager_of(i)))),
        ("links", links(&storm.latency_model())),
        ("calls", calls_of(storm.calls(256))),
    ]
}

fn massive_storm(mut storm: MassiveStorm) -> Vec<(&'static str, u64)> {
    vec![
        ("texts", digest(storm.subscriptions(64))),
        ("managers", digest((0..64).map(|i| storm.manager_of(i)))),
        (
            "shapes",
            digest((0..64).map(|i| storm.shape_of(i).to_string())),
        ),
        ("links", links(&storm.latency_model())),
        ("calls", calls_of(storm.calls(256))),
    ]
}

const SUBSCRIPTION_NEW_1: &[(&str, u64)] =
    &[("texts", 0x9185551534bae1bf), ("calls", 0x630d83096621cee1)];

#[test]
fn subscription_storm_default() {
    let got = subscription_storm(SubscriptionStorm::new(1));
    check("SUBSCRIPTION_NEW_1", &got, SUBSCRIPTION_NEW_1);
}

const SUBSCRIPTION_PEERS_7_4: &[(&str, u64)] =
    &[("texts", 0xeed4715fc5854e77), ("calls", 0xcc6c1a3994beb445)];

#[test]
fn subscription_storm_over_four_hubs_with_every_pattern() {
    let mut storm = SubscriptionStorm::with_peers(7, 4);
    storm.pattern_every = 1;
    storm.residual_every = 3;
    let got = subscription_storm(storm);
    check("SUBSCRIPTION_PEERS_7_4", &got, SUBSCRIPTION_PEERS_7_4);
}

const OVERLAPPING_NEW_1_8: &[(&str, u64)] = &[
    ("texts", 0xc5aa9addcdea9215),
    ("managers", 0xe9a857dcddc5d825),
    ("links", 0xf23ce7dd2635d6d2),
    ("calls", 0xc6be79534da17759),
];

#[test]
fn overlapping_storm_default() {
    let got = overlapping_storm(OverlappingStorm::new(1, 8));
    check("OVERLAPPING_NEW_1_8", &got, OVERLAPPING_NEW_1_8);
}

const OVERLAPPING_PEERS_3_8_4: &[(&str, u64)] = &[
    ("texts", 0xd4935b5e10127855),
    ("managers", 0xe9a857dcddc5d825),
    ("links", 0xf23ce7dd2635d6d2),
    ("calls", 0x124a429ef95b681a),
];

#[test]
fn overlapping_storm_over_four_hubs() {
    let got = overlapping_storm(OverlappingStorm::with_peers(3, 8, 4));
    check("OVERLAPPING_PEERS_3_8_4", &got, OVERLAPPING_PEERS_3_8_4);
}

const OVERLAPPING_PAIRED_1_8_2_4: &[(&str, u64)] = &[
    ("texts", 0xb445ffcf6b38bec9),
    ("managers", 0x9e63f6584c36ca65),
    ("links", 0x5a351bb81856dc62),
    ("calls", 0xc871baf73e44a4f2),
];

#[test]
fn paired_storm() {
    let got = overlapping_storm(OverlappingStorm::paired(1, 8, 2, 4));
    check(
        "OVERLAPPING_PAIRED_1_8_2_4",
        &got,
        OVERLAPPING_PAIRED_1_8_2_4,
    );
}

const OVERLAPPING_CHURN_5: &[(&str, u64)] = &[
    ("texts", 0x1c426239abd58d27),
    ("managers", 0x9812ceca58b72e05),
    ("links", 0xe373643748cf7a92),
    ("calls", 0xfa85e66de2b541b6),
];

/// The `churn_mix` storm: clustered consumers, hubs reassigned to eight.
#[test]
fn churn_storm() {
    let mut storm = OverlappingStorm::clustered(5, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    let got = overlapping_storm(storm);
    check("OVERLAPPING_CHURN_5", &got, OVERLAPPING_CHURN_5);
}

const MASSIVE_1_1000: &[(&str, u64)] = &[
    ("texts", 0xccc0225af114f87f),
    ("managers", 0x04a238f883529fa9),
    ("shapes", 0x8f4b1cfeebe27351),
    ("links", 0x6bbecdf9ee79b4a2),
    ("calls", 0x4a885cec91b43c11),
];

#[test]
fn massive_storm_at_1k() {
    let got = massive_storm(MassiveStorm::sized(1, 1_000));
    check("MASSIVE_1_1000", &got, MASSIVE_1_1000);
}

const MASSIVE_2_10000: &[(&str, u64)] = &[
    ("texts", 0xe1010b5885194039),
    ("managers", 0x02a9a613f0238145),
    ("shapes", 0xcd3fe204c22467bf),
    ("links", 0x05255cb6cb84ede2),
    ("calls", 0x77642f654727b64d),
];

#[test]
fn massive_storm_at_10k() {
    let got = massive_storm(MassiveStorm::sized(2, 10_000));
    check("MASSIVE_2_10000", &got, MASSIVE_2_10000);
}

const SKETCH_1_1000: &[(&str, u64)] = &[
    ("aggregates", 0xc4095b7d60a1966f),
    ("ship", 0x0f7fec4ded815a8f),
    ("calls", 0x3e40116178b42988),
];

#[test]
fn sketch_storm_at_1k() {
    let mut storm = SketchStorm::sized(1, 1_000);
    let got = vec![
        ("aggregates", digest(storm.aggregate_subscriptions(3, 0.99))),
        ("ship", digest(storm.ship_subscriptions())),
        ("calls", calls_of(storm.calls(256))),
    ];
    check("SKETCH_1_1000", &got, SKETCH_1_1000);
}
