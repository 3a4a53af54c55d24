//! The P2PML front end's output, pinned: `compile_subscription` must keep
//! producing the same logical plan, `Debug`-identical, for every text of a
//! fixed corpus, and must keep rejecting the same texts.  A failure's
//! message is not pinned, only the fact that the text fails.
//!
//! Each corpus group digests (FNV-1a) the `Debug` form of every plan it
//! compiles, each prefixed by the text's index, and separately the indices
//! of the texts that fail.  The groups: `MassiveStorm` texts `0..2 000`,
//! `OverlappingStorm`'s clustered and paired texts, `SubscriptionStorm`
//! texts with every pattern and residual, the `SketchStorm` aggregates and
//! ship-items texts at 50 peers, the paper's Figure 1 with the
//! never-panics sweep's variants (every char boundary truncated, split and
//! given a 2-, 3- and 4-byte char) and hand-written shapes: dynamic,
//! nested, three-way join, channel, distinct, `return $e`, weighted top-k,
//! entropy, quantile, XPath conditions and texts that must fail.
//!
//! The digests were recorded at e3d90bf, where the parser still captured
//! the RETURN body and the peer list as text before handing them to
//! `p2pmon-xmlkit` and the planner cloned everything out of a borrowed AST,
//! by running this very file there: `cargo test -q --release -p
//! p2pmon-workloads --test compile_recorded -- --nocapture` prints every
//! group's constants.

use p2pmon_p2pml::{compile_subscription, METEO_SUBSCRIPTION};
use p2pmon_workloads::{MassiveStorm, OverlappingStorm, SketchStorm, SubscriptionStorm};

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(texts, compiled plans' digest, failing indices' digest, failures)`.
fn record<S: AsRef<str>>(texts: &[S]) -> (usize, u64, u64, usize) {
    let (mut plans, mut failures, mut failed) =
        (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64, 0);
    for (i, text) in texts.iter().enumerate() {
        let index = (i as u64).to_le_bytes();
        match compile_subscription(text.as_ref()) {
            Ok(plan) => {
                plans = fnv(plans, index);
                plans = fnv(
                    plans,
                    format!("{plan:?}").into_bytes().into_iter().chain([0xff]),
                );
            }
            Err(_) => {
                failures = fnv(failures, index);
                failed += 1;
            }
        }
    }
    (texts.len(), plans, failures, failed)
}

/// Compares `got` with the recorded `want`, printing `got` as a constant.
fn check(name: &str, got: (usize, u64, u64, usize), want: (usize, u64, u64, usize)) {
    println!(
        "const {name}: (usize, u64, u64, usize) = ({}, {:#018x}, {:#018x}, {});",
        got.0, got.1, got.2, got.3
    );
    assert_eq!(got, want, "{name} moved: (texts, plans, failing, failed)");
}

/// The never-panics sweep's variants of `text`: at every char boundary the
/// head alone, the tail alone and the text with `é`, `€` and `𝄞` inserted.
fn variants(text: &str) -> Vec<String> {
    let boundaries = text.char_indices().map(|(i, _)| i).chain([text.len()]);
    let mut out = Vec::new();
    for i in boundaries {
        let (head, tail) = text.split_at(i);
        out.push(head.to_string());
        out.push(tail.to_string());
        for wide in ['é', '€', '𝄞'] {
            out.push(format!("{head}{wide}{tail}"));
        }
    }
    out
}

/// Hand-written shapes the storms do not write, each valid or not.
const SHAPES: &[&str] = &[
    r#"for $j in areRegistered(<p>s.com/dht</p>), $c in inCOM($j)
       where $c.callMethod = "Query"
       return <q>{$c.caller}</q>
       by publish as channel "usage";"#,
    r#"for $x in ( for $y in inCOM(<p>a.com</p>) where $y.callMethod = "Ping" return <p>{$y.caller}</p> )
       return <caller>{$x}</caller>
       by publish as channel "pings";"#,
    r#"for $a in outCOM(<p>x.com</p>), $b in inCOM(<p>y.com</p>), $c in inCOM(<p>z.com</p>)
       where $a.callId = $b.callId and $b.callId = $c.callId and $a.callee != $c.caller
       return <r id="{$a.callId}"/>
       by publish as channel "chain";"#,
    r##"for $x in channel("#alertQoS@http://p.org/")
        return <forwarded>{$x}</forwarded>
        by rss "alerts.rss";"##,
    r#"for $y in inCOM(<p>s.com</p>) return distinct <a>{$y}</a> by file "out.xml";"#,
    r#"for $e in outCOM(<p>local</p>) where $e.callee = "http://meteo.com" return $e by channel X;"#,
    r#"for $c in inCOM(<p>a.com</p> <p> https://b.com/ </p>)
       return topk($c.channel, 3, $c.bytes)
       by publish as channel "bytes";"#,
    r#"for $c in inCOM(<p>a.com</p>) return entropy($c.caller) every 4 by email "e@x.org";"#,
    r#"for $c in inCOM(<p>a.com</p>)
       where $c.callMethod = "Query"
       return quantile($c.duration, 0.99)
       by email "ops@example.com";"#,
    r#"for $c in inCOM(<p>meteo.com</p>)
       where $c/alert[@callMethod = "GetTemperature"] and $c.callId > 100 and "x" = $c.kind
       return <hit id="{$c.callId}"><city>{$c/soap/city}</city></hit>
       by publish as channel "x";"#,
    r#"for $c in outCOM(<p>hub.net</p>)
       let $d := $c.responseTimestamp - $c.callTimestamp, $e := $d * 2
       where $c.callee = "svc" and $c//detail and $e > 20
       return <slow d="{$d}" twice="{$e}">{$c.callMethod} took {$d}</slow>
       by email "slow@example.org";"#,
    r#"for $c1 in outCOM(<p>a.com</p>), $c2 in inCOM(<p>b.com</p>)
       let $gap := $c2.callTimestamp - $c1.callTimestamp
       where $c1.callId = $c2.callId and $gap > 3
       return <gap v="{$gap}">{$c1}</gap>
       by publish as channel "gaps";"#,
    r#"FOR $x IN inCOM(<p>a</p>) WHERE $x.callId = 1 RETURN <a/> BY EMAIL "x";"#,
    r#"for $x in inCOM(<q>a &amp; b</q><p><![CDATA[c.com]]></p>) return <a>{$x}</a> by email "x";"#,
    // Texts that must fail.
    r#"for $a in inCOM(<p>x</p>), $b in inCOM(<p>y</p>) return <r/> by email "z";"#,
    r#"for $c in inCOM(<p>a.com</p>) return topk($z.method, 5) by publish as channel "x";"#,
    r#"for $c in inCOM(<p>a.com</p>) return topk($c.method, 0) by email "x";"#,
    r#"for $c in inCOM(<p>a.com</p>) return quantile($c.d, 1.5) by email "x";"#,
    r#"for $c in inCOM(<p>a.com</p>) return topk($c.m, 3, $d.w) by email "x";"#,
    r#"for $c in inK($z) return <a/> by email "x";"#,
    "for $x in",
    "for $x in foo() return <a/> by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <a/>",
    "for $x in inCOM(<p>a</p>) where return <a/> by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <unclosed by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <a>{not_a_var}</a> by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <a/> <b/> by email \"x\";",
    "for $x in inCOM(<p>a</p>) return junk by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <a/> by email \"x\"; extra stuff",
    "for $x in channel(\"nopeer\") return <a/> by email \"x\";",
    "for $x in inCOM(<p>a</p>) return <a/> by pigeon \"x\";",
    "",
];

#[test]
fn massive_storm_texts_compile_as_recorded() {
    let storm = MassiveStorm::sized(1, 10_000);
    let got = record(&storm.subscriptions(2_000));
    check("MASSIVE", got, MASSIVE);
}

const MASSIVE: (usize, u64, u64, usize) = (2000, 0x8fad32130a4900b1, 0xcbf29ce484222325, 0);

#[test]
fn overlapping_storm_texts_compile_as_recorded() {
    let clustered = OverlappingStorm::clustered(1, 16, 4, 8).subscriptions(32);
    check("CLUSTERED", record(&clustered), CLUSTERED);
    let paired = OverlappingStorm::paired(1, 8, 4, 8).subscriptions(32);
    check("PAIRED", record(&paired), PAIRED);
}

const CLUSTERED: (usize, u64, u64, usize) = (32, 0xc0828c620c624ba3, 0xcbf29ce484222325, 0);
const PAIRED: (usize, u64, u64, usize) = (32, 0x29f43e5b85d2b4ed, 0xcbf29ce484222325, 0);

#[test]
fn subscription_storm_texts_compile_as_recorded() {
    let mut storm = SubscriptionStorm::with_peers(7, 4);
    storm.pattern_every = 1;
    storm.residual_every = 3;
    check(
        "SUBSCRIPTION",
        record(&storm.subscriptions(64)),
        SUBSCRIPTION,
    );
}

const SUBSCRIPTION: (usize, u64, u64, usize) = (64, 0x22fa7e7561594baf, 0xcbf29ce484222325, 0);

#[test]
fn sketch_storm_texts_compile_as_recorded() {
    let storm = SketchStorm::sized(1, 50);
    let mut texts = storm.aggregate_subscriptions(3, 0.99);
    texts.extend(storm.aggregate_subscriptions(1, 0.5));
    texts.extend(storm.ship_subscriptions());
    check("SKETCH", record(&texts), SKETCH);
}

const SKETCH: (usize, u64, u64, usize) = (56, 0x906fb6b44274670e, 0xcbf29ce484222325, 0);

#[test]
fn figure_1_and_its_variants_compile_as_recorded() {
    let mut texts = vec![METEO_SUBSCRIPTION.to_string()];
    texts.extend(variants(METEO_SUBSCRIPTION));
    check("FIGURE_1", record(&texts), FIGURE_1);
}

const FIGURE_1: (usize, u64, u64, usize) = (2356, 0x1b55d861b97e1182, 0x166f2535b634b35a, 1776);

#[test]
fn hand_written_shapes_compile_as_recorded() {
    check("SHAPES_RECORDED", record(SHAPES), SHAPES_RECORDED);
}

const SHAPES_RECORDED: (usize, u64, u64, usize) = (32, 0xad8d77c7448ef5a8, 0x1ff4fb765f6f9b04, 18);
