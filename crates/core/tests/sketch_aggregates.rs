//! End-to-end streaming-sketch aggregation: `topk` / `entropy` / `quantile`
//! subscriptions compile to a sketch merge tree (leaf stages on the
//! monitored peers, interior merges, one root at the manager) and answer
//! through the normal delivery path with bounded-size partials on the wire.

use proptest::prelude::*;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_workloads::SketchStorm;
use p2pmon_xmlkit::Element;

fn monitor_over(peers: &[&str]) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("hub");
    for peer in peers {
        monitor.add_peer(*peer);
    }
    monitor
}

fn call(id: u64, callee: &str, method: &str, duration: u64) -> SoapCall {
    SoapCall::new(id, "client.org", callee, method, 1_000, 1_000 + duration)
}

/// The last (cumulative) answer delivered to a subscription's sink.
fn last_answer(monitor: &Monitor, handle: &p2pmon_core::SubscriptionHandle) -> Element {
    let results = monitor.results(handle);
    assert!(!results.is_empty(), "aggregate produced no answers");
    Element::clone(results.last().unwrap())
}

#[test]
fn topk_aggregate_counts_methods_across_peers() {
    let mut monitor = monitor_over(&["a.com", "b.com", "c.com"]);
    let handle = monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p> <p>b.com</p> <p>c.com</p>)
               return topk($c.callMethod, 2)
               by email "ops@example.org";"#,
        )
        .unwrap();
    // 6 Get, 3 Put, 1 Scan spread over the three monitored peers.
    let peers = ["a.com", "b.com", "c.com"];
    for i in 0..6u64 {
        monitor.inject_soap_call(&call(i, peers[i as usize % 3], "Get", 5));
    }
    for i in 6..9u64 {
        monitor.inject_soap_call(&call(i, peers[i as usize % 3], "Put", 5));
    }
    monitor.inject_soap_call(&call(9, "a.com", "Scan", 5));
    monitor.run_until_idle();

    let answer = last_answer(&monitor, &handle);
    assert_eq!(answer.name, "aggregate");
    assert_eq!(answer.attr("kind"), Some("topk"));
    assert_eq!(answer.attr("total"), Some("10"));
    let entries: Vec<&Element> = answer.children_named("entry").collect();
    assert_eq!(entries.len(), 2, "topk(…, 2) answers exactly two entries");
    assert_eq!(entries[0].attr("key"), Some("Get"));
    assert_eq!(entries[0].attr("count"), Some("6"));
    assert_eq!(entries[1].attr("key"), Some("Put"));
    assert_eq!(entries[1].attr("count"), Some("3"));
}

#[test]
fn where_clause_filters_before_the_sketch_leaves() {
    let mut monitor = monitor_over(&["a.com", "b.com"]);
    let handle = monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
               where $c.callMethod = "Get"
               return topk($c.caller, 3)
               by email "ops@example.org";"#,
        )
        .unwrap();
    for i in 0..4u64 {
        monitor.inject_soap_call(&SoapCall::new(i, "x.org", "a.com", "Get", 10, 12));
    }
    for i in 4..9u64 {
        // Filtered out: wrong method, must never reach the sketch.
        monitor.inject_soap_call(&SoapCall::new(i, "y.org", "b.com", "Put", 10, 12));
    }
    monitor.run_until_idle();
    let answer = last_answer(&monitor, &handle);
    assert_eq!(answer.attr("total"), Some("4"));
    let entries: Vec<&Element> = answer.children_named("entry").collect();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].attr("key"), Some("x.org"));
}

#[test]
fn quantile_aggregate_answers_within_relative_accuracy() {
    let mut monitor = monitor_over(&["a.com", "b.com"]);
    let handle = monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
               return quantile($c.duration, 0.5)
               by email "ops@example.org";"#,
        )
        .unwrap();
    // Durations 1..=100 over two peers: the exact median is 50.
    for i in 1..=100u64 {
        let callee = if i % 2 == 0 { "a.com" } else { "b.com" };
        monitor.inject_soap_call(&call(i, callee, "Get", i));
    }
    monitor.run_until_idle();
    let answer = last_answer(&monitor, &handle);
    assert_eq!(answer.attr("kind"), Some("quantile"));
    assert_eq!(answer.attr("q"), Some("500"));
    let value: f64 = answer.attr("value").unwrap().parse().unwrap();
    assert!(
        (value - 50.0).abs() / 50.0 < 0.05,
        "p50 of 1..=100 must be within 5% of 50, got {value}"
    );
}

#[test]
fn entropy_aggregate_measures_key_skew() {
    let mut monitor = monitor_over(&["a.com", "b.com"]);
    let uniform = r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                     return entropy($c.callMethod)
                     by email "ops@example.org";"#;
    let handle = monitor.submit("hub", uniform).unwrap();
    // Four equally likely methods: entropy is exactly 2 bits.
    for (i, method) in ["Get", "Put", "Scan", "List"]
        .iter()
        .cycle()
        .take(40)
        .enumerate()
    {
        let callee = if i % 2 == 0 { "a.com" } else { "b.com" };
        monitor.inject_soap_call(&call(i as u64, callee, method, 5));
    }
    monitor.run_until_idle();
    let answer = last_answer(&monitor, &handle);
    assert_eq!(answer.attr("kind"), Some("entropy"));
    let bits: f64 = answer.attr("bits").unwrap().parse().unwrap();
    assert!(
        (bits - 2.0).abs() < 1e-9,
        "four uniform keys carry exactly 2 bits, got {bits}"
    );
}

#[test]
fn merge_tree_handles_more_branches_than_the_fanin() {
    // 40 monitored peers > SKETCH_MERGE_FANIN (16): the planner inserts an
    // interior merge level, and the answer still counts every event.
    let peers: Vec<String> = (0..40).map(|i| format!("peer{i}.net")).collect();
    let mut monitor = monitor_over(&peers.iter().map(String::as_str).collect::<Vec<_>>());
    let source_list = peers
        .iter()
        .map(|p| format!("<p>{p}</p>"))
        .collect::<Vec<_>>()
        .join(" ");
    let text = format!(
        r#"for $c in inCOM({source_list})
           return topk($c.callMethod, 1)
           by email "ops@example.org";"#
    );
    let handle = monitor.submit("hub", &text).unwrap();
    let report = monitor.report(&handle).unwrap();
    assert!(
        report.tasks > 40 + 1 + 1,
        "40 sources + 40 leaves + interior merges + root, got {} tasks",
        report.tasks
    );
    for (i, peer) in peers.iter().enumerate() {
        monitor.inject_soap_call(&call(i as u64, peer, "Get", 5));
    }
    monitor.run_until_idle();
    let answer = last_answer(&monitor, &handle);
    assert_eq!(answer.attr("total"), Some("40"));
    let top = answer.children_named("entry").next().unwrap();
    assert_eq!(top.attr("key"), Some("Get"));
    assert_eq!(top.attr("count"), Some("40"));
}

#[test]
fn partials_on_the_wire_stay_bounded_as_events_grow() {
    // The sketch plane's point: wire bytes scale with rounds × tree edges,
    // not with the number of observed events.  Ten times the events in the
    // same number of rounds must not move ten times the bytes.
    let bytes_for = |events_per_round: u64| -> u64 {
        let mut monitor = monitor_over(&["a.com", "b.com"]);
        monitor
            .submit(
                "hub",
                r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                   return topk($c.callMethod, 2)
                   by email "ops@example.org";"#,
            )
            .unwrap();
        for round in 0..3u64 {
            for i in 0..events_per_round {
                let callee = if i % 2 == 0 { "a.com" } else { "b.com" };
                monitor.inject_soap_call(&call(round * 1_000 + i, callee, "Get", 5));
            }
            monitor.run_until_idle();
        }
        monitor.network_stats().total_bytes
    };
    let small = bytes_for(10);
    let large = bytes_for(100);
    assert!(
        large < small * 2,
        "10x the events must not even double the wire bytes: {small} -> {large}"
    );
}

#[test]
fn every_cadence_batches_emissions_and_stamps_sequence_numbers() {
    let mut monitor = monitor_over(&["a.com"]);
    let handle = monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p>)
               return topk($c.callMethod, 1) every 3
               by email "ops@example.org";"#,
        )
        .unwrap();
    monitor.inject_soap_call(&call(1, "a.com", "Get", 5));
    monitor.run_until_idle();
    let results = monitor.results(&handle);
    assert_eq!(
        results.len(),
        1,
        "run_until_idle ticks through the cadence to exactly one emission"
    );
    assert_eq!(results[0].attr("seq"), Some("1"));
    monitor.inject_soap_call(&call(2, "a.com", "Get", 5));
    monitor.run_until_idle();
    let results = monitor.results(&handle);
    assert_eq!(results.len(), 2);
    assert_eq!(results[1].attr("seq"), Some("2"));
    assert_eq!(
        results[1].attr("total"),
        Some("2"),
        "the root sketch accumulates across emissions"
    );
}

#[test]
fn self_monitoring_answers_hottest_channels_and_latency_quantiles() {
    let mut monitor = Monitor::new(MonitorConfig {
        self_monitor: true,
        ..MonitorConfig::default()
    });
    for peer in ["hub", "a.com", "b.com"] {
        monitor.add_peer(peer);
    }
    // A normal subscription generating monitored traffic.
    monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
               return <seen method="{$c.callMethod}"/>
               by email "ops@example.org";"#,
        )
        .unwrap();
    // Aggregates over the monitor's own metrics stream: hottest channels by
    // (delta) bytes, and the p99 of the per-round dispatch latency.
    let hottest = monitor
        .submit(
            "hub",
            r#"for $m in monStats(<p>self</p>)
               where $m.kind = "channel"
               return topk($m.channel, 3, $m.bytes)
               by email "ops@example.org";"#,
        )
        .unwrap();
    let p99 = monitor
        .submit(
            "hub",
            r#"for $m in monStats(<p>self</p>)
               where $m.kind = "dispatchRound"
               return quantile($m.micros, 0.99)
               by email "ops@example.org";"#,
        )
        .unwrap();
    for i in 0..30u64 {
        let callee = if i % 3 == 0 { "b.com" } else { "a.com" };
        monitor.inject_soap_call(&call(i, callee, "Get", 5));
    }
    monitor.run_until_idle();
    // The next quiescence pass snapshots the stats the traffic produced.
    monitor.run_until_idle();

    let hot = last_answer(&monitor, &hottest);
    assert_eq!(hot.attr("kind"), Some("topk"));
    let entries: Vec<&Element> = hot.children_named("entry").collect();
    assert!(
        !entries.is_empty(),
        "traffic must surface at least one measured channel"
    );
    for entry in &entries {
        let key = entry.attr("key").unwrap();
        assert!(
            key.contains('@'),
            "channel keys are #stream@peer identities, got {key}"
        );
    }
    // Entries arrive weighted by bytes, heaviest first.
    let weights: Vec<u64> = entries
        .iter()
        .map(|e| e.attr("count").unwrap().parse().unwrap())
        .collect();
    assert!(weights.windows(2).all(|w| w[0] >= w[1]));

    let latency = last_answer(&monitor, &p99);
    assert_eq!(latency.attr("kind"), Some("quantile"));
    assert_eq!(latency.attr("q"), Some("990"));
    let value: f64 = latency.attr("value").unwrap().parse().unwrap();
    assert!(value >= 0.0, "p99 dispatch latency must parse, got {value}");
}

#[test]
fn aggregates_survive_concurrent_subscriptions_and_unsubscribe() {
    let mut monitor = monitor_over(&["a.com", "b.com"]);
    let text = r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                  return topk($c.callMethod, 2)
                  by email "ops@example.org";"#;
    let first = monitor.submit("hub", text).unwrap();
    // Events seen only by the first subscription.
    monitor.inject_soap_call(&call(1, "a.com", "Get", 5));
    monitor.run_until_idle();
    // A second, identical aggregate deployed mid-stream starts from zero.
    let second = monitor.submit("hub", text).unwrap();
    monitor.inject_soap_call(&call(2, "b.com", "Put", 5));
    monitor.run_until_idle();
    let first_answer = last_answer(&monitor, &first);
    assert_eq!(first_answer.attr("total"), Some("2"));
    let second_answer = last_answer(&monitor, &second);
    assert_eq!(
        second_answer.attr("total"),
        Some("1"),
        "a mid-stream subscriber must only count post-deployment events"
    );
    // Tearing the first down leaves the second running.
    assert!(monitor.unsubscribe(&first));
    monitor.inject_soap_call(&call(3, "a.com", "Put", 5));
    monitor.run_until_idle();
    let second_answer = last_answer(&monitor, &second);
    assert_eq!(second_answer.attr("total"), Some("2"));
}

/// Host visits and rounds of one burst — three calls at three peers — over
/// an aggregate spanning `peers` monitored peers.
fn burst_cost(peers: usize) -> (u64, u64) {
    let names: Vec<String> = (0..peers).map(|i| format!("s{i}.net")).collect();
    let mut monitor = monitor_over(&names.iter().map(String::as_str).collect::<Vec<_>>());
    let sources: String = names.iter().map(|p| format!("<p>{p}</p>")).collect();
    let handle = monitor
        .submit(
            "hub",
            &format!(
                "for $c in inCOM({sources}) return topk($c.callMethod, 2) \
                 by email \"ops@example.org\";"
            ),
        )
        .unwrap();
    let before = monitor.dispatch_stats().host_visits;
    for (i, callee) in names.iter().take(3).enumerate() {
        monitor.inject_soap_call(&call(i as u64, callee, "Get", 5));
    }
    let mut rounds = 1;
    while monitor.tick() {
        rounds += 1;
    }
    assert_eq!(last_answer(&monitor, &handle).attr("total"), Some("3"));
    (monitor.dispatch_stats().host_visits - before, rounds)
}

/// A round costs what it carries: the hosts its phases visit are bounded by
/// the hosts that had something to do, and the count — which repeats
/// exactly, where a timing could not — does not move when the idle
/// population doubles.
#[test]
fn round_phases_visit_busy_hosts_not_deployed_ones() {
    let (visits, rounds) = burst_cost(2_000);
    // Three leaves plus the merge path to the root: fewer than eight hosts
    // ever have something to do, and none of them in every round.
    assert!(
        visits <= 2 * 8 * rounds,
        "{visits} host visits over {rounds} rounds for a 3-peer burst"
    );
    assert_eq!(
        burst_cost(4_000),
        (visits, rounds),
        "doubling the idle peers changed what a round visits"
    );
}

/// FNV-1a over a byte stream, to compare outcomes without embedding them.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The three SketchStorm aggregates (`topk`, `entropy`, `quantile`) over
/// 1 000 monitored peers: merge trees three levels deep, with local and
/// cross-peer edges.
fn storm_monitor() -> (Monitor, SketchStorm, Vec<SubscriptionHandle>) {
    let storm = SketchStorm::sized(1, 1_000);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }
    let handles = storm
        .aggregate_subscriptions(3, 0.99)
        .iter()
        .map(|text| {
            monitor
                .submit(storm.manager(), text)
                .expect("aggregate subscriptions deploy")
        })
        .collect();
    (monitor, storm, handles)
}

/// Ticks until the monitor reports no work; returns the ticks that did some.
fn ticks_until_idle(monitor: &mut Monitor) -> usize {
    let mut ticks = 0;
    while monitor.tick() {
        ticks += 1;
    }
    ticks
}

/// Everything a round may not change, as text: the network's totals and a
/// digest of its per-peer traffic, the operator invocations and host visits
/// so far, every answer delivered so far (counted and digested) and the
/// latest answer of each aggregate in full.
fn storm_outcome(monitor: &Monitor, handles: &[SubscriptionHandle]) -> String {
    let net = monitor.network_stats();
    let dispatch = monitor.dispatch_stats();
    let mut peers = 0xcbf2_9ce4_8422_2325u64;
    for (peer, t) in net.per_peer() {
        let line = format!(
            "{peer} {} {} {} {} {} {}|",
            t.messages_in, t.messages_out, t.bytes_in, t.bytes_out, t.dropped_in, t.dropped_out
        );
        fnv(&mut peers, line.as_bytes());
    }
    let mut out = format!(
        "net: messages {} bytes {} channel {} control {} dropped {} saved {}, peers {peers:016x}\n\
         invocations {} host visits {} dropped by failure {}\n",
        net.total_messages,
        net.total_bytes,
        net.channel_messages,
        net.control_messages,
        net.dropped_messages,
        net.multicast_saved_messages,
        monitor.operator_invocations,
        dispatch.host_visits,
        dispatch.dropped_by_failure,
    );
    let (mut answers, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for handle in handles {
        let results = monitor.results(handle);
        for answer in &results {
            answers += 1;
            fnv(&mut digest, answer.to_xml().as_bytes());
        }
        fnv(&mut digest, b"|");
        let last = results.last().map(|r| r.to_xml()).unwrap_or_default();
        out.push_str(&format!("last: {last}\n"));
    }
    out.push_str(&format!("answers: {answers}, digest {digest:016x}\n"));
    out
}

/// Three rounds of 1 000 calls, each ticked until idle: the outcome after
/// each round, each round's plain deliveries, and the partials that reached
/// their parent stage over the network in it (every channel message of this
/// deployment is one).
fn drive_storm() -> (String, [u64; 3], [u64; 3]) {
    let (mut monitor, mut storm, handles) = storm_monitor();
    let mut outcome = String::new();
    let (mut plain, mut over_network) = ([0; 3], [0; 3]);
    for round in 0..3 {
        let (plain_before, channel_before) = (
            monitor.dispatch_stats().plain_deliveries,
            monitor.network_stats().channel_messages,
        );
        for call in storm.calls(1_000) {
            monitor.inject_soap_call(&call);
        }
        let ticks = ticks_until_idle(&mut monitor);
        plain[round] = monitor.dispatch_stats().plain_deliveries - plain_before;
        over_network[round] = monitor.network_stats().channel_messages - channel_before;
        outcome.push_str(&format!("--- round {round}: {ticks} ticks\n"));
        outcome.push_str(&storm_outcome(&monitor, &handles));
    }
    (outcome, plain, over_network)
}

/// The storm's outcome at the parent commit of the by-value partial path
/// (8aa5ed6), where every partial was serialized at its stage, shipped or
/// enqueued as an XML item and parsed back by the parent stage — captured by
/// running this very test there.  To re-record this constant,
/// `PARENT_PLAIN_DELIVERIES` and `PARENT_FAILURE_OUTCOME`, run `cargo test -q
/// --release -p p2pmon-core --test sketch_aggregates -- xml_path --nocapture
/// --test-threads 1`: the two tests print them as they appear in the source.
const PARENT_STORM_OUTCOME: &str = "\
--- round 0: 4 ticks
net: messages 600 bytes 162998 channel 600 control 0 dropped 0 saved 2000, peers 997d6e7fdabf5c8b
invocations 6642 host visits 1091 dropped by failure 0
last: <aggregate kind=\"topk\" total=\"1000\" seq=\"1\"><entry rank=\"1\" key=\"Method0\" count=\"430\"/><entry rank=\"2\" key=\"Method1\" count=\"182\"/><entry rank=\"3\" key=\"Method2\" count=\"106\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"1000\" bits=\"2.461955\" seq=\"1\"/>
last: <aggregate kind=\"quantile\" total=\"1000\" q=\"990\" value=\"198\" seq=\"1\"/>
answers: 3, digest b7f10a39b5d3f6ce
--- round 1: 4 ticks
net: messages 1197 bytes 331118 channel 1197 control 0 dropped 0 saved 4000, peers eb3833fe14ca2ab8
invocations 13281 host visits 2177 dropped by failure 0
last: <aggregate kind=\"topk\" total=\"2000\" seq=\"2\"><entry rank=\"1\" key=\"Method0\" count=\"846\"/><entry rank=\"2\" key=\"Method1\" count=\"378\"/><entry rank=\"3\" key=\"Method2\" count=\"209\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"2000\" bits=\"2.473475\" seq=\"2\"/>
last: <aggregate kind=\"quantile\" total=\"2000\" q=\"990\" value=\"198\" seq=\"2\"/>
answers: 6, digest bd6f86f1cfc7a01f
--- round 2: 4 ticks
net: messages 1785 bytes 497939 channel 1785 control 0 dropped 0 saved 6000, peers 3154475dfb4a0a73
invocations 19911 host visits 3248 dropped by failure 0
last: <aggregate kind=\"topk\" total=\"3000\" seq=\"3\"><entry rank=\"1\" key=\"Method0\" count=\"1268\"/><entry rank=\"2\" key=\"Method1\" count=\"556\"/><entry rank=\"3\" key=\"Method2\" count=\"320\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"3000\" bits=\"2.482213\" seq=\"3\"/>
last: <aggregate kind=\"quantile\" total=\"3000\" q=\"990\" value=\"198\" seq=\"3\"/>
answers: 9, digest 13894871e4271e4b
";

/// Each round's `plain_deliveries` at that commit, where every partial
/// delivered over the network was also one.
const PARENT_PLAIN_DELIVERIES: [u64; 3] = [3_600, 3_597, 3_588];

/// A partial travels as a value and is charged its XML form: answers, wire
/// bytes and messages, per-peer traffic, ticks, invocations and host visits
/// are the XML path's, bit for bit.  Only the item plane shrinks — by one
/// plain delivery per partial that arrived over the network.
#[test]
fn partials_by_value_reproduce_the_xml_path_bit_for_bit() {
    let (outcome, plain, over_network) = drive_storm();
    println!("PARENT_STORM_OUTCOME:\n{}", outcome.replace('"', "\\\""));
    println!(
        "PARENT_PLAIN_DELIVERIES: {:?}",
        [0, 1, 2].map(|round| plain[round] + over_network[round])
    );
    assert_eq!(outcome, PARENT_STORM_OUTCOME, "outcome:\n{outcome}");
    for round in 0..3 {
        assert!(over_network[round] > 0, "round {round} crossed no partial");
        assert_eq!(
            plain[round],
            PARENT_PLAIN_DELIVERIES[round] - over_network[round],
            "round {round}: plain deliveries {plain:?}, partials over the network {over_network:?}"
        );
    }
}

/// The failure variant: a merge host goes down right after the round's
/// first flush, stays down for two more ticks and recovers.  What the flush
/// had handed it — its own leaves' partials and those delivered over the
/// network — is lost and counted exactly as the XML path counted it, and
/// the roots' totals miss exactly what the XML path's missed.
fn drive_storm_with_a_failed_merge_host() -> String {
    let (mut monitor, mut storm, handles) = storm_monitor();
    // Merges sit on the first peer of each chunk of 16 leaves: `s16.net`
    // hosts, per aggregate, its own source and leaf plus the merge of
    // leaves 16–31.
    let merge_host = "s16.net";
    let hosted = |monitor: &Monitor, peer: &str| monitor.hosted_tasks(peer);
    assert!(hosted(&monitor, merge_host) > hosted(&monitor, "s17.net"));
    let mut outcome = String::new();
    for round in 0..3 {
        for call in storm.calls(1_000) {
            monitor.inject_soap_call(&call);
        }
        let mut ticks = 0;
        if round == 1 {
            assert!(monitor.tick(), "the round's first tick flushes the leaves");
            monitor.fail_peer(merge_host);
            monitor.tick();
            monitor.tick();
            monitor.recover_peer(merge_host);
            ticks = 3;
            assert!(
                monitor.dispatch_stats().dropped_by_failure > 0,
                "the failed merge host held partials"
            );
        }
        ticks += ticks_until_idle(&mut monitor);
        outcome.push_str(&format!("--- round {round}: {ticks} ticks\n"));
        outcome.push_str(&storm_outcome(&monitor, &handles));
    }
    outcome
}

/// [`drive_storm_with_a_failed_merge_host`] at the parent commit.
const PARENT_FAILURE_OUTCOME: &str = "\
--- round 0: 4 ticks
net: messages 600 bytes 162998 channel 600 control 0 dropped 0 saved 2000, peers 997d6e7fdabf5c8b
invocations 6642 host visits 1091 dropped by failure 0
last: <aggregate kind=\"topk\" total=\"1000\" seq=\"1\"><entry rank=\"1\" key=\"Method0\" count=\"430\"/><entry rank=\"2\" key=\"Method1\" count=\"182\"/><entry rank=\"3\" key=\"Method2\" count=\"106\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"1000\" bits=\"2.461955\" seq=\"1\"/>
last: <aggregate kind=\"quantile\" total=\"1000\" q=\"990\" value=\"198\" seq=\"1\"/>
answers: 3, digest b7f10a39b5d3f6ce
--- round 1: 4 ticks
net: messages 1194 bytes 329127 channel 1194 control 0 dropped 0 saved 4000, peers 66a36709792afcbc
invocations 13230 host visits 2177 dropped by failure 48
last: <aggregate kind=\"topk\" total=\"1908\" seq=\"2\"><entry rank=\"1\" key=\"Method0\" count=\"805\"/><entry rank=\"2\" key=\"Method1\" count=\"359\"/><entry rank=\"3\" key=\"Method2\" count=\"200\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"1908\" bits=\"2.476067\" seq=\"2\"/>
last: <aggregate kind=\"quantile\" total=\"1908\" q=\"990\" value=\"198\" seq=\"2\"/>
answers: 6, digest 50fd49bed456d3c8
--- round 2: 4 ticks
net: messages 1782 bytes 495948 channel 1782 control 0 dropped 0 saved 6000, peers 0131a26f1c4b29b7
invocations 19860 host visits 3248 dropped by failure 48
last: <aggregate kind=\"topk\" total=\"2908\" seq=\"3\"><entry rank=\"1\" key=\"Method0\" count=\"1227\"/><entry rank=\"2\" key=\"Method1\" count=\"537\"/><entry rank=\"3\" key=\"Method2\" count=\"311\"/></aggregate>
last: <aggregate kind=\"entropy\" total=\"2908\" bits=\"2.484363\" seq=\"3\"/>
last: <aggregate kind=\"quantile\" total=\"2908\" q=\"990\" value=\"198\" seq=\"3\"/>
answers: 9, digest 1bcdb9b042e52640
";

#[test]
fn a_failed_merge_host_loses_and_counts_what_the_xml_path_did() {
    let outcome = drive_storm_with_a_failed_merge_host();
    println!("PARENT_FAILURE_OUTCOME:\n{}", outcome.replace('"', "\\\""));
    assert_eq!(outcome, PARENT_FAILURE_OUTCOME, "outcome:\n{outcome}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Degenerate aggregate input — a zero weight, an empty or absent key, a
    /// non-numeric `quantile` argument, an alert that reaches no leaf — may
    /// produce no answer, but must never keep the round loop alive: a sketch
    /// stage is pending only while a flush would produce output.
    #[test]
    fn degenerate_aggregate_input_goes_idle_within_a_round_budget(
        kind in 0usize..4,
        every in 1usize..4,
        events in proptest::collection::vec((0usize..3, 0usize..3, 0u64..3), 1..12),
    ) {
        const ROUND_BUDGET: usize = 64;
        let aggregate = [
            "topk($c.callMethod, 3, $c.duration)", // weight 0 when duration is 0
            "entropy($c.callMethod)",              // empty key when the method is ""
            "quantile($c.callMethod, 0.5)",        // non-numeric observations
            "topk($c.noSuchAttr, 2)",              // the key attribute never exists
        ][kind];
        // `idle.com` is registered but not monitored: its calls match no leaf.
        let mut monitor = monitor_over(&["a.com", "b.com", "idle.com"]);
        let handle = monitor
            .submit(
                "hub",
                &format!(
                    r#"for $c in inCOM(<p>a.com</p> <p>b.com</p>)
                       return {aggregate} every {every}
                       by email "ops@example.org";"#
                ),
            )
            .unwrap();
        let mut weighted_total = 0;
        for (i, &(callee, method, duration)) in events.iter().enumerate() {
            let callee = ["a.com", "b.com", "idle.com"][callee];
            let method = ["Get", "", "12"][method];
            if callee != "idle.com" && !method.is_empty() {
                weighted_total += duration;
            }
            monitor.inject_soap_call(&call(i as u64, callee, method, duration));
        }
        let rounds = (0..ROUND_BUDGET).take_while(|_| monitor.tick()).count();
        prop_assert!(
            rounds < ROUND_BUDGET,
            "`{}` still reports work after {} rounds over {:?}",
            aggregate, ROUND_BUDGET, events
        );
        // Dropping the degenerate updates loses none of the real ones.
        if kind == 0 && weighted_total > 0 {
            let total = weighted_total.to_string();
            prop_assert_eq!(last_answer(&monitor, &handle).attr("total"), Some(total.as_str()));
        }
    }
}
