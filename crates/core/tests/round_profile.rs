//! The alert round's own phase profile: the work each phase of
//! [`Monitor::tick`] did, round by round, pinned for one batch of three
//! shapes at 64 peers or subscriptions — the shapes of the end-to-end
//! benchmark's `alert_storm`, `filter_storm` and `sketch_rollup`.  The
//! timings beside them are printed, never asserted.
//!
//! A round's phases are `drain_alerters` (alerts drained),
//! `process_pending` (operator invocations), `flush_sketches` (sketch stage
//! outputs), `deliver_network` (messages delivered) and `retire_idle_hosts`
//! (hosts that left the ready list).  The counts are what a round *does*: a
//! change to how the monitor stores or routes what it touches must leave
//! them where they are, and a count that moves names the phase whose work
//! changed.  To re-record, run `cargo test -q --release -p p2pmon-core
//! --test round_profile -- --nocapture`: each test prints its constant.
//!
//! `ALERT_STORM` moved once on purpose: a pass-through plan root with no
//! tap on its output channel stopped running as an operator, and its host
//! hands each item straight to the sink (a sink-target delivery,
//! `DispatchStats::sink_target_deliveries`).  `PARENT` keeps the rows
//! recorded before, and each round must still account for every
//! invocation it made: parent invocations = invocations + sink-target
//! deliveries, every other phase unchanged.  The other shapes have no
//! untapped pass-through root and deliver to no sink target.

use p2pmon_alerters::SoapCall;
use p2pmon_core::{LifetimeProfile, Monitor, MonitorConfig};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{MassiveStorm, SketchStorm};
use p2pmon_xmlkit::Element;

/// The phases of a round, in the order a tick runs them.
const PHASES: [&str; 5] = [
    "core.round.drain_alerters",
    "core.round.process_pending",
    "core.round.flush_sketches",
    "core.round.deliver_network",
    "core.round.retire_idle_hosts",
];

/// Ticks until the monitor reports no work and returns every round's work
/// counts, checking that the cumulative profile is their sum, beside every
/// round's sink-target deliveries.
fn rounds(monitor: &mut Monitor, name: &str) -> (Vec<[u64; 5]>, Vec<u64>) {
    let before = work(monitor.round_profile());
    let mut rounds = Vec::new();
    let mut sinks = Vec::new();
    loop {
        let delivered = monitor.dispatch_stats().sink_target_deliveries;
        let busy = monitor.tick();
        sinks.push(monitor.dispatch_stats().sink_target_deliveries - delivered);
        let profile = monitor.last_round_profile();
        let names: Vec<_> = profile.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, PHASES, "every phase is listed, in order");
        println!("{name} round {}:\n{profile}", rounds.len());
        let mut row = [0; 5];
        row.copy_from_slice(&work(profile));
        rounds.push(row);
        if !busy {
            break;
        }
    }
    let after = work(monitor.round_profile());
    for (phase, name) in PHASES.iter().enumerate() {
        let summed: u64 = rounds.iter().map(|row| row[phase]).sum();
        assert_eq!(
            after[phase] - before[phase],
            summed,
            "{name}: the total sums the rounds"
        );
    }
    println!("const {}: &[[u64; 5]] = &{rounds:?};", name.to_uppercase());
    println!("sink-target deliveries per round: {sinks:?}");
    (rounds, sinks)
}

/// A profile's work counts; all zero before the first round.
fn work(profile: &LifetimeProfile) -> Vec<u64> {
    match profile.phases() {
        [] => vec![0; PHASES.len()],
        phases => phases.iter().map(|p| p.work).collect(),
    }
}

/// `alert_storm`'s shape: `MassiveStorm` subscriptions, where reuse leaves
/// two selects per hub, and one batch of 256 calls.
const ALERT_STORM: &[[u64; 5]] = &[[256, 292, 0, 258, 1], [0, 113, 0, 0, 1], [0, 0, 0, 0, 0]];

/// The same batch's rows as recorded while every pass-through root ran as
/// an operator (see the header).
const PARENT: &[[u64; 5]] = &[[256, 292, 0, 258, 1], [0, 939, 0, 0, 1], [0, 0, 0, 0, 0]];

#[test]
fn an_alert_storm_batch_does_the_pinned_work_per_round() {
    let mut storm = MassiveStorm::sized(1, 64);
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
    for i in 0..64 {
        monitor
            .submit(&storm.manager_of(i), &storm.subscription(i))
            .expect("storm subscription deploys");
    }
    for call in storm.calls(256) {
        monitor.inject_soap_call(&call);
    }
    let (rows, sinks) = rounds(&mut monitor, "alert_storm");
    assert_eq!(rows, ALERT_STORM);
    assert_eq!(rows.len(), PARENT.len());
    for (round, ((row, parent), sinks)) in rows.iter().zip(PARENT).zip(&sinks).enumerate() {
        assert_eq!(
            parent[1],
            row[1] + sinks,
            "round {round}: every parent invocation still runs or reaches a sink target"
        );
        for phase in [0, 2, 3, 4] {
            assert_eq!(
                row[phase], parent[phase],
                "round {round}: {}",
                PHASES[phase]
            );
        }
    }
}

/// A splitmix64 step: the filter storm's deterministic choices.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `filter_storm`'s shape, scaled down: 64 distinct WHERE clauses over 4
/// hubs (method, callee and duration threshold, every other one with a tree
/// pattern), which reuse cannot collapse, and one batch of 128 calls with
/// bodies.
const FILTER_STORM: &[[u64; 5]] = &[[128, 124, 0, 62, 4], [0, 0, 0, 0, 0]];

#[test]
fn a_filter_storm_batch_does_the_pinned_work_per_round() {
    const HUBS: usize = 4;
    const KEYS: usize = 4;
    let hub = |h: usize| format!("f-hub{h}.net");
    let callee = |j: usize| format!("http://svc{j}.net");
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("f-mgr.org");
    for h in 0..HUBS {
        monitor.add_peer(hub(h));
    }
    for i in 0..64 {
        let slot = i / HUBS;
        let mut text = format!(
            "for $c in outCOM(<p>{}</p>)\nwhere $c.callMethod = \"M{}\" and \
             $c.callee = \"{}\" and $c.duration > {}",
            hub(i % HUBS),
            slot % KEYS,
            callee(slot / KEYS % KEYS),
            8 + (slot % 3) * 4
        );
        if slot.is_multiple_of(2) {
            text.push_str(&format!(" and $c//order/item{}", slot / 2 % KEYS));
        }
        text.push_str(&format!(
            "\nreturn <hit sub=\"f{i}\"/>\nby email \"f{i}@example.org\";"
        ));
        monitor
            .submit("f-mgr.org", &text)
            .expect("filter subscription deploys");
    }
    let mut state = 1u64;
    let mut clock = 1_000;
    for id in 0..128 {
        let pick = |state: &mut u64, n: usize| (next(state) % n as u64) as usize;
        let caller = format!("http://{}", hub(pick(&mut state, HUBS)));
        let method = format!("M{}", pick(&mut state, KEYS));
        let to = callee(pick(&mut state, KEYS));
        clock += 1 + pick(&mut state, 20) as u64;
        let duration = 1 + pick(&mut state, 40) as u64;
        let mut body = Element::new("order");
        body.push_element(Element::new(format!("item{}", pick(&mut state, KEYS))));
        let call = SoapCall::new(id, caller, to, method, clock, clock + duration).with_body(body);
        monitor.inject_soap_call(&call);
    }
    let (rows, sinks) = rounds(&mut monitor, "filter_storm");
    assert_eq!(rows, FILTER_STORM);
    assert!(sinks.iter().all(|&n| n == 0), "no covered subscription");
}

/// `sketch_rollup`'s shape: the three aggregates of a 64-peer sketch storm
/// (merge trees over every peer) and one batch of 1 000 calls.
const SKETCH_ROLLUP: &[[u64; 5]] = &[
    [1000, 6000, 192, 180, 60],
    [0, 192, 12, 12, 4],
    [0, 12, 3, 0, 1],
    [0, 0, 0, 0, 0],
];

#[test]
fn a_sketch_rollup_batch_does_the_pinned_work_per_round() {
    let mut storm = SketchStorm::sized(1, 64);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }
    for text in storm.aggregate_subscriptions(3, 0.99) {
        monitor
            .submit(storm.manager(), &text)
            .expect("aggregate deploys");
    }
    for call in storm.calls(1_000) {
        monitor.inject_soap_call(&call);
    }
    let (rows, sinks) = rounds(&mut monitor, "sketch_rollup");
    assert_eq!(rows, SKETCH_ROLLUP);
    assert!(sinks.iter().all(|&n| n == 0), "no pass-through root");
}

/// With self-monitoring on, every round leaves one `dispatchRound` metric:
/// its `process_pending` time, read off the round's profile.
#[test]
fn each_round_leaves_one_dispatch_round_metric() {
    let mut monitor = Monitor::new(MonitorConfig {
        ..MonitorConfig::default()
    });
    for peer in ["hub", "a.com"] {
        monitor.add_peer(peer);
    }
    let latencies = monitor
        .submit(
            "hub",
            r#"for $m in monStats(<p>self</p>)
               where $m.kind = "dispatchRound"
               return quantile($m.micros, 0.5)
               by email "ops@example.org";"#,
        )
        .expect("deploys");
    monitor
        .submit(
            "hub",
            r#"for $c in inCOM(<p>a.com</p>) return <seen/> by email "ops@example.org";"#,
        )
        .expect("deploys");
    monitor.inject_soap_call(&SoapCall::new(1, "client.org", "a.com", "Get", 0, 5));
    let before = monitor.round_profile().phases().len();
    assert_eq!(before, 0, "no round has run");
    let mut ticks = 0;
    while monitor.tick() {
        ticks += 1;
    }
    ticks += 1;
    // The next snapshot reports one metric per round run so far.
    monitor.run_until_idle();
    let answer = monitor.results(&latencies);
    let answer = answer.last().expect("the quantile answers");
    assert_eq!(answer.attr("total"), Some(ticks.to_string().as_str()));
}
