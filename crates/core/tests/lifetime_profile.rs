//! The subscription lifetime's own phase profile: the work each phase of a
//! submit and of a teardown did, pinned for the three aggregates of a
//! 64-peer sketch storm.  The timings beside them are printed, never
//! asserted.
//!
//! The work counts are what the phases *do*, independent of how the monitor
//! stores what they touch: a change to the operator store, the routing
//! table or the host map must leave every count where it is, and a count
//! that moves names the phase whose work changed.
//!
//! Re-recorded when an aggregate's leaf and merge stages stopped being
//! tasks and became one merge tree deployed with its root: `place`,
//! `output_channels` and `install` went from 133 (64 sources, 64 leaves, 4
//! merges, the root) to 65 (the sources and the root), and `retract` from
//! 128/192/128 to 64/128/64 — the 64 channel registrations of the tree's
//! cross-peer edges are gone.  `remove` still counts every operator
//! removed, the stages with their root (133).  To re-record, run `cargo
//! test -q --release -p p2pmon-core --test lifetime_profile -- --nocapture`
//! and read the work column of each printed profile.

use p2pmon_core::{LifetimeProfile, Monitor, MonitorConfig};
use p2pmon_workloads::SketchStorm;

/// Work per submit phase: compile, pushdown, reuse, canonicalize, place,
/// output_channels, install, publish.
const SUBMITS: [[u64; 8]; 3] = [
    [66, 66, 64, 0, 65, 65, 65, 64],
    [66, 66, 65, 64, 65, 65, 65, 0],
    [66, 66, 65, 64, 65, 65, 65, 0],
];

/// Work per teardown phase: owner_release, remove, retract, purge, replica,
/// release.
const TEARDOWNS: [[u64; 6]; 3] = [
    [0, 133, 64, 0, 0, 64],
    [0, 133, 128, 0, 0, 64],
    [0, 133, 64, 0, 0, 64],
];

/// Prints the profile and returns its work counts.
fn work(what: &str, profile: &LifetimeProfile) -> Vec<u64> {
    println!("{what}:\n{profile}");
    profile.phases().iter().map(|p| p.work).collect()
}

#[test]
fn aggregate_lifetimes_do_the_pinned_work_per_phase() {
    let mut storm = SketchStorm::sized(1, 64);
    let mut monitor = Monitor::new(MonitorConfig {
        dht_nodes: storm.dht_nodes(),
        ..MonitorConfig::default()
    });
    monitor.add_peer(storm.manager());
    for peer in &storm.monitored_peers {
        monitor.add_peer(peer.as_str());
    }
    let mut handles = Vec::new();
    let mut submits = Vec::new();
    for text in storm.aggregate_subscriptions(3, 0.99) {
        handles.push(
            monitor
                .submit(storm.manager(), &text)
                .expect("aggregate deploys"),
        );
        submits.push(work("submit", monitor.last_submit_profile()));
    }
    for call in storm.calls(200) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();
    let mut teardowns = Vec::new();
    for handle in &handles {
        assert!(monitor.unsubscribe(handle));
        teardowns.push(work("unsubscribe", monitor.last_unsubscribe_profile()));
    }
    assert_eq!(submits, SUBMITS);
    assert_eq!(teardowns, TEARDOWNS);
    assert_eq!(monitor.operator_count(), 0);
}

/// A plan deployed without the parser has an empty compile phase, and every
/// phase is listed in order either way.
#[test]
fn every_phase_is_listed_in_order() {
    let storm = SketchStorm::sized(2, 8);
    let mut monitor = Monitor::new(MonitorConfig::default());
    let text = &storm.aggregate_subscriptions(3, 0.99)[0];
    let plan = p2pmon_p2pml::compile_subscription(text).expect("compiles");
    let handle = monitor.deploy_plan(storm.manager(), plan);
    let names: Vec<_> = monitor
        .last_submit_profile()
        .phases()
        .iter()
        .map(|p| p.name)
        .collect();
    assert_eq!(
        names,
        [
            "core.submit.compile",
            "core.submit.pushdown",
            "core.submit.reuse",
            "core.submit.canonicalize",
            "core.submit.place",
            "core.submit.output_channels",
            "core.submit.install",
            "core.submit.publish",
        ]
    );
    assert_eq!(monitor.last_submit_profile().phases()[0].work, 0);
    assert!(monitor.last_unsubscribe_profile().phases().is_empty());
    assert!(monitor.unsubscribe(&handle));
    let names: Vec<_> = monitor
        .last_unsubscribe_profile()
        .phases()
        .iter()
        .map(|p| p.name)
        .collect();
    assert_eq!(
        names,
        [
            "core.unsubscribe.owner_release",
            "core.unsubscribe.remove",
            "core.unsubscribe.retract",
            "core.unsubscribe.purge",
            "core.unsubscribe.replica",
            "core.unsubscribe.release",
        ]
    );
}
