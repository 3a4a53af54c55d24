//! What an aggregate costs the monitor's tables follows its sources, not
//! the stages of its merge tree: a submit registers each source once and
//! mints the names of its tasks (the sources and the root), never one for a
//! leaf or a merge, and its teardown reads back exactly those
//! registrations.  The operator counts still count every stage.
//!
//! One `#[test]` in its own binary, so no other thread interns into the
//! process-wide name table while this one counts.

use p2pmon_core::placement::SKETCH_MERGE_FANIN;
use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_workloads::SketchStorm;
use p2pmon_xmlkit::intern::interned_count;

/// Leaf and merge stages of a merge tree over `leaves` inputs.
fn stages(leaves: usize) -> usize {
    let mut level = leaves;
    let mut stages = level;
    while level > SKETCH_MERGE_FANIN {
        level = level.div_ceil(SKETCH_MERGE_FANIN);
        stages += level;
    }
    stages
}

#[test]
fn an_aggregate_registers_and_names_its_sources_not_its_stages() {
    for n in [256, 1_024] {
        let storm = SketchStorm::sized(1, n);
        let mut monitor = Monitor::new(MonitorConfig {
            dht_nodes: storm.dht_nodes(),
            ..MonitorConfig::default()
        });
        monitor.add_peer(storm.manager());
        for peer in &storm.monitored_peers {
            monitor.add_peer(peer.as_str());
        }
        let text = &storm.aggregate_subscriptions(3, 0.99)[0];
        let names = interned_count();
        let handle = monitor
            .submit(storm.manager(), text)
            .expect("aggregate deploys");
        let interned = interned_count() - names;

        assert_eq!(
            monitor.routing_registrations(),
            n,
            "{n} peers: one registration per source, none per tree edge"
        );
        // The n sources' and the root's channel names, and a handful the
        // first submit of the process meets (a function's source stream, a
        // sink address); one name per leaf or merge would add over n.
        assert!(
            interned <= n + 1 + 8,
            "{n} peers: the submit interned {interned} names"
        );
        assert_eq!(
            monitor.operator_count(),
            n + stages(n) + 1,
            "{n} peers: sources, stages and the root all count as operators"
        );
        let hosted: usize = monitor
            .peers()
            .iter()
            .map(|peer| monitor.hosted_tasks(peer))
            .sum();
        assert_eq!(hosted, monitor.operator_count());

        assert!(monitor.unsubscribe(&handle));
        let retract = monitor.last_unsubscribe_profile().phases()[2];
        assert_eq!(retract.name, "core.unsubscribe.retract");
        assert_eq!(
            retract.work, n as u64,
            "{n} peers: the retraction reads the sources' registrations"
        );
        assert_eq!(monitor.routing_registrations(), 0);
        assert_eq!(monitor.operator_count(), 0);
    }
}
