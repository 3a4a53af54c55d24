//! The Reuse search's outcome on five storms, against what the search
//! produced when it walked a second plan tree (75120d5).
//!
//! The search covers a plan bottom-up: a node is queried once all its
//! operands are matched, a matched node gets the closest replica as its
//! provider, and every topmost covered subtree becomes one channel
//! subscription.  Each run below submits a script and records, per submit,
//! the `SubscriptionReport`'s `reuse`, `tasks` and `cross_peer_edges`; a run
//! pins the digest of those rows, the DHT's `query_operations` and
//! `ReuseStats::providers_scored`:
//!
//! * the 256-subscription overlapping storm of `churn_mix` (16 shapes over
//!   8 hubs, duplicates spread over 8 clusters of 8 consumer peers), with 64
//!   calls after every 32 submits so replica loads break ties;
//! * the first 1 000 subscriptions of `MassiveStorm::sized(1, 1_000)`;
//! * the three aggregates of a 256-peer `SketchStorm`;
//! * the paired storm (32 unions over two hubs each), whose first shapes
//!   learn per-hub rates before the rest deploy;
//! * a chain of `channel("#…@…")` subscriptions, each publishing the channel
//!   the next one reads, with a watcher on every link.
//!
//! To re-record, run `cargo test -q --release -p p2pmon-core --test
//! reuse_recorded -- --nocapture`: each test prints its constant as it
//! appears in the source.
//!
//! `PAIRED`'s digest was re-recorded when placement's rate weighting was
//! deleted: the later shapes' unions now sit where the task-count rule puts
//! them (the first-listed hub) instead of beside the hotter hub, which moves
//! the peers their outputs and reused channels name.  Its
//! `query_operations` (195) and `providers_scored` (210) did not move, and
//! no other constant did.

use p2pmon_core::{Monitor, MonitorConfig};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm, SketchStorm};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A running digest of every submit's reuse outcome.
struct Recorder {
    digest: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder { digest: FNV_OFFSET }
    }

    /// Submits `text` at `manager` and folds its report into the digest.
    fn submit(&mut self, monitor: &mut Monitor, manager: &str, text: &str) {
        let handle = monitor.submit(manager, text).expect("subscription deploys");
        let report = monitor.report(&handle).expect("report");
        let row = format!(
            "{:?}|{}|{}",
            report.reuse, report.tasks, report.cross_peer_edges
        );
        for b in row.bytes() {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `[digest, query_operations, providers_scored]` of the run, printed
    /// as the constant appears in the source.
    fn finish(self, monitor: &Monitor, name: &str) -> [u64; 3] {
        let pinned = [
            self.digest,
            monitor.dht_stats().query_operations,
            monitor.reuse_stats().providers_scored,
        ];
        println!(
            "const {name}: [u64; 3] = [{:#018x}, {}, {}];",
            pinned[0], pinned[1], pinned[2]
        );
        pinned
    }
}

/// A monitor over `peers` with the storm's latency model.
fn monitor_over<'a>(
    latency: p2pmon_net::LatencyModel,
    dht_nodes: usize,
    peers: impl IntoIterator<Item = &'a String>,
) -> Monitor {
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency,
            ..NetworkConfig::default()
        },
        dht_nodes,
        ..MonitorConfig::default()
    });
    for peer in peers {
        monitor.add_peer(peer.as_str());
    }
    monitor
}

const OVERLAPPING: [u64; 3] = [0x6fdea8b080bd3f25, 746, 2770];

#[test]
fn overlapping_storm_reuses_what_the_parent_reused() {
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    let mut traffic = storm.clone();
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .chain(&storm.consumer_peers)
        .cloned()
        .collect();
    let mut monitor = monitor_over(storm.latency_model(), peers.len(), &peers);
    let mut recorder = Recorder::new();
    for i in 0..256 {
        recorder.submit(&mut monitor, storm.manager_of(i), &storm.subscription(i));
        if i % 32 == 31 {
            for call in traffic.calls(64) {
                monitor.inject_soap_call(&call);
            }
            monitor.run_until_idle();
        }
    }
    assert!(monitor.reuse_stats().hits > 0, "the storm reuses");
    assert_eq!(recorder.finish(&monitor, "OVERLAPPING"), OVERLAPPING);
}

const MASSIVE: [u64; 3] = [0x73770c121caee65f, 2952, 4613];

#[test]
fn massive_storm_reuses_what_the_parent_reused() {
    let storm = MassiveStorm::sized(1, 1_000);
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .cloned()
        .chain(storm.manager_peers())
        .collect();
    let mut monitor = monitor_over(storm.latency_model(), storm.dht_nodes(), &peers);
    let mut recorder = Recorder::new();
    for i in 0..1_000 {
        recorder.submit(&mut monitor, &storm.manager_of(i), &storm.subscription(i));
    }
    assert_eq!(recorder.finish(&monitor, "MASSIVE"), MASSIVE);
}

const SKETCH: [u64; 3] = [0x1a653d9c762637a0, 770, 1024];

#[test]
fn sketch_aggregates_reuse_what_the_parent_reused() {
    let storm = SketchStorm::sized(1, 256);
    let manager = storm.manager().to_string();
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .cloned()
        .chain([manager.clone()])
        .collect();
    let mut monitor = monitor_over(
        p2pmon_net::LatencyModel::default(),
        storm.dht_nodes(),
        &peers,
    );
    let mut recorder = Recorder::new();
    for text in storm.aggregate_subscriptions(3, 0.99) {
        recorder.submit(&mut monitor, &manager, &text);
    }
    assert_eq!(recorder.finish(&monitor, "SKETCH"), SKETCH);
}

const PAIRED: [u64; 3] = [0xb42fad3e84bc7e48, 195, 210];

#[test]
fn paired_storm_reuses_what_the_parent_reused() {
    const HUBS: usize = 8;
    let storm = OverlappingStorm::paired(1, HUBS, 2, 4);
    let mut traffic = storm.clone();
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .chain(&storm.consumer_peers)
        .cloned()
        .collect();
    let mut monitor = monitor_over(storm.latency_model(), peers.len(), &peers);
    let mut recorder = Recorder::new();
    for i in 0..HUBS / 2 {
        recorder.submit(&mut monitor, storm.manager_of(i), &storm.subscription(i));
    }
    for call in traffic.calls(64) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
    for i in HUBS / 2..32 {
        recorder.submit(&mut monitor, storm.manager_of(i), &storm.subscription(i));
    }
    assert_eq!(recorder.finish(&monitor, "PAIRED"), PAIRED);
}

const CHANNEL_CHAIN: [u64; 3] = [0x1a8858e51c4d643d, 1, 11];

#[test]
fn channel_chain_reuses_what_the_parent_reused() {
    const LINKS: usize = 6;
    let peers: Vec<String> = ["hub.net", "watch.org"]
        .into_iter()
        .map(String::from)
        .chain((0..LINKS).map(|k| format!("m{k}.org")))
        .collect();
    let mut monitor = monitor_over(p2pmon_net::LatencyModel::default(), 16, &peers);
    let mut recorder = Recorder::new();
    recorder.submit(
        &mut monitor,
        "m0.org",
        r#"for $c in outCOM(<p>hub.net</p>)
           where $c.callMethod = "Ping"
           return <link0 id="{$c.callId}"/>
           by publish as channel "c0";"#,
    );
    for k in 0..LINKS {
        if k > 0 {
            let j = k - 1;
            recorder.submit(
                &mut monitor,
                &format!("m{k}.org"),
                &format!(
                    r##"for $x in channel("#c{j}@m{j}.org")
                        return <link{k}>{{$x}}</link{k}>
                        by publish as channel "c{k}";"##
                ),
            );
        }
        recorder.submit(
            &mut monitor,
            "watch.org",
            &format!(
                r##"for $x in channel("#c{k}@m{k}.org")
                    return <seen link="{k}"/>
                    by email "watch{k}@example.org";"##
            ),
        );
    }
    assert_eq!(recorder.finish(&monitor, "CHANNEL_CHAIN"), CHANNEL_CHAIN);
}
