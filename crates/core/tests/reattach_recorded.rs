//! Replica selection and orphan re-attachment on the `churn_mix` shape,
//! step by step, against what the name-scored selection chose.
//!
//! Every provider choice — the reuse cover's, a subscribed channel's and
//! each orphan's when its replica retracts — scores candidate peers by
//! proximity, breaks ties by load and walks forwarder chains for
//! eligibility.  Until 499cfa2 those scores were computed from peer *names*;
//! they are computed from interned `PeerId`s now, and must choose exactly
//! the same providers, in the same order, with the same work.
//!
//! The script is the end-to-end benchmark's `churn_mix` at seed 1: 16
//! shapes over 8 hubs, duplicates spread over 8 clusters of 8 consumer
//! peers, 1 024 standing subscriptions, then 30 steps that each retire the 8
//! oldest, submit 8 and dispatch 64 calls.  After the standing
//! subscriptions deploy and after every step, one row records a digest of
//! `Monitor::subscribed_providers` over every live subscription, the
//! `providers_scored`, `loads_read`, `chains_walked` and
//! `replicas_retracted` counters, and a running digest of every sink.
//!
//! To re-record, run `cargo test -q --release -p p2pmon-core --test
//! reattach_recorded -- --nocapture`: the test prints its constant as it
//! appears in the source.

use std::collections::VecDeque;

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_workloads::OverlappingStorm;

/// FNV-1a over a byte stream, continuing from `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The `churn_mix` storm of the end-to-end benchmark, seed 1.
fn churn_storm() -> OverlappingStorm {
    let mut storm = OverlappingStorm::clustered(1, 16, 8, 8);
    storm.monitored_peers = (0..8).map(|h| format!("hub{h}.net")).collect();
    storm
}

/// A monitor over the storm's hubs and consumer peers, configured as the
/// benchmark configures it.
fn churn_monitor(storm: &OverlappingStorm) -> Monitor {
    let peers: Vec<String> = storm
        .monitored_peers
        .iter()
        .chain(&storm.consumer_peers)
        .cloned()
        .collect();
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        dht_nodes: peers.len(),
        ..MonitorConfig::default()
    });
    for peer in peers {
        monitor.add_peer(peer);
    }
    monitor
}

/// One recorded row: `(providers digest, providers_scored, loads_read,
/// chains_walked, replicas_retracted, sink digest)`.
type Row = (u64, u64, u64, u64, u64, u64);

/// The sinks seen so far: each subscription's results already digested.
struct Sinks {
    digest: u64,
    seen: Vec<usize>,
}

impl Sinks {
    /// Folds every result delivered since the last call into the digest,
    /// subscription by subscription in submit order.
    fn absorb(&mut self, monitor: &Monitor, handles: &[SubscriptionHandle]) {
        self.seen.resize(handles.len(), 0);
        for (handle, seen) in handles.iter().zip(&mut self.seen) {
            let results = monitor.results(handle);
            for item in &results[*seen..] {
                fnv(&mut self.digest, item.to_xml().as_bytes());
            }
            *seen = results.len();
            fnv(&mut self.digest, b"|");
        }
    }
}

/// The row after one step.
fn row(
    monitor: &Monitor,
    live: &VecDeque<SubscriptionHandle>,
    handles: &[SubscriptionHandle],
    sinks: &mut Sinks,
) -> Row {
    let mut providers = FNV_OFFSET;
    for handle in live {
        fnv(&mut providers, format!("{}=", handle.0).as_bytes());
        for (peer, stream) in monitor.subscribed_providers(handle) {
            fnv(&mut providers, format!("{peer}/{stream}+").as_bytes());
        }
    }
    sinks.absorb(monitor, handles);
    let (reuse, replicas) = (monitor.reuse_stats(), monitor.replica_stats());
    (
        providers,
        reuse.providers_scored,
        reuse.loads_read,
        replicas.chains_walked,
        replicas.replicas_retracted,
        sinks.digest,
    )
}

/// The rows after the standing subscriptions deployed, then after each
/// step, recorded with the name-scored selection (499cfa2).
const NAME_SCORED: [Row; 31] = [
    (0x3faaa10874471f7e, 38770, 0, 0, 0, 0x4f58b1125a912325),
    (0x426c6668b6ed6e29, 38916, 0, 0, 0, 0x2004459a76c837a5),
    (0x851b0cb7ef8275d2, 39062, 46, 0, 0, 0x5052b7bf9db94ae5),
    (0xdb44de222888dada, 39220, 99, 134, 8, 0x8bbf4d960a41e6e5),
    (0xbd9ff0a823917a81, 39378, 152, 268, 16, 0x6fd45f517e5694e5),
    (0x07ce55ca9616ec5d, 39542, 338, 384, 24, 0x0b6c1338a23699a5),
    (0x8282e875816e5784, 39706, 524, 500, 32, 0x68784fef6cd61425),
    (0x38cd61b4aadae2d6, 39876, 716, 598, 40, 0x71d2baf3d5a788e5),
    (0x2a4365cf3f18c95f, 40046, 908, 696, 48, 0xff73fea7c4e56ca5),
    (0x961933e14885ca01, 40222, 1112, 776, 56, 0x0c8304f540542aa5),
    (0x58bbcc4abf4b4087, 40398, 1316, 856, 64, 0xfb7d1efb9b375a65),
    (0xe14ca0f30c8ce09f, 40580, 1520, 918, 72, 0x7aabf923adbd5d25),
    (0x909b93d9cd4190ad, 40762, 1732, 980, 80, 0x3b171f4330d67fa5),
    (
        0xa43f0718148521db,
        40950,
        1944,
        1024,
        88,
        0xfd5c56703ecbdd65,
    ),
    (
        0x38fa5772565b8b1d,
        41138,
        2156,
        1068,
        96,
        0xd5ddb3c520c2d025,
    ),
    (
        0x1de802547ad1be3c,
        41332,
        2344,
        1106,
        104,
        0x5cfba1bb365ac525,
    ),
    (
        0x1a9ef72efa468a6d,
        41526,
        2532,
        1144,
        112,
        0xda802ca330c86725,
    ),
    (
        0xdde5958776644263,
        41768,
        4046,
        1296,
        120,
        0x70ae2b797521a0a5,
    ),
    (
        0x5c44d3410a3646eb,
        42010,
        5584,
        1448,
        128,
        0x7bcbaed988814f65,
    ),
    (
        0x472f35f09cf161e5,
        42216,
        5790,
        1582,
        136,
        0x4dee979b9c05fde5,
    ),
    (
        0x5b18c9da12fe1137,
        42422,
        6008,
        1716,
        144,
        0x3a44aea06d0775a5,
    ),
    (
        0xde6f92a600f0d3c8,
        42634,
        6232,
        1832,
        152,
        0x7e9fc61f8b68dc25,
    ),
    (
        0x9bd2200b95fffac8,
        42846,
        6456,
        1948,
        160,
        0x4e06171dbcd52a65,
    ),
    (
        0x4a6fc29b9ee7907f,
        43064,
        6680,
        2046,
        168,
        0x47018521b50d9c65,
    ),
    (
        0x2a695cd7d992edf9,
        43282,
        6904,
        2144,
        176,
        0x334a5c45c08278e5,
    ),
    (
        0x2a96dc35377ac265,
        43506,
        7128,
        2224,
        184,
        0xfaace2ad93d52fe5,
    ),
    (
        0xb9a04f6464da86e0,
        43730,
        7352,
        2304,
        192,
        0xd7b95f4db046f9a5,
    ),
    (
        0x9d8e30083f328270,
        43960,
        7576,
        2366,
        200,
        0xf2948631fcb943a5,
    ),
    (
        0x4b389d488c62a1f5,
        44190,
        7800,
        2428,
        208,
        0xfc0152721a005d65,
    ),
    (
        0x88b9a00584e172f7,
        44426,
        8024,
        2472,
        216,
        0xd4584699e6905ca5,
    ),
    (
        0x225fa8a0ad6b99d9,
        44662,
        8248,
        2516,
        224,
        0xd15e931d5d0d3f65,
    ),
];

#[test]
fn churn_reattachment_matches_the_name_scored_selection_step_by_step() {
    const STANDING: usize = 1_024;
    const STEPS: usize = 30;
    const CHURN: usize = 8;
    const BATCH: usize = 64;
    let storm = churn_storm();
    let mut traffic = storm.clone();
    let mut monitor = churn_monitor(&storm);
    let mut handles = Vec::new();
    let mut live = VecDeque::new();
    let submit = |monitor: &mut Monitor, i: usize| {
        monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("churn storm subscription deploys")
    };
    for i in 0..STANDING {
        let handle = submit(&mut monitor, i);
        handles.push(handle);
        live.push_back(handle);
    }
    let mut sinks = Sinks {
        digest: FNV_OFFSET,
        seen: Vec::new(),
    };
    let mut rows = vec![row(&monitor, &live, &handles, &mut sinks)];
    for step in 0..STEPS {
        for _ in 0..CHURN {
            let oldest = live.pop_front().expect("standing subscriptions");
            assert!(monitor.unsubscribe(&oldest));
        }
        for i in 0..CHURN {
            let handle = submit(&mut monitor, STANDING + step * CHURN + i);
            handles.push(handle);
            live.push_back(handle);
        }
        for call in traffic.calls(BATCH) {
            monitor.inject_soap_call(&call);
        }
        monitor.run_until_idle();
        rows.push(row(&monitor, &live, &handles, &mut sinks));
    }
    println!("const NAME_SCORED: [Row; {}] = [", rows.len());
    for (providers, scored, loads, chains, retracted, sinks) in &rows {
        println!(
            "    ({providers:#018x}, {scored}, {loads}, {chains}, {retracted}, {sinks:#018x}),"
        );
    }
    println!("];");
    let last = rows.last().expect("rows");
    assert!(last.3 > 0, "orphans re-attach");
    assert!(last.4 > 0, "replicas retract");
    assert_eq!(rows, NAME_SCORED);
}
