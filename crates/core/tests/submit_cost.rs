//! A submit costs the providers it compares.
//!
//! Two pins on the subscription lifetime's provider questions:
//!
//! * `ReuseStats::providers_scored` counts evaluations of the proximity
//!   function.  It must follow the origins and replicas the plans name and
//!   be blind to how many peers are merely registered — the eager
//!   per-submit map over all peers it replaced scored every one of them.
//! * The replica bookkeeping keeps one rule: the first remote consumer of a
//!   stream on a peer re-publishes it, with no cap.  A scripted clustered
//!   storm (consumers arriving between bursts of traffic, then a teardown
//!   from the middle) is compared, declaration by declaration, with the
//!   outcome recorded by running this very test with the code that first
//!   kept a departing forwarder until its replica drained (before it, a
//!   forwarder handed its replica to a survivor, which renamed the
//!   declaration; every count and sink digest is unchanged).  To re-record, run
//!   `cargo test -q --release -p p2pmon-core --test submit_cost
//!   default_replica_rule -- --nocapture`: the test prints the outcome.

use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;
use p2pmon_streams::ChannelId;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm};

/// Deploys the first `subs` subscriptions of the 1k-tier storm into a
/// monitor that also knows `idle_peers` peers no plan ever names, and
/// returns `(providers scored, bound)`: the bound lets every covered plan
/// node and every subscribed channel compare the origin and one replica per
/// manager peer — the most providers a stream of this storm can have.
fn scored_with_idle_peers(idle_peers: usize, subs: usize) -> (u64, u64) {
    let storm = MassiveStorm::sized(1, 1024);
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
    for i in 0..idle_peers {
        monitor.add_peer(format!("idle{i}.org"));
    }
    let providers_per_stream = 1 + storm.manager_peers().len() as u64;
    let mut bound = 0;
    for i in 0..subs {
        let handle = monitor
            .submit(&storm.manager_of(i), &storm.subscription(i))
            .expect("storm subscription deploys");
        let reuse = monitor.report(&handle).expect("report").reuse;
        let selections = (reuse.reused_nodes + reuse.subscribed_channels.len()) as u64;
        bound += selections * providers_per_stream;
    }
    (monitor.reuse_stats().providers_scored, bound)
}

#[test]
fn provider_scorings_follow_the_plans_not_the_registered_peers() {
    let (few, bound) = scored_with_idle_peers(200, 300);
    let (many, _) = scored_with_idle_peers(2_000, 300);
    assert_eq!(
        few, many,
        "1 800 more idle peers must not change what a submit scores"
    );
    assert!(few > 0, "reuse and replica selection do score providers");
    assert!(
        few <= bound,
        "{few} scorings exceed the {bound} the plans' providers allow"
    );
    assert!(
        bound < 200 * 300,
        "the bound itself must be below one scoring per registered peer per submit"
    );
}

/// FNV-1a over a byte stream, to compare sink contents without embedding
/// them.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Drives `n` calls one at a time, draining the network in between so the
/// per-channel EWMA rates see distinct logical instants.
fn drive(monitor: &mut Monitor, traffic: &mut OverlappingStorm, n: usize) {
    for call in traffic.calls(n) {
        monitor.inject_soap_call(&call);
        monitor.run_until_idle();
    }
}

/// What the replica bookkeeping decided, as text: every origin's
/// declarations in declaration order (the replica stream names the
/// forwarding task), the provider each live subscription is attached to, the
/// replica counters and a digest of every sink.
fn replica_outcome(
    monitor: &mut Monitor,
    handles: &[SubscriptionHandle],
    origins: &[(String, String)],
) -> String {
    let mut origins = origins.to_vec();
    origins.sort();
    let mut out = String::new();
    for origin in &origins {
        let declared: Vec<String> = monitor
            .stream_db_mut()
            .replicas_of(ChannelId::new(&origin.0, &origin.1))
            .iter()
            .map(|r| format!("{}/{}", r.peer, r.stream))
            .collect();
        out.push_str(&format!(
            "{}/{}: [{}]\n",
            origin.0,
            origin.1,
            declared.join(" ")
        ));
    }
    let providers: Vec<String> = handles
        .iter()
        .filter(|h| monitor.is_active(h))
        .map(|h| {
            let attached: Vec<String> = monitor
                .subscribed_providers(h)
                .iter()
                .map(|(p, s)| format!("{p}/{s}"))
                .collect();
            format!("{}={}", h.0, attached.join("+"))
        })
        .collect();
    out.push_str(&format!("providers: {}\n", providers.join(" ")));
    let stats = monitor.replica_stats();
    out.push_str(&format!(
        "created {} retracted {} via_replica {} via_origin {}\n",
        stats.replicas_created,
        stats.replicas_retracted,
        stats.consumers_via_replica,
        stats.consumers_via_origin
    ));
    let (mut results, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for handle in handles {
        for item in monitor.results(handle) {
            results += 1;
            fnv(&mut digest, item.to_xml().as_bytes());
        }
        fnv(&mut digest, b"|");
    }
    out.push_str(&format!("sinks: {results} results, digest {digest:016x}\n"));
    out
}

/// The two outcomes of the script below with the forwarder-pinning code,
/// captured by running this very test there.
const PARENT_OUTCOME: &str = "\
-- hot
hub.net/s0-t2: [c0-peer1.org/s4-t0 c0-peer2.org/s8-t0 c0-peer3.org/s12-t0 c1-peer0.org/s16-t0 c1-peer1.org/s20-t0 c1-peer2.org/s24-t0 c1-peer3.org/s28-t0 c0-peer0.org/s32-t0]
hub.net/s1-t2: [c0-peer1.org/s5-t0 c0-peer2.org/s9-t0 c0-peer3.org/s13-t0 c1-peer0.org/s17-t0 c1-peer1.org/s21-t0 c1-peer2.org/s25-t0 c1-peer3.org/s29-t0 c0-peer0.org/s33-t0]
hub.net/s2-t2: [c0-peer1.org/s6-t0 c0-peer2.org/s10-t0 c0-peer3.org/s14-t0 c1-peer0.org/s18-t0 c1-peer1.org/s22-t0 c1-peer2.org/s26-t0 c1-peer3.org/s30-t0 c0-peer0.org/s34-t0]
hub.net/s3-t2: [c0-peer1.org/s7-t0 c0-peer2.org/s11-t0 c0-peer3.org/s15-t0 c1-peer0.org/s19-t0 c1-peer1.org/s23-t0 c1-peer2.org/s27-t0 c1-peer3.org/s31-t0 c0-peer0.org/s35-t0]
hub.net/src-outCOM: []
providers: 0= 1=hub.net/src-outCOM 2=hub.net/src-outCOM 3=hub.net/src-outCOM 4=hub.net/s0-t2 5=hub.net/s1-t2 6=hub.net/s2-t2 7=hub.net/s3-t2 8=c0-peer1.org/s4-t0 9=c0-peer1.org/s5-t0 10=c0-peer1.org/s6-t0 11=c0-peer1.org/s7-t0 12=c0-peer1.org/s4-t0 13=c0-peer1.org/s5-t0 14=c0-peer1.org/s6-t0 15=c0-peer1.org/s7-t0 16=c0-peer1.org/s4-t0 17=c0-peer1.org/s5-t0 18=c0-peer1.org/s6-t0 19=c0-peer1.org/s7-t0 20=c1-peer0.org/s16-t0 21=c1-peer0.org/s17-t0 22=c1-peer0.org/s18-t0 23=c1-peer0.org/s19-t0 24=c1-peer0.org/s16-t0 25=c1-peer0.org/s17-t0 26=c1-peer0.org/s18-t0 27=c1-peer0.org/s19-t0 28=c1-peer0.org/s16-t0 29=c1-peer0.org/s17-t0 30=c1-peer0.org/s18-t0 31=c1-peer0.org/s19-t0 32=c0-peer1.org/s4-t0 33=c0-peer1.org/s5-t0 34=c0-peer1.org/s6-t0 35=c0-peer1.org/s7-t0 36=c0-peer1.org/s4-t0 37=c0-peer1.org/s5-t0 38=c0-peer1.org/s6-t0 39=c0-peer1.org/s7-t0
created 32 retracted 0 via_replica 32 via_origin 4
sinks: 941 results, digest 71d66b057d025b31
-- after teardown from the middle
hub.net/s0-t2: [c0-peer1.org/s4-t0 c0-peer2.org/s8-t0 c0-peer3.org/s12-t0 c1-peer1.org/s20-t0 c1-peer2.org/s24-t0 c0-peer0.org/s32-t0]
hub.net/s1-t2: [c0-peer1.org/s5-t0 c0-peer2.org/s9-t0 c1-peer0.org/s17-t0 c1-peer1.org/s21-t0 c1-peer3.org/s29-t0 c0-peer0.org/s33-t0]
hub.net/s2-t2: [c0-peer1.org/s6-t0 c0-peer3.org/s14-t0 c1-peer0.org/s18-t0 c1-peer2.org/s26-t0 c1-peer3.org/s30-t0]
hub.net/s3-t2: [c0-peer1.org/s7-t0 c0-peer2.org/s11-t0 c0-peer3.org/s15-t0 c1-peer1.org/s23-t0 c1-peer2.org/s27-t0 c0-peer0.org/s35-t0]
hub.net/src-outCOM: []
providers: 0= 1=hub.net/src-outCOM 2=hub.net/src-outCOM 3=hub.net/src-outCOM 5=hub.net/s1-t2 6=hub.net/s2-t2 8=c0-peer1.org/s4-t0 9=c0-peer1.org/s5-t0 11=c0-peer1.org/s7-t0 12=c0-peer1.org/s4-t0 14=c0-peer1.org/s6-t0 15=c0-peer1.org/s7-t0 17=c0-peer1.org/s5-t0 18=c0-peer1.org/s6-t0 20=hub.net/s0-t2 21=c1-peer0.org/s17-t0 23=hub.net/s3-t2 24=c1-peer1.org/s20-t0 26=c1-peer0.org/s18-t0 27=c1-peer1.org/s23-t0 29=c1-peer0.org/s17-t0 30=c1-peer0.org/s18-t0 32=c0-peer1.org/s4-t0 33=c0-peer1.org/s5-t0 35=c0-peer1.org/s7-t0 36=c0-peer1.org/s4-t0 38=c0-peer1.org/s6-t0 39=c0-peer1.org/s7-t0
created 32 retracted 9 via_replica 32 via_origin 4
sinks: 1074 results, digest bfbfe59e531d2d71
";

#[test]
fn the_default_replica_rule_keeps_its_recorded_outcome() {
    const SHAPES: usize = 4;
    let storm = OverlappingStorm::clustered(5, SHAPES, 2, 4);
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: storm.latency_model(),
            ..NetworkConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor.add_peer("backend.net");
    let mut traffic = storm.clone();
    let mut handles: Vec<SubscriptionHandle> = Vec::new();
    let mut origins: Vec<(String, String)> = Vec::new();
    let mut submit = |monitor: &mut Monitor, handles: &mut Vec<SubscriptionHandle>, i: usize| {
        let handle = monitor
            .submit(storm.manager_of(i), &storm.subscription(i))
            .expect("clustered storm deploys");
        for origin in monitor.report(&handle).expect("report").reuse.reused_defs {
            let origin = (origin.peer.to_string(), origin.stream.to_string());
            if !origins.contains(&origin) {
                origins.push(origin);
            }
        }
        handles.push(handle);
    };

    // One producer per shape and its first remote consumers, then the rest
    // arriving between bursts of traffic.
    for i in 0..2 * SHAPES {
        submit(&mut monitor, &mut handles, i);
    }
    for round in 2..10 {
        drive(&mut monitor, &mut traffic, 24);
        for i in round * SHAPES..(round + 1) * SHAPES {
            submit(&mut monitor, &mut handles, i);
        }
    }
    drive(&mut monitor, &mut traffic, 40);
    let stats = monitor.replica_stats();
    assert!(stats.replicas_created > 0, "remote consumers re-publish");
    assert!(
        stats.consumers_via_replica > 0,
        "later consumers ride the declared copies"
    );
    let mut outcome = String::from("-- hot\n");
    outcome += &replica_outcome(&mut monitor, &handles, &origins);

    // Teardown from the middle: a forwarder leaving before its riders stays
    // until they drain, last subscribers retract, orphans re-attach.
    for at in (SHAPES..handles.len()).step_by(3) {
        assert!(monitor.unsubscribe(&handles[at]));
    }
    drive(&mut monitor, &mut traffic, 24);
    outcome += "-- after teardown from the middle\n";
    outcome += &replica_outcome(&mut monitor, &handles, &origins);
    println!("{outcome}");
    assert_eq!(outcome, PARENT_OUTCOME, "outcome:\n{outcome}");
}
