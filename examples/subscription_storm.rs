//! Subscription storm: hundreds of subscriptions over one alert stream.
//!
//! 256 shared-prefix P2PML subscriptions watch the `outCOM` alerter of a
//! single hub peer, each singling out a method (and, for some, a tree pattern
//! or a LET-derived latency residual).  All 256 `Select` processors are
//! pushed to the hub and register with its *shared* two-stage filtering
//! processor (preFilter → AESFilter → YFilterσ, Figure 5 of the paper; the
//! third stage evaluates only the active subscriptions' tree patterns), so
//! each alert is filtered once per peer — not once per subscription.
//!
//! Run with: `cargo run --release --example subscription_storm`

use p2pmon::core::{Monitor, MonitorConfig};
use p2pmon::workloads::SubscriptionStorm;

const SUBSCRIPTIONS: usize = 256;
const CALLS: usize = 500;

fn main() {
    let mut monitor = Monitor::new(MonitorConfig {
        enable_reuse: false,
        ..MonitorConfig::default()
    });
    for peer in ["manager.org", "hub.net", "backend.net"] {
        monitor.add_peer(peer);
    }

    // 1. Deploy the storm: every subscription's Select lands on hub.net.
    let storm = SubscriptionStorm::new(1);
    println!(
        "first subscription of the storm:\n{}\n",
        storm.subscription(0)
    );
    let handles: Vec<_> = storm
        .subscriptions(SUBSCRIPTIONS)
        .iter()
        .map(|text| monitor.submit("manager.org", text).expect("storm deploys"))
        .collect();
    let hub = monitor.peer_host("hub.net").expect("hub host");
    println!(
        "deployed {SUBSCRIPTIONS} subscriptions: {} tasks on hub.net, \
         {} selects registered with its shared filter engine",
        monitor.hosted_tasks("hub.net"),
        hub.registered_selects()
    );

    // 2. Replay the hub's web-service traffic.
    let mut traffic = SubscriptionStorm::new(42);
    for call in traffic.calls(CALLS) {
        monitor.inject_soap_call(&call);
    }
    monitor.run_until_idle();

    // 3. The filter engine ran once per alert, for all 256 subscriptions.
    let stats = monitor.peer_filter_stats("hub.net").expect("hub stats");
    let dispatch = monitor.dispatch_stats();
    println!(
        "\nfilter engine at hub.net: {} documents, {:.1} complex evaluations \
         per alert (of {SUBSCRIPTIONS} subscriptions)",
        stats.documents,
        stats.complex_evaluations as f64 / stats.documents.max(1) as f64
    );
    println!(
        "dispatch: {} engine passes, {} gated deliveries passed, {} skipped \
         before any operator ran",
        dispatch.engine_documents, dispatch.gate_passes, dispatch.gate_rejections
    );

    let delivered: usize = handles.iter().map(|h| monitor.results(h).len()).sum();
    let busiest = monitor
        .network_stats()
        .per_peer()
        .into_iter()
        .max_by_key(|(_, t)| t.bytes_out)
        .expect("traffic exists");
    println!(
        "\n{delivered} results across {SUBSCRIPTIONS} sinks; busiest peer {} \
         sent {} bytes in {} messages",
        busiest.0, busiest.1.bytes_out, busiest.1.messages_out
    );
    assert!(
        delivered > 0,
        "the storm traffic matches some subscriptions"
    );
    assert!(
        stats.complex_evaluations < stats.documents * SUBSCRIPTIONS as u64,
        "per-alert filtering cost must stay sublinear in the subscription count"
    );
}
