//! Edos statistics: monitoring a content-distribution network.
//!
//! The paper's main target application is the Edos/Mandriva P2P distribution
//! system, where "the monitoring is primarily used to gather statistics about
//! the peers (e.g., number, efficiency, reliability) and the usage of the
//! system (e.g., query rate)".  This example watches the package queries
//! arriving at the master server, and builds three statistics with the
//! monitor's operators:
//!
//! * query volume per mirror (the monitor has no Group operator: the
//!   subscription publishes every query and the consumer counts them per
//!   mirror),
//! * unreliable mirrors (calls that faulted),
//! * slow downloads (incidents like the meteo example).
//!
//! Run with: `cargo run --example edos_statistics`

use std::collections::BTreeMap;

use p2pmon::core::{Monitor, MonitorConfig};
use p2pmon::workloads::EdosWorkload;

const FAILED_QUERIES: &str = r#"
for $c in inCOM(<p>master.edos.org</p>)
where $c.callMethod = "GetPackage" and $c.fault = "Mirror.Unreachable"
return <unreliable mirror="{$c.caller}" id="{$c.callId}"/>
by publish as channel "unreliableMirrors";
"#;

const SLOW_DOWNLOADS: &str = r#"
for $c in inCOM(<p>master.edos.org</p>)
let $latency := $c.responseTimestamp - $c.callTimestamp
where $c.callMethod = "GetPackage" and $latency > 40
return <slowDownload mirror="{$c.caller}" latency="{$latency}"/>
by publish as channel "slowDownloads";
"#;

const ALL_QUERIES: &str = r#"
for $c in inCOM(<p>master.edos.org</p>)
where $c.callMethod = "GetPackage"
return <query mirror="{$c.caller}" package="{$c/soap:Envelope/soap:Body/GetPackage/package}"/>
by publish as channel "queryLog";
"#;

fn main() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.add_peer("master.edos.org");
    monitor.add_peer("observatory.edos.org");

    let failed = monitor
        .submit("observatory.edos.org", FAILED_QUERIES)
        .expect("failed-queries subscription deploys");
    let slow = monitor
        .submit("observatory.edos.org", SLOW_DOWNLOADS)
        .expect("slow-downloads subscription deploys");
    let all = monitor
        .submit("observatory.edos.org", ALL_QUERIES)
        .expect("query-log subscription deploys");

    // 10 mirrors querying a 10 000-package distribution, as in the paper.
    let mut workload = EdosWorkload::new(10, 10_000, 2008);
    for query in workload.queries(2_000) {
        monitor.inject_soap_call(&query);
    }
    monitor.run_until_idle();

    let query_log = monitor.results(&all);
    let mut per_mirror: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_package: BTreeMap<String, usize> = BTreeMap::new();
    for q in &query_log {
        *per_mirror
            .entry(q.attr("mirror").unwrap_or("?").to_string())
            .or_default() += 1;
        *per_package
            .entry(q.attr("package").unwrap_or("?").to_string())
            .or_default() += 1;
    }

    println!("query rate per mirror ({} queries total):", query_log.len());
    for (mirror, count) in &per_mirror {
        println!("  {mirror:<22} {count}");
    }

    let mut popular: Vec<(&String, &usize)> = per_package.iter().collect();
    popular.sort_by(|a, b| b.1.cmp(a.1));
    println!("\nmost requested packages:");
    for (pkg, count) in popular.iter().take(5) {
        println!("  {pkg:<12} {count}");
    }

    println!(
        "\nreliability: {} failed transfers, {} slow downloads",
        monitor.results(&failed).len(),
        monitor.results(&slow).len()
    );
    assert!(!query_log.is_empty());
    assert!(!monitor.results(&failed).is_empty());
}
