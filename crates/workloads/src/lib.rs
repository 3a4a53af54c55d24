//! # p2pmon-workloads
//!
//! Synthetic workload generators for the paper's motivating scenarios.  The
//! paper evaluates P2PM on live systems (a community Web-service deployment,
//! RSS feeds, the Edos/Mandriva content-distribution network); none of that
//! traffic is available, so each generator produces a statistically shaped,
//! seeded and therefore reproducible stand-in that exercises the same code
//! paths.
//!
//! * [`SoapWorkload`] — Web-service RPC traffic between client peers and
//!   server peers, with a configurable fraction of slow answers and faults
//!   (the Figure 1 / telecom-BPEL scenario).
//! * [`RssWorkload`] — an evolving RSS feed: a stream of snapshots where each
//!   step adds, removes and modifies entries.
//! * [`EdosWorkload`] — an Edos-like distribution network: package downloads
//!   and metadata queries issued by mirror peers, used for the statistics
//!   gathering scenario (query rate, per-peer reliability, popularity).
//! * [`SubscriptionWorkload`] — random Filter subscriptions (simple + complex
//!   conditions over a bounded vocabulary), used by the Filter benchmarks
//!   (E2–E4), together with matching random alert documents.
//! * [`SubscriptionStorm`] — many *shared-prefix* P2PML subscriptions over a
//!   single alerter function at one monitored peer, plus the matching SOAP
//!   traffic; this is the workload that puts a peer's shared filter engine on
//!   the hot path (hundreds of hosted subscriptions, one alert stream).
//! * [`OverlappingStorm`] — many subscriptions drawn from a few distinct
//!   *shapes* (duplicates differ only in their sink), plus matching traffic;
//!   the stream-reuse workload (E7), where reuse-on deployments collapse
//!   onto the shapes' shared live streams.
//! * [`MassiveStorm`] — the scale tier: thousands of subscriptions with
//!   zipf-skewed shape popularity over a clustered hub topology that *grows
//!   with the subscription count*, the P2P scaling story of the paper —
//!   adding subscriptions adds monitored peers, so per-peer (and therefore
//!   per-alert) load stays bounded while definition lookups route through
//!   the real Chord overlay.
//!
//! [`runners`] drives these workloads through the monitor and measures them:
//! the contract tests and the bench trajectories call the same runs.

pub mod chaos;
pub mod runners;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2pmon_alerters::SoapCall;
use p2pmon_filter::FilterSubscription;
use p2pmon_net::LatencyModel;
use p2pmon_streams::AttrCondition;
use p2pmon_xmlkit::path::CompareOp;
use p2pmon_xmlkit::{Element, ElementBuilder, XPath};

/// Web-service RPC traffic generator.
#[derive(Debug, Clone)]
pub struct SoapWorkload {
    /// Client peers issuing calls.
    pub clients: Vec<String>,
    /// Server peers answering them.
    pub servers: Vec<String>,
    /// Methods drawn uniformly.
    pub methods: Vec<String>,
    /// Fraction of calls slower than `slow_threshold_ms`.
    pub slow_fraction: f64,
    /// Latency above which a call counts as slow.
    pub slow_threshold_ms: u64,
    /// Fraction of calls that fault.
    pub fault_fraction: f64,
    /// Mean inter-arrival time between calls (ms).
    pub inter_arrival_ms: u64,
    rng: StdRng,
    next_id: u64,
    clock: u64,
}

impl SoapWorkload {
    /// The Figure-1 scenario: two clients calling the meteo.com service.
    pub fn meteo(seed: u64) -> Self {
        SoapWorkload {
            clients: vec!["http://a.com".into(), "http://b.com".into()],
            servers: vec!["http://meteo.com".into()],
            methods: vec!["GetTemperature".into(), "GetHumidity".into()],
            slow_fraction: 0.2,
            slow_threshold_ms: 10,
            fault_fraction: 0.02,
            inter_arrival_ms: 50,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            clock: 1_000,
        }
    }

    /// A telecom-flavoured workload: many clients, several workflow methods.
    pub fn telecom(clients: usize, seed: u64) -> Self {
        SoapWorkload {
            clients: (0..clients.max(1))
                .map(|i| format!("client{i}.net"))
                .collect(),
            servers: vec!["billing.net".into(), "provisioning.net".into()],
            methods: vec![
                "OpenOrder".into(),
                "ActivateLine".into(),
                "CloseOrder".into(),
                "Bill".into(),
            ],
            slow_fraction: 0.1,
            slow_threshold_ms: 25,
            fault_fraction: 0.05,
            inter_arrival_ms: 20,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            clock: 1_000,
        }
    }

    /// Generates the next call.
    pub fn next_call(&mut self) -> SoapCall {
        let caller = self.clients[self.rng.gen_range(0..self.clients.len())].clone();
        let callee = self.servers[self.rng.gen_range(0..self.servers.len())].clone();
        let method = self.methods[self.rng.gen_range(0..self.methods.len())].clone();
        self.clock += self.rng.gen_range(1..=self.inter_arrival_ms.max(1) * 2);
        let slow = self.rng.gen::<f64>() < self.slow_fraction;
        let latency = if slow {
            self.slow_threshold_ms + self.rng.gen_range(1..=40u64)
        } else {
            self.rng.gen_range(1..=self.slow_threshold_ms.max(2) - 1)
        };
        let id = self.next_id;
        self.next_id += 1;
        let mut call = SoapCall::new(id, caller, callee, method, self.clock, self.clock + latency)
            .with_body(Element::text_element("city", "Orsay"));
        if self.rng.gen::<f64>() < self.fault_fraction {
            call = call.with_fault("Server.Timeout");
        }
        call
    }

    /// Generates a batch of calls.
    pub fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_call()).collect()
    }
}

/// An evolving RSS feed.
#[derive(Debug, Clone)]
pub struct RssWorkload {
    /// Feed URL.
    pub url: String,
    entries: Vec<(u64, String)>,
    next_guid: u64,
    rng: StdRng,
    /// Entries added per step.
    pub adds_per_step: usize,
    /// Probability an existing entry is modified per step.
    pub modify_probability: f64,
    /// Maximum feed length (older entries fall off, as real feeds do).
    pub max_entries: usize,
}

impl RssWorkload {
    /// A community-portal feed starting with `initial` entries.
    pub fn new(url: impl Into<String>, initial: usize, seed: u64) -> Self {
        let mut w = RssWorkload {
            url: url.into(),
            entries: Vec::new(),
            next_guid: 0,
            rng: StdRng::seed_from_u64(seed),
            adds_per_step: 1,
            modify_probability: 0.2,
            max_entries: 20,
        };
        for _ in 0..initial {
            w.add_entry();
        }
        w
    }

    fn add_entry(&mut self) {
        let guid = self.next_guid;
        self.next_guid += 1;
        self.entries.push((guid, format!("story {guid}")));
        while self.entries.len() > self.max_entries {
            self.entries.remove(0);
        }
    }

    /// Advances the feed one step (add / modify / truncate) and returns the
    /// new snapshot.
    pub fn step(&mut self) -> Element {
        for _ in 0..self.adds_per_step {
            self.add_entry();
        }
        if !self.entries.is_empty() && self.rng.gen::<f64>() < self.modify_probability {
            let idx = self.rng.gen_range(0..self.entries.len());
            self.entries[idx].1.push_str(" (updated)");
        }
        self.snapshot()
    }

    /// The current snapshot as an `<rss>` document.
    pub fn snapshot(&self) -> Element {
        let mut channel = Element::new("channel");
        channel.push_element(Element::text_element("title", "community portal"));
        for (guid, title) in &self.entries {
            channel.push_element(
                ElementBuilder::new("item")
                    .text_child("guid", guid)
                    .text_child("title", title.clone())
                    .build(),
            );
        }
        let mut rss = Element::new("rss");
        rss.set_attr("version", "2.0");
        rss.push_element(channel);
        rss
    }
}

/// An Edos-like content-distribution workload: mirrors querying and
/// downloading packages of a Linux distribution.
#[derive(Debug, Clone)]
pub struct EdosWorkload {
    /// Mirror peers.
    pub mirrors: Vec<String>,
    /// Package names (Zipf-ish popularity via squared sampling).
    pub packages: Vec<String>,
    /// Per-mirror failure probability (unreliable mirrors).
    pub failure_fraction: f64,
    rng: StdRng,
    next_id: u64,
    clock: u64,
}

impl EdosWorkload {
    /// A distribution with `packages` packages served by `mirrors` mirrors.
    pub fn new(mirrors: usize, packages: usize, seed: u64) -> Self {
        EdosWorkload {
            mirrors: (0..mirrors.max(1))
                .map(|i| format!("mirror{i}.edos.org"))
                .collect(),
            packages: (0..packages.max(1)).map(|i| format!("pkg-{i}")).collect(),
            failure_fraction: 0.05,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            clock: 1_000,
        }
    }

    /// The next package query, as a SOAP call to the master server
    /// (`master.edos.org`): method `GetPackage`, with the package name in the
    /// body and the download size as an attribute-friendly latency proxy.
    pub fn next_query(&mut self) -> SoapCall {
        let mirror = self.mirrors[self.rng.gen_range(0..self.mirrors.len())].clone();
        // Skewed popularity: squaring biases towards low indices.
        let r: f64 = self.rng.gen();
        let idx = ((r * r) * self.packages.len() as f64) as usize;
        let package = self.packages[idx.min(self.packages.len() - 1)].clone();
        self.clock += self.rng.gen_range(1..=30u64);
        let latency = self.rng.gen_range(2..=60u64);
        let id = self.next_id;
        self.next_id += 1;
        let mut call = SoapCall::new(
            id,
            mirror,
            "master.edos.org",
            "GetPackage",
            self.clock,
            self.clock + latency,
        )
        .with_body(Element::text_element("package", package));
        if self.rng.gen::<f64>() < self.failure_fraction {
            call = call.with_fault("Mirror.Unreachable");
        }
        call
    }

    /// A batch of queries.
    pub fn queries(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// The distribution metadata document (a scaled-down stand-in for the
    /// >100 MB of XML metadata the paper mentions).
    pub fn metadata(&self, packages: usize) -> Element {
        let mut doc = Element::new("packages");
        for name in self.packages.iter().take(packages) {
            doc.push_element(
                ElementBuilder::new("pkg")
                    .attr("name", name.clone())
                    .attr("version", "2008.1")
                    .build(),
            );
        }
        doc
    }
}

/// Random Filter subscriptions and matching alert documents (experiments
/// E2–E4).
#[derive(Debug, Clone)]
pub struct SubscriptionWorkload {
    rng: StdRng,
    /// Attribute vocabulary size.
    pub attributes: usize,
    /// Values per attribute.
    pub values: usize,
    /// Element-name vocabulary for complex (path) conditions.
    pub tags: usize,
    /// Fraction of subscriptions with a complex part.
    pub complex_fraction: f64,
    /// Simple conditions per subscription.
    pub conditions_per_subscription: usize,
}

impl SubscriptionWorkload {
    /// A workload with the default vocabulary.
    pub fn new(seed: u64) -> Self {
        SubscriptionWorkload {
            rng: StdRng::seed_from_u64(seed),
            attributes: 20,
            values: 10,
            tags: 15,
            complex_fraction: 0.3,
            conditions_per_subscription: 3,
        }
    }

    /// Generates `n` subscriptions with ids `0..n`.
    pub fn subscriptions(&mut self, n: usize) -> Vec<FilterSubscription> {
        (0..n as u64).map(|id| self.subscription(id)).collect()
    }

    /// Generates one subscription.
    pub fn subscription(&mut self, id: u64) -> FilterSubscription {
        let conditions = (0..self.conditions_per_subscription)
            .map(|_| {
                let attr = format!("a{}", self.rng.gen_range(0..self.attributes));
                let value = format!("v{}", self.rng.gen_range(0..self.values));
                let op = match self.rng.gen_range(0..4) {
                    0 => CompareOp::Eq,
                    1 => CompareOp::Ne,
                    2 => CompareOp::Gt,
                    _ => CompareOp::Le,
                };
                AttrCondition::new(attr, op, value)
            })
            .collect();
        let mut subscription = FilterSubscription::new(id).with_simple(conditions);
        if self.rng.gen::<f64>() < self.complex_fraction {
            let a = self.rng.gen_range(0..self.tags);
            let b = self.rng.gen_range(0..self.tags);
            let axis = if self.rng.gen::<bool>() { "/" } else { "//" };
            let pattern = XPath::parse(&format!("//t{a}{axis}t{b}")).expect("valid pattern");
            subscription = subscription.with_complex(vec![pattern]);
        }
        subscription
    }

    /// Generates one alert document over the same vocabulary.
    pub fn document(&mut self, attrs: usize, depth: usize) -> Element {
        let mut root = Element::new("alert");
        for _ in 0..attrs {
            let attr = format!("a{}", self.rng.gen_range(0..self.attributes));
            let value = format!("v{}", self.rng.gen_range(0..self.values));
            root.set_attr(attr, value);
        }
        let mut current = &mut root;
        for _ in 0..depth {
            let tag = format!("t{}", self.rng.gen_range(0..self.tags));
            current.push_element(Element::new(tag));
            let last = current.children.len() - 1;
            current = match &mut current.children[last] {
                p2pmon_xmlkit::Node::Element(e) => e,
                _ => unreachable!(),
            };
        }
        root
    }

    /// Generates a batch of documents.
    pub fn documents(&mut self, n: usize, attrs: usize, depth: usize) -> Vec<Element> {
        (0..n).map(|_| self.document(attrs, depth)).collect()
    }
}

/// The seeded state behind a storm's SOAP traffic: its RNG, the next call
/// id and the logical clock.
#[derive(Debug, Clone)]
struct Draws {
    rng: StdRng,
    next_id: u64,
    clock: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Draws {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            clock: 1_000,
        }
    }

    /// Advances the clock by a draw from `1..=max_step` ms and takes the
    /// next call id: `(id, call timestamp)`.
    fn tick(&mut self, max_step: u64) -> (u64, u64) {
        self.clock += self.rng.gen_range(1..=max_step);
        self.next_id += 1;
        (self.next_id - 1, self.clock)
    }

    /// One call of hub traffic: a uniformly drawn method, then the hub
    /// `pick_hub` draws calling `service`, a clock step, a latency slower
    /// than `slow_threshold_ms` with `slow_fraction` (faster otherwise) and,
    /// with `detail_fraction`, the `<detail>` body the pattern
    /// subscriptions look for.
    fn hub_call<'a>(
        &mut self,
        methods: &[String],
        pick_hub: impl FnOnce(&mut StdRng) -> &'a String,
        service: &str,
        slow_threshold_ms: u64,
        slow_fraction: f64,
        detail_fraction: f64,
    ) -> SoapCall {
        let method = methods[self.rng.gen_range(0..methods.len())].clone();
        let hub = pick_hub(&mut self.rng);
        let (id, clock) = self.tick(20);
        let latency = if self.rng.gen::<f64>() < slow_fraction {
            slow_threshold_ms + self.rng.gen_range(1..=30u64)
        } else {
            self.rng.gen_range(1..=slow_threshold_ms.max(2) - 1)
        };
        let call = SoapCall::new(
            id,
            format!("http://{hub}"),
            service,
            method,
            clock,
            clock + latency,
        );
        if self.rng.gen::<f64>() < detail_fraction {
            call.with_body(Element::text_element("detail", "payload"))
        } else {
            call
        }
    }
}

/// Whether every-`step`-th item `n` is picked (`step` 0 picks none).
fn every(step: usize, n: usize) -> bool {
    step > 0 && n.is_multiple_of(step)
}

/// The `outCOM` subscription the hub storms write: calls from `sources`
/// (a `<p>…</p>` list) to `service` with `method`, plus the `$c//detail`
/// pattern if `pattern` and a LET-derived duration residual over
/// `residual_ms` if given, returning a `<hit>` carrying `tag` to sink
/// `watch{sink}@example.org`.
fn outcom_subscription(
    sources: &str,
    service: &str,
    method: &str,
    pattern: bool,
    residual_ms: Option<u64>,
    tag: &str,
    sink: usize,
) -> String {
    let (let_clause, residual) = match residual_ms {
        Some(ms) => (
            "let $d := $c.responseTimestamp - $c.callTimestamp\n",
            format!(" and $d > {ms}"),
        ),
        None => ("", String::new()),
    };
    let pattern = if pattern { " and $c//detail" } else { "" };
    format!(
        "for $c in outCOM({sources})\n{let_clause}where $c.callee = \"{service}\" and $c.callMethod = \"{method}\"{pattern}{residual}\nreturn <hit {tag} method=\"{{$c.callMethod}}\"/>\nby email \"watch{sink}@example.org\";"
    )
}

/// The cumulative zipf distribution over `n` items: item `k` (from 0)
/// weighs `1/(k+1)^exponent`.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// An index below `len` drawn from the cumulative distribution `cdf`.
fn weighted(cdf: &[f64], len: usize, rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(len - 1)
}

/// The clustered latency model: two distinct peers of one cluster are
/// `intra_ms` apart, every other link costs `cross_ms`.
fn clustered_latency<C: AsRef<[String]>>(
    clusters: impl IntoIterator<Item = C>,
    intra_ms: u64,
    cross_ms: u64,
) -> LatencyModel {
    let mut links = std::collections::HashMap::new();
    for cluster in clusters {
        let members = cluster.as_ref();
        for (i, from) in members.iter().enumerate() {
            for (j, to) in members.iter().enumerate() {
                if i != j {
                    links.insert((from.into(), to.into()), intra_ms);
                }
            }
        }
    }
    LatencyModel::PerLink {
        links,
        default: cross_ms,
    }
}

/// Many shared-prefix P2PML subscriptions over one alerter function.
///
/// Every subscription watches `outCOM` at one of the monitored peers and
/// shares the `$c.callee = service` condition prefix; they differ in the
/// method they single out, and fractions of them add a tree-pattern condition
/// (`$c//detail`) and a LET-derived latency residual (`$d > threshold`).
/// Deployed on one Monitor, all the resulting `Select` tasks land on their
/// monitored peers (pushdown) and register with those peers' shared filter
/// engines — the scenario where per-alert cost must stay sublinear in the
/// subscription count.  With [`SubscriptionStorm::with_peers`] the
/// subscriptions are spread round-robin over several monitored peers, each
/// with its own shared filter engine.
#[derive(Debug, Clone)]
pub struct SubscriptionStorm {
    /// The monitored peers whose `outCOM` alerters feed everything;
    /// subscription `i` watches `monitored_peers[i % len]`.
    pub monitored_peers: Vec<String>,
    /// The callee every subscription's shared prefix pins.
    pub service: String,
    /// Method vocabulary; subscription `i` singles out `methods[i % len]`.
    pub methods: Vec<String>,
    /// Every `pattern_every`-th subscription adds the `$c//detail` tree
    /// pattern (0 disables patterns).
    pub pattern_every: usize,
    /// Every `residual_every`-th subscription adds a LET-derived duration
    /// residual (0 disables residuals).
    pub residual_every: usize,
    /// Latency threshold for the residual subscriptions (ms).
    pub slow_threshold_ms: u64,
    /// Fraction of generated calls slower than the threshold.
    pub slow_fraction: f64,
    /// Fraction of generated calls carrying a `<detail>` body element.
    pub detail_fraction: f64,
    draws: Draws,
}

impl SubscriptionStorm {
    /// The default storm: one hub peer calling one backend service.
    pub fn new(seed: u64) -> Self {
        SubscriptionStorm {
            monitored_peers: vec!["hub.net".into()],
            service: "http://backend.net".into(),
            methods: (0..8).map(|i| format!("Method{i}")).collect(),
            pattern_every: 2,
            residual_every: 4,
            slow_threshold_ms: 10,
            slow_fraction: 0.3,
            detail_fraction: 0.5,
            draws: Draws::new(seed),
        }
    }

    /// A storm spread round-robin over `peers` monitored hub peers
    /// (`hub0.net`, `hub1.net`, …), each hosting its own slice of the
    /// subscriptions.
    pub fn with_peers(seed: u64, peers: usize) -> Self {
        let mut storm = SubscriptionStorm::new(seed);
        storm.monitored_peers = (0..peers.max(1)).map(|i| format!("hub{i}.net")).collect();
        storm
    }

    /// The P2PML text of subscription `i`.
    pub fn subscription(&self, i: usize) -> String {
        let peer = &self.monitored_peers[i % self.monitored_peers.len().max(1)];
        outcom_subscription(
            &format!("<p>{peer}</p>"),
            &self.service,
            &self.methods[i % self.methods.len().max(1)],
            every(self.pattern_every, i),
            every(self.residual_every, i).then_some(self.slow_threshold_ms),
            &format!("sub=\"s{i}\""),
            i,
        )
    }

    /// The texts of subscriptions `0..n`.
    pub fn subscriptions(&self, n: usize) -> Vec<String> {
        (0..n).map(|i| self.subscription(i)).collect()
    }

    /// The next SOAP call of the matching traffic: one of the hubs calling
    /// the backend with a random method, sometimes slow, sometimes carrying
    /// the `<detail>` element the pattern subscriptions look for.
    pub fn next_call(&mut self) -> SoapCall {
        let hubs = &self.monitored_peers;
        self.draws.hub_call(
            &self.methods,
            |rng| &hubs[rng.gen_range(0..hubs.len())],
            &self.service,
            self.slow_threshold_ms,
            self.slow_fraction,
            self.detail_fraction,
        )
    }

    /// A batch of calls.
    pub fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_call()).collect()
    }
}

/// Many *overlapping* P2PML subscriptions: `n` subscriptions drawn from a
/// small pool of distinct **shapes**, where every subscription of one shape
/// is byte-identical except for its sink address.
///
/// This is the E7 stream-reuse workload: the first subscription of each
/// shape deploys the pipeline and publishes its stream definitions; with
/// `enable_reuse` on, every later duplicate is covered node by node up to
/// its root and collapses into a single live channel subscription on the
/// producer's output — so deployment cost, operator count and per-item
/// traffic stay bounded by the number of *shapes*, not the number of
/// subscriptions.  With reuse off, every duplicate redeploys and re-ships
/// its own copy, the baseline the savings are measured against.  Sink
/// output must be byte-identical either way.
#[derive(Debug, Clone)]
pub struct OverlappingStorm {
    /// The monitored hub peers; shape `k` watches `monitored_peers[k % len]`.
    pub monitored_peers: Vec<String>,
    /// The *consumer* (subscription-manager) peers, grouped cluster-major in
    /// blocks of [`OverlappingStorm::peers_per_cluster`]; subscription `i`
    /// is submitted at [`OverlappingStorm::manager_of`]`(i)`.  Empty for the
    /// classic storm (every subscription at one caller-chosen manager);
    /// populated by [`OverlappingStorm::clustered`], the replica-locality
    /// workload: consumers inside one cluster are network-close to each
    /// other and far from the monitored hubs, so a replica published by the
    /// first consumer of a cluster is the closest provider for the rest of
    /// it.
    pub consumer_peers: Vec<String>,
    /// Cluster size of `consumer_peers` (cluster of peer `j` is
    /// `j / peers_per_cluster`).
    pub peers_per_cluster: usize,
    /// Expected latency between two consumers of the same cluster (ms).
    pub intra_cluster_ms: u64,
    /// Expected latency of every other link (cross-cluster, and consumer ↔
    /// monitored hub) (ms).
    pub cross_cluster_ms: u64,
    /// Number of distinct subscription shapes; subscription `i` has shape
    /// `i % shapes`.
    pub shapes: usize,
    /// The callee every subscription's filter pins.
    pub service: String,
    /// Method vocabulary; shape `k` singles out `methods[k % len]`.
    pub methods: Vec<String>,
    /// Every `pattern_every`-th shape adds the `$c//detail` tree pattern
    /// (0 disables patterns).
    pub pattern_every: usize,
    /// Latency threshold for the residual shapes (ms).
    pub slow_threshold_ms: u64,
    /// Every `residual_every`-th shape adds a LET-derived duration residual
    /// (0 disables residuals).
    pub residual_every: usize,
    /// Fraction of generated calls slower than the threshold.
    pub slow_fraction: f64,
    /// Fraction of generated calls carrying a `<detail>` body element.
    pub detail_fraction: f64,
    /// Paired-hub mode: shape `k` watches *two* hubs (see
    /// [`OverlappingStorm::hub_pair_of_shape`]), so its plan is a union of
    /// two per-hub alerter streams — the multi-input workload the locality
    /// axis is measured on.
    pub paired_hubs: bool,
    /// Cumulative skewed hub-popularity distribution (empty ⇒ uniform
    /// traffic): with paired hubs, the two inputs of every union carry
    /// *different* measured rates, so where each union lands shows.
    hub_cdf: Vec<f64>,
    draws: Draws,
}

impl OverlappingStorm {
    /// A storm of `shapes` distinct shapes over one hub peer.
    pub fn new(seed: u64, shapes: usize) -> Self {
        OverlappingStorm {
            monitored_peers: vec!["hub.net".into()],
            consumer_peers: Vec::new(),
            peers_per_cluster: 1,
            intra_cluster_ms: 5,
            cross_cluster_ms: 100,
            shapes: shapes.max(1),
            service: "http://backend.net".into(),
            methods: (0..4).map(|i| format!("Method{i}")).collect(),
            pattern_every: 3,
            residual_every: 4,
            slow_threshold_ms: 10,
            slow_fraction: 0.3,
            detail_fraction: 0.5,
            paired_hubs: false,
            hub_cdf: Vec::new(),
            draws: Draws::new(seed),
        }
    }

    /// A storm spread round-robin over `peers` monitored hubs.
    pub fn with_peers(seed: u64, shapes: usize, peers: usize) -> Self {
        let mut storm = OverlappingStorm::new(seed, shapes);
        storm.monitored_peers = (0..peers.max(1)).map(|i| format!("hub{i}.net")).collect();
        storm
    }

    /// The replica-locality storm: consumers live on `clusters` ×
    /// `peers_per_cluster` distinct manager peers (`c<k>-peer<j>.org`),
    /// network-close inside a cluster and far from everything else (see
    /// [`OverlappingStorm::latency_model`]).  Subscription `i` keeps shape
    /// `i % shapes` but is submitted from `manager_of(i)`, so each shape's
    /// duplicates spread over every consumer peer — the workload where
    /// replica re-publication visibly moves fan-out off the origin hub.
    pub fn clustered(seed: u64, shapes: usize, clusters: usize, peers_per_cluster: usize) -> Self {
        let mut storm = OverlappingStorm::new(seed, shapes);
        storm.peers_per_cluster = peers_per_cluster.max(1);
        storm.consumer_peers = (0..clusters.max(1))
            .flat_map(|c| (0..peers_per_cluster.max(1)).map(move |p| format!("c{c}-peer{p}.org")))
            .collect();
        storm
    }

    /// The locality storm: `hubs` monitored hubs with **skewed** traffic
    /// (hub `h` carries weight `1/(h+1)`), clustered consumers as in
    /// [`OverlappingStorm::clustered`], and one shape per hub where shape
    /// `k` watches the **pair** of hubs `(k, (k + hubs/2) mod hubs)` — a
    /// union over two alerter streams with measurably different rates.
    ///
    /// The pairing leaves placement's task-count rule indifferent (each
    /// union input anchors exactly one task, so the tie falls to whichever
    /// hub is listed first); for shapes with `k >= hubs/2` the hotter hub
    /// is listed *second*, so those unions move the hot stream across the
    /// network.  Shapes `0..hubs/2` cover every hub between them —
    /// deploying them first and driving traffic lets the monitor measure
    /// every provider's load before the remaining shapes arrive.
    pub fn paired(seed: u64, hubs: usize, clusters: usize, peers_per_cluster: usize) -> Self {
        let hubs = hubs.max(2);
        let mut storm = OverlappingStorm::clustered(seed, hubs, clusters, peers_per_cluster);
        storm.monitored_peers = (0..hubs).map(|i| format!("hub{i}.net")).collect();
        storm.paired_hubs = true;
        storm.hub_cdf = zipf_cdf(hubs, 1.0);
        storm
    }

    /// The two hubs shape `k` watches in paired mode, in the order the
    /// subscription text lists them: `(k mod hubs, (k + hubs/2) mod hubs)`.
    /// With the harmonic traffic skew the first hub is the hotter one for
    /// `k < hubs/2` and the colder one after the wrap.
    pub fn hub_pair_of_shape(&self, shape: usize) -> (&str, &str) {
        let hubs = self.monitored_peers.len();
        let a = shape % hubs;
        let b = (a + (hubs / 2).max(1)) % hubs;
        (&self.monitored_peers[a], &self.monitored_peers[b])
    }

    /// The manager peer subscription `i` is submitted at: consumer peers
    /// rotate once per full round of shapes, so duplicates of one shape land
    /// on every consumer peer in turn.  Falls back to `"manager.org"` for
    /// the classic (un-clustered) storm.
    pub fn manager_of(&self, i: usize) -> &str {
        if self.consumer_peers.is_empty() {
            "manager.org"
        } else {
            &self.consumer_peers[(i / self.shapes) % self.consumer_peers.len()]
        }
    }

    /// The clustered latency model: links between two consumers of the same
    /// cluster cost [`OverlappingStorm::intra_cluster_ms`], every other link
    /// (cross-cluster, consumer ↔ hub) costs
    /// [`OverlappingStorm::cross_cluster_ms`].  This is the proximity
    /// function replica selection reads through
    /// `Network::expected_latency`.
    pub fn latency_model(&self) -> LatencyModel {
        clustered_latency(
            self.consumer_peers.chunks(self.peers_per_cluster),
            self.intra_cluster_ms,
            self.cross_cluster_ms,
        )
    }

    /// The P2PML text of subscription `i`.  Subscriptions with the same
    /// shape (`i % shapes`) differ only in the sink address.
    pub fn subscription(&self, i: usize) -> String {
        let shape = i % self.shapes;
        let sources = if self.paired_hubs {
            let (a, b) = self.hub_pair_of_shape(shape);
            format!("<p>{a}</p> <p>{b}</p>")
        } else {
            format!(
                "<p>{}</p>",
                self.monitored_peers[shape % self.monitored_peers.len()]
            )
        };
        outcom_subscription(
            &sources,
            &self.service,
            &self.methods[shape % self.methods.len()],
            every(self.pattern_every, shape),
            every(self.residual_every, shape).then_some(self.slow_threshold_ms),
            &format!("shape=\"g{shape}\""),
            i,
        )
    }

    /// The texts of subscriptions `0..n`.
    pub fn subscriptions(&self, n: usize) -> Vec<String> {
        (0..n).map(|i| self.subscription(i)).collect()
    }

    /// The next SOAP call of the matching traffic.  With the skewed hub
    /// distribution of [`OverlappingStorm::paired`], low-index hubs produce
    /// measurably more traffic than high-index ones; otherwise hubs are
    /// drawn uniformly.
    pub fn next_call(&mut self) -> SoapCall {
        let (hubs, cdf) = (&self.monitored_peers, &self.hub_cdf);
        self.draws.hub_call(
            &self.methods,
            |rng| {
                &hubs[if cdf.is_empty() {
                    rng.gen_range(0..hubs.len())
                } else {
                    weighted(cdf, hubs.len(), rng)
                }]
            },
            &self.service,
            self.slow_threshold_ms,
            self.slow_fraction,
            self.detail_fraction,
        )
    }

    /// A batch of calls.
    pub fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_call()).collect()
    }
}

/// The **scale tier**: `n` subscriptions at 1k/4k/10k over a clustered hub
/// topology sized from `n` itself, with **zipf-skewed shape popularity**.
///
/// The paper's scaling argument is peer-to-peer: a bigger monitored system
/// brings more peers, and the monitoring load spreads with it.  This
/// workload reproduces that trajectory — the hub count grows linearly with
/// the subscription count (`n / subs_per_hub` hubs in clusters of
/// [`MassiveStorm::hubs_per_cluster`]), each hub carries a bounded set of
/// shapes, and subscription popularity over the shapes follows a zipf law
/// (a few shapes have very many duplicates, most have few).  Duplicates of
/// one shape differ only in their sink, so stream reuse collapses them onto
/// shared live channels; the popular head of the zipf distribution is
/// exactly where reuse pays.  Each cluster has one manager peer
/// ([`MassiveStorm::manager_of`]) submitting its hubs' subscriptions, and
/// the monitor's Stream Definition Database routes every definition publish
/// and lookup through a Chord overlay sized to the peer count
/// ([`MassiveStorm::dht_nodes`]).
#[derive(Debug, Clone)]
pub struct MassiveStorm {
    /// Monitored hub peers, cluster-major: `c<k>-hub<j>.net`.
    pub monitored_peers: Vec<String>,
    /// Hubs per cluster (cluster of hub `h` is `h / hubs_per_cluster`).
    pub hubs_per_cluster: usize,
    /// Distinct subscription shapes; shape `k` watches hub `k % hubs`.
    pub shapes: usize,
    /// Zipf exponent of the shape-popularity distribution.
    pub zipf_exponent: f64,
    /// The callee every subscription's filter pins.
    pub service: String,
    /// Method vocabulary; shape `k` singles out `methods[k % len]`.
    pub methods: Vec<String>,
    /// Every `pattern_every`-th shape adds the `$c//detail` tree pattern.
    pub pattern_every: usize,
    /// Every `residual_every`-th shape adds a LET-derived duration residual.
    pub residual_every: usize,
    /// Latency threshold for the residual shapes (ms).
    pub slow_threshold_ms: u64,
    /// Fraction of generated calls slower than the threshold.
    pub slow_fraction: f64,
    /// Fraction of generated calls carrying a `<detail>` body element.
    pub detail_fraction: f64,
    /// Expected latency between peers of the same cluster (ms).
    pub intra_cluster_ms: u64,
    /// Expected latency of every other link (ms).
    pub cross_cluster_ms: u64,
    /// Cumulative zipf distribution over the shapes (precomputed).
    zipf_cdf: Vec<f64>,
    seed: u64,
    draws: Draws,
}

impl MassiveStorm {
    /// Subscriptions hosted per hub on average — the constant that makes
    /// per-peer load independent of the total subscription count.
    pub const SUBS_PER_HUB: usize = 64;
    /// Distinct shapes per hub.
    pub const SHAPES_PER_HUB: usize = 8;

    /// A storm sized for `n_subs` subscriptions: `max(1, n/64)` hubs in
    /// clusters of 8, `8` shapes per hub, zipf exponent 1.0.
    pub fn sized(seed: u64, n_subs: usize) -> Self {
        let hubs = (n_subs / Self::SUBS_PER_HUB).max(1);
        let hubs_per_cluster = 8usize.min(hubs);
        // Round up to whole clusters.
        let clusters = hubs.div_ceil(hubs_per_cluster);
        let hubs = clusters * hubs_per_cluster;
        let shapes = hubs * Self::SHAPES_PER_HUB;
        let zipf_exponent = 1.0;
        MassiveStorm {
            monitored_peers: (0..clusters)
                .flat_map(|c| (0..hubs_per_cluster).map(move |h| format!("c{c}-hub{h}.net")))
                .collect(),
            hubs_per_cluster,
            shapes,
            zipf_exponent,
            service: "http://backend.net".into(),
            methods: (0..Self::SHAPES_PER_HUB)
                .map(|i| format!("Method{i}"))
                .collect(),
            pattern_every: 3,
            residual_every: 4,
            slow_threshold_ms: 10,
            slow_fraction: 0.3,
            detail_fraction: 0.5,
            intra_cluster_ms: 5,
            cross_cluster_ms: 100,
            zipf_cdf: zipf_cdf(shapes, zipf_exponent),
            seed,
            draws: Draws::new(seed),
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.monitored_peers.len() / self.hubs_per_cluster
    }

    /// The manager peers, one per cluster: `c<k>-mgr.org`.
    pub fn manager_peers(&self) -> Vec<String> {
        (0..self.clusters())
            .map(|c| format!("c{c}-mgr.org"))
            .collect()
    }

    /// A Chord overlay sized to the physical peer count (hubs + managers):
    /// the monitor's definition lookups route through it, so lookup hops
    /// must stay logarithmic in this number.
    pub fn dht_nodes(&self) -> usize {
        self.monitored_peers.len() + self.clusters()
    }

    /// The shape of subscription `i`: a zipf draw, derived deterministically
    /// from the storm seed and `i` alone (the workload is a pure function of
    /// its seed).
    pub fn shape_of(&self, i: usize) -> usize {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
        );
        weighted(&self.zipf_cdf, self.shapes, &mut rng)
    }

    /// The hub shape `k` watches.
    pub fn hub_of_shape(&self, shape: usize) -> &str {
        &self.monitored_peers[shape % self.monitored_peers.len()]
    }

    /// The manager peer subscription `i` is submitted at: the manager of the
    /// cluster its watched hub lives in — submissions are cluster-local.
    pub fn manager_of(&self, i: usize) -> String {
        let hub = self.shape_of(i) % self.monitored_peers.len();
        format!("c{}-mgr.org", hub / self.hubs_per_cluster)
    }

    /// The clustered latency model (same-cluster links are close, every
    /// other link is far).
    pub fn latency_model(&self) -> LatencyModel {
        let clusters = (self.monitored_peers.chunks(self.hubs_per_cluster))
            .zip(self.manager_peers())
            .map(|(hubs, manager)| [hubs, &[manager]].concat());
        clustered_latency(clusters, self.intra_cluster_ms, self.cross_cluster_ms)
    }

    /// The P2PML text of subscription `i`.  Subscriptions with the same
    /// shape differ only in their sink address, so stream reuse collapses
    /// the zipf head onto shared live streams.
    pub fn subscription(&self, i: usize) -> String {
        let shape = self.shape_of(i);
        outcom_subscription(
            &format!("<p>{}</p>", self.hub_of_shape(shape)),
            &self.service,
            &self.methods[shape % self.methods.len()],
            every(self.pattern_every, shape),
            every(self.residual_every, shape).then_some(self.slow_threshold_ms),
            &format!("shape=\"g{shape}\""),
            i,
        )
    }

    /// The texts of subscriptions `0..n`.
    pub fn subscriptions(&self, n: usize) -> Vec<String> {
        (0..n).map(|i| self.subscription(i)).collect()
    }

    /// The next SOAP call of the matching traffic: a uniformly chosen hub
    /// calls the backend with a uniformly chosen method — load is spread
    /// over the whole (growing) hub population, which is what keeps the
    /// average per-alert cost flat as the system scales.
    pub fn next_call(&mut self) -> SoapCall {
        let hubs = &self.monitored_peers;
        self.draws.hub_call(
            &self.methods,
            |rng| &hubs[rng.gen_range(0..hubs.len())],
            &self.service,
            self.slow_threshold_ms,
            self.slow_fraction,
            self.detail_fraction,
        )
    }

    /// A batch of calls.
    pub fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_call()).collect()
    }
}

/// The **aggregation tier**: streaming-sketch subscriptions (`topk`,
/// `entropy`, `quantile`) over `n` monitored peers, against a ship-items
/// baseline that forwards every matching alert to the manager.
///
/// The sketch plane's claim is about *wire bytes*: a leaf sketch absorbs any
/// number of local events and forwards one bounded partial per dispatch
/// round, so the aggregate's network cost scales with rounds × tree edges
/// while the ship-items baseline scales with the event count.  This workload
/// reproduces the regime where that matters — a large monitored population
/// (`n` peers at 1k/4k/10k) of which a **fixed active window**
/// ([`SketchStorm::ACTIVE_PEERS`] peers) produces all the traffic of the
/// measurement window, with a **zipf-skewed method vocabulary** (the heavy
/// hitters `topk` must find) and service times drawn from a bounded
/// geometric grid (so `quantile` sees a realistic long-tailed latency
/// distribution).  Everything is a pure function of the seed: the same storm
/// drives the sketch-on monitor and the ship-items-off monitor with
/// byte-identical traffic, and the generated calls double as the exact
/// oracle the sketch answers are checked against.
#[derive(Debug, Clone)]
pub struct SketchStorm {
    /// Monitored peers: `s<i>.net`.
    pub monitored_peers: Vec<String>,
    /// The first `active_peers` peers receive all generated traffic — the
    /// "hot sites this window" set, fixed as the population grows (that
    /// fixedness is what makes the sketch plane's bytes sublinear in `n`).
    pub active_peers: usize,
    /// Method vocabulary; draws follow a zipf law over this list.
    pub methods: Vec<String>,
    /// Zipf exponent of the method-popularity distribution.
    pub zipf_exponent: f64,
    /// The geometric duration grid (ms) service times are drawn from.
    pub durations_ms: Vec<u64>,
    /// Cumulative zipf distribution over the methods (precomputed).
    method_cdf: Vec<f64>,
    draws: Draws,
}

impl SketchStorm {
    /// Peers that produce traffic during a measurement window.
    pub const ACTIVE_PEERS: usize = 200;
    /// Size of the method vocabulary.
    pub const METHODS: usize = 8;

    /// A storm over `n_peers` monitored peers with zipf exponent 1.2 over
    /// [`SketchStorm::METHODS`] methods and a 32-step geometric duration
    /// grid spanning roughly 2–200 ms.
    pub fn sized(seed: u64, n_peers: usize) -> Self {
        let n_peers = n_peers.max(1);
        let zipf_exponent = 1.2;
        SketchStorm {
            monitored_peers: (0..n_peers).map(|i| format!("s{i}.net")).collect(),
            active_peers: Self::ACTIVE_PEERS.min(n_peers),
            methods: (0..Self::METHODS).map(|i| format!("Method{i}")).collect(),
            zipf_exponent,
            durations_ms: (0..32)
                .map(|i| (2.0 * 1.16f64.powi(i)).round() as u64)
                .collect(),
            method_cdf: zipf_cdf(Self::METHODS, zipf_exponent),
            draws: Draws::new(seed),
        }
    }

    /// The manager peer the subscriptions are submitted at (and where the
    /// sketch root / the baseline's restructure stage run).
    pub fn manager(&self) -> &'static str {
        "mon.org"
    }

    /// A Chord overlay sized sublinearly to the peer count — the definition
    /// publishes of `n` aggregate sources route through it.
    pub fn dht_nodes(&self) -> usize {
        (self.monitored_peers.len() / 16).clamp(32, 640)
    }

    fn source_list(&self) -> String {
        self.monitored_peers
            .iter()
            .map(|p| format!("<p>{p}</p>"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The three aggregate subscriptions of the sketch plane: the `k`
    /// heaviest methods, the method-mix entropy, and the `q`-quantile of the
    /// call duration — each over **all** monitored peers, so the planner
    /// builds one merge tree per subscription spanning the population.
    pub fn aggregate_subscriptions(&self, k: usize, q: f64) -> Vec<String> {
        let list = self.source_list();
        vec![
            format!(
                "for $c in inCOM({list})\nreturn topk($c.callMethod, {k})\nby email \"agg-topk@mon.org\";"
            ),
            format!(
                "for $c in inCOM({list})\nreturn entropy($c.callMethod)\nby email \"agg-entropy@mon.org\";"
            ),
            format!(
                "for $c in inCOM({list})\nreturn quantile($c.duration, {q})\nby email \"agg-quantile@mon.org\";"
            ),
        ]
    }

    /// The ship-items baseline for active peer `i`: no aggregation, every
    /// matching alert is restructured at the manager — its select output
    /// crosses the wire once per event.
    pub fn ship_subscription(&self, i: usize) -> String {
        let peer = &self.monitored_peers[i];
        format!(
            "for $c in inCOM(<p>{peer}</p>)\nreturn <item method=\"{{$c.callMethod}}\" duration=\"{{$c.duration}}\"/>\nby email \"ship{i}@mon.org\";"
        )
    }

    /// Baseline subscriptions covering the whole active window.
    pub fn ship_subscriptions(&self) -> Vec<String> {
        (0..self.active_peers)
            .map(|i| self.ship_subscription(i))
            .collect()
    }

    /// The next call: a zipf-drawn method arrives at a uniformly chosen
    /// *active* peer, with a duration drawn from the geometric grid skewed
    /// toward the fast end (quadratic skew, so high quantiles land in the
    /// tail of the grid).
    pub fn next_call(&mut self) -> SoapCall {
        let rng = &mut self.draws.rng;
        let m = weighted(&self.method_cdf, self.methods.len(), rng);
        let peer = self.monitored_peers[rng.gen_range(0..self.active_peers)].clone();
        let v: f64 = rng.gen();
        let d_idx =
            ((v * v * self.durations_ms.len() as f64) as usize).min(self.durations_ms.len() - 1);
        let duration = self.durations_ms[d_idx];
        let (id, clock) = self.draws.tick(5);
        SoapCall::new(
            id,
            "http://client.org",
            peer,
            self.methods[m].clone(),
            clock,
            clock + duration,
        )
    }

    /// A batch of calls.
    pub fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n).map(|_| self.next_call()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soap_workload_is_seeded_and_shaped() {
        let mut a = SoapWorkload::meteo(1);
        let mut b = SoapWorkload::meteo(1);
        let calls_a = a.calls(200);
        let calls_b = b.calls(200);
        assert_eq!(calls_a, calls_b, "same seed, same traffic");
        let slow = calls_a
            .iter()
            .filter(|c| c.duration() > a.slow_threshold_ms)
            .count();
        assert!(
            slow > 10 && slow < 100,
            "slow fraction ≈ 20%, got {slow}/200"
        );
        assert!(calls_a.iter().all(|c| a.clients.contains(&c.caller)));
        assert!(calls_a.windows(2).all(|w| w[0].call_id < w[1].call_id));
    }

    #[test]
    fn massive_storm_topology_grows_with_the_subscription_count() {
        let small = MassiveStorm::sized(1, 1_000);
        // 1000/64 = 15 hubs, rounded up to 2 clusters of 8.
        assert_eq!(small.monitored_peers.len(), 16);
        assert_eq!(small.clusters(), 2);
        assert_eq!(small.shapes, 16 * MassiveStorm::SHAPES_PER_HUB);
        assert_eq!(small.dht_nodes(), 16 + 2);

        let large = MassiveStorm::sized(1, 10_000);
        // 10000/64 = 156 hubs, rounded up to 20 clusters of 8.
        assert_eq!(large.monitored_peers.len(), 160);
        assert_eq!(large.clusters(), 20);
        assert_eq!(large.dht_nodes(), 160 + 20);

        // Degenerate sizes still produce a whole topology.
        let tiny = MassiveStorm::sized(1, 1);
        assert_eq!(tiny.monitored_peers.len(), 1);
        assert_eq!(tiny.clusters(), 1);
        assert_eq!(tiny.manager_peers(), vec!["c0-mgr.org".to_string()]);
    }

    #[test]
    fn massive_storm_shapes_are_deterministic_and_zipf_skewed() {
        let storm = MassiveStorm::sized(7, 4_000);
        let again = MassiveStorm::sized(7, 4_000);
        let shapes: Vec<usize> = (0..4_000).map(|i| storm.shape_of(i)).collect();
        assert_eq!(
            shapes,
            (0..4_000).map(|i| again.shape_of(i)).collect::<Vec<_>>(),
            "shape assignment is a pure function of the seed"
        );
        // Zipf head: the most popular shape draws far more subscriptions
        // than a uniform split (4000 / 512 shapes ≈ 8) would.
        let mut counts = vec![0usize; storm.shapes];
        for &s in &shapes {
            counts[s] += 1;
        }
        let head = *counts.iter().max().unwrap();
        assert!(head > 50, "zipf head should dominate, got {head}");
        assert!(counts[0] > counts[storm.shapes / 2]);
    }

    #[test]
    fn massive_storm_subscriptions_share_shape_text_and_stay_cluster_local() {
        let storm = MassiveStorm::sized(3, 1_000);
        // Two subscriptions of the same shape are identical modulo the sink,
        // so stream reuse collapses them onto one physical stream.
        let (i, j) = {
            let mut found = None;
            'outer: for a in 0..200 {
                for b in (a + 1)..200 {
                    if storm.shape_of(a) == storm.shape_of(b) {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("zipf skew guarantees a shared shape in 200 draws")
        };
        let body = |i: usize| storm.subscription(i).replace(&format!("watch{i}"), "watch");
        assert_eq!(body(i), body(j), "same shape, same text modulo sink");
        // The submitting manager is in the same cluster as the watched hub.
        let hub = storm.hub_of_shape(storm.shape_of(i));
        let cluster: String = storm.manager_of(i);
        let hub_cluster = hub
            .strip_prefix('c')
            .and_then(|rest| rest.split('-').next())
            .expect("hub names are c<k>-hub<j>.net");
        assert_eq!(cluster, format!("c{hub_cluster}-mgr.org"));
        // Subscription text watches that hub.
        assert!(storm.subscription(i).contains(hub));
    }

    #[test]
    fn massive_storm_calls_target_monitored_hubs() {
        let mut storm = MassiveStorm::sized(5, 1_000);
        let calls = storm.calls(300);
        assert!(calls.iter().all(|c| {
            c.caller
                .strip_prefix("http://")
                .is_some_and(|peer| storm.monitored_peers.iter().any(|hub| hub == peer))
        }));
        let slow = calls
            .iter()
            .filter(|c| c.duration() > storm.slow_threshold_ms)
            .count();
        assert!(
            slow > 40 && slow < 160,
            "slow fraction ≈ 30%, got {slow}/300"
        );
        let mut replay = MassiveStorm::sized(5, 1_000);
        assert_eq!(calls, replay.calls(300), "same seed, same traffic");
    }

    #[test]
    fn telecom_workload_uses_many_clients() {
        let mut w = SoapWorkload::telecom(25, 3);
        let calls = w.calls(100);
        let distinct: std::collections::HashSet<&str> =
            calls.iter().map(|c| c.caller.as_str()).collect();
        assert!(distinct.len() > 5);
    }

    #[test]
    fn rss_workload_adds_and_modifies_entries() {
        let mut w = RssWorkload::new("http://portal/feed", 3, 9);
        let s0 = w.snapshot();
        assert_eq!(count_items(&s0), 3);
        let s1 = w.step();
        assert_eq!(count_items(&s1), 4);
        for _ in 0..40 {
            w.step();
        }
        assert!(count_items(&w.snapshot()) <= w.max_entries);
    }

    fn count_items(feed: &Element) -> usize {
        feed.child("channel")
            .unwrap()
            .children_named("item")
            .count()
    }

    #[test]
    fn edos_workload_skews_package_popularity() {
        let mut w = EdosWorkload::new(10, 100, 4);
        let queries = w.queries(500);
        let first_decile = queries
            .iter()
            .filter(|q| {
                q.body
                    .as_ref()
                    .map(|b| {
                        let name = b.text();
                        name.strip_prefix("pkg-")
                            .and_then(|n| n.parse::<usize>().ok())
                            .map(|n| n < 10)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false)
            })
            .count();
        assert!(
            first_decile > 100,
            "popular packages should dominate, got {first_decile}/500"
        );
        assert_eq!(w.metadata(5).children_named("pkg").count(), 5);
    }

    #[test]
    fn subscription_storm_texts_compile_and_share_the_prefix() {
        let storm = SubscriptionStorm::new(3);
        for (i, text) in storm.subscriptions(16).iter().enumerate() {
            let plan = p2pmon_p2pml::compile_subscription(text)
                .unwrap_or_else(|e| panic!("subscription {i} must compile: {e:?}\n{text}"));
            assert_eq!(plan.peers(), vec!["hub.net".to_string()]);
            assert!(text.contains("$c.callee = \"http://backend.net\""));
        }
        // Pattern / residual fractions are honoured.
        assert!(storm.subscription(0).contains("$c//detail"));
        assert!(storm.subscription(0).contains("let $d"));
        assert!(!storm.subscription(1).contains("$c//detail"));
        assert!(!storm.subscription(1).contains("let $d"));
    }

    #[test]
    fn subscription_storm_traffic_matches_the_vocabulary() {
        let mut storm = SubscriptionStorm::new(5);
        let calls = storm.calls(200);
        assert!(calls.iter().all(|c| c.caller == "http://hub.net"));
        assert!(calls.iter().all(|c| c.callee == "http://backend.net"));
        let slow = calls
            .iter()
            .filter(|c| c.duration() > storm.slow_threshold_ms)
            .count();
        assert!(slow > 20 && slow < 120, "slow ≈ 30%, got {slow}/200");
        let with_detail = calls.iter().filter(|c| c.body.is_some()).count();
        assert!(with_detail > 50, "detail ≈ 50%, got {with_detail}/200");
        let mut replay = SubscriptionStorm::new(5);
        assert_eq!(replay.calls(200), calls, "same seed, same traffic");
    }

    #[test]
    fn overlapping_storm_duplicates_differ_only_in_their_sink() {
        let storm = OverlappingStorm::new(7, 4);
        for (i, text) in storm.subscriptions(16).iter().enumerate() {
            p2pmon_p2pml::compile_subscription(text)
                .unwrap_or_else(|e| panic!("subscription {i} must compile: {e:?}\n{text}"));
        }
        // Same shape ⇒ identical up to the sink address.
        let a = storm.subscription(1);
        let b = storm.subscription(5);
        assert_ne!(a, b);
        assert_eq!(
            a.replace("watch1@example.org", ""),
            b.replace("watch5@example.org", ""),
            "shape duplicates must be byte-identical except for the sink"
        );
        // Different shapes differ in their filter or template.
        assert_ne!(
            storm.subscription(0).replace("watch0@example.org", ""),
            storm.subscription(1).replace("watch1@example.org", "")
        );
        // Deterministic traffic.
        let calls = OverlappingStorm::new(9, 4).calls(100);
        assert_eq!(OverlappingStorm::new(9, 4).calls(100), calls);
        assert!(calls.iter().all(|c| c.callee == "http://backend.net"));
    }

    #[test]
    fn clustered_storm_spreads_consumers_and_shapes_latency() {
        let storm = OverlappingStorm::clustered(3, 4, 2, 3);
        assert_eq!(storm.consumer_peers.len(), 6);
        // One full round of shapes per consumer peer, then rotate.
        assert_eq!(storm.manager_of(0), "c0-peer0.org");
        assert_eq!(storm.manager_of(3), "c0-peer0.org");
        assert_eq!(storm.manager_of(4), "c0-peer1.org");
        assert_eq!(storm.manager_of(4 * 6), "c0-peer0.org", "full cycle");
        assert_eq!(storm.manager_of(4 * 3), "c1-peer0.org", "second cluster");
        // Subscriptions still compile.
        for text in storm.subscriptions(8) {
            p2pmon_p2pml::compile_subscription(&text).expect("clustered texts compile");
        }
        // Intra-cluster links are close, everything else far.
        let model = storm.latency_model();
        let sampler = p2pmon_net::latency::LatencySampler::new(model);
        assert_eq!(sampler.expected("c0-peer0.org", "c0-peer2.org"), 5);
        assert_eq!(sampler.expected("c0-peer0.org", "c1-peer0.org"), 100);
        assert_eq!(sampler.expected("c0-peer0.org", "hub.net"), 100);
        // The classic storm keeps the single-manager behaviour.
        assert_eq!(OverlappingStorm::new(1, 2).manager_of(7), "manager.org");
    }

    #[test]
    fn paired_storm_unions_two_hubs_and_skews_their_traffic() {
        let storm = OverlappingStorm::paired(3, 8, 2, 4);
        assert_eq!(storm.shapes, 8);
        assert_eq!(storm.monitored_peers.len(), 8);
        // Shape k watches hubs (k, k+4 mod 8); texts compile to a union of
        // two per-hub alerters.
        assert_eq!(storm.hub_pair_of_shape(0), ("hub0.net", "hub4.net"));
        assert_eq!(storm.hub_pair_of_shape(6), ("hub6.net", "hub2.net"));
        for i in 0..8 {
            let text = storm.subscription(i);
            let (a, b) = storm.hub_pair_of_shape(i);
            assert!(text.contains(&format!("<p>{a}</p> <p>{b}</p>")));
            let plan =
                p2pmon_p2pml::compile_subscription(&text).expect("paired texts must compile");
            let mut watched = plan.peers();
            watched.sort();
            let mut expected = vec![a.to_string(), b.to_string()];
            expected.sort();
            assert_eq!(watched, expected);
        }
        // The first half of the shapes covers every hub between them, so a
        // warmup over shapes 0..hubs/2 measures every hub's rate.
        let covered: std::collections::HashSet<&str> = (0..4)
            .flat_map(|k| {
                let (a, b) = storm.hub_pair_of_shape(k);
                [a, b]
            })
            .collect();
        assert_eq!(covered.len(), 8);
        // Harmonic skew: hub0 produces several times hub7's traffic.
        let mut traffic = storm.clone();
        let calls = traffic.calls(2_000);
        let count = |hub: &str| {
            calls
                .iter()
                .filter(|c| c.caller == format!("http://{hub}"))
                .count()
        };
        assert!(
            count("hub0.net") > 3 * count("hub7.net").max(1),
            "hub0 {} vs hub7 {}",
            count("hub0.net"),
            count("hub7.net")
        );
        // Deterministic traffic, and every call comes from a monitored hub.
        assert_eq!(OverlappingStorm::paired(3, 8, 2, 4).calls(2_000), calls);
        assert!(calls.iter().all(|c| {
            c.caller
                .strip_prefix("http://")
                .is_some_and(|p| storm.monitored_peers.iter().any(|hub| hub == p))
        }));
    }

    #[test]
    fn sketch_storm_is_deterministic_and_method_skewed() {
        let mut a = SketchStorm::sized(5, 1_000);
        let mut b = SketchStorm::sized(5, 1_000);
        let calls = a.calls(2_000);
        assert_eq!(b.calls(2_000), calls, "same seed, same traffic");
        // Traffic stays inside the fixed active window.
        let active: std::collections::HashSet<&String> =
            a.monitored_peers[..a.active_peers].iter().collect();
        assert!(calls.iter().all(|c| active.contains(&c.callee)));
        // Zipf skew: the head method dominates a uniform split (2000/8).
        let head = calls.iter().filter(|c| c.method == a.methods[0]).count();
        assert!(head > 500, "zipf head must dominate, got {head}/2000");
        // Durations come off the grid and span the tail.
        let grid: std::collections::HashSet<u64> = a.durations_ms.iter().copied().collect();
        assert!(calls.iter().all(|c| grid.contains(&c.duration())));
        let max = calls.iter().map(|c| c.duration()).max().unwrap();
        assert!(max > 50, "the long tail must be exercised, got max {max}");
    }

    #[test]
    fn sketch_storm_subscriptions_compile_over_the_whole_population() {
        let storm = SketchStorm::sized(5, 64);
        for text in storm.aggregate_subscriptions(5, 0.99) {
            let plan = p2pmon_p2pml::compile_subscription(&text)
                .unwrap_or_else(|e| panic!("aggregate must compile: {e:?}\n{text}"));
            assert_eq!(plan.peers().len(), 64, "aggregates span every peer");
        }
        for text in storm.ship_subscriptions() {
            p2pmon_p2pml::compile_subscription(&text).expect("baseline texts compile");
        }
        // Small populations shrink the active window with them.
        assert_eq!(SketchStorm::sized(5, 64).active_peers, 64);
        assert_eq!(
            SketchStorm::sized(5, 10_000).active_peers,
            SketchStorm::ACTIVE_PEERS
        );
        assert_eq!(SketchStorm::sized(5, 10_000).dht_nodes(), 625);
    }

    #[test]
    fn subscription_workload_produces_valid_subscriptions_and_documents() {
        let mut w = SubscriptionWorkload::new(11);
        let subs = w.subscriptions(200);
        assert_eq!(subs.len(), 200);
        let complex = subs.iter().filter(|s| !s.is_simple()).count();
        assert!(
            complex > 20 && complex < 120,
            "complex fraction ≈ 30%, got {complex}"
        );
        let docs = w.documents(50, 4, 3);
        assert_eq!(docs.len(), 50);
        // Some subscription matches some document (the vocabularies overlap).
        let mut engine = p2pmon_filter::FilterEngine::from_subscriptions(subs);
        let matches: usize = docs.iter().map(|d| engine.process(d).matched.len()).sum();
        assert!(matches > 0);
    }
}
