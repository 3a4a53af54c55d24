//! The five workloads: what each deploys, what traffic it injects, and — for
//! the oracle — which injected calls each subscription must answer.
//!
//! Every workload is the same closed loop with one client (see
//! [`crate::driver`]); they differ only in the [`Sizes`] of that loop and in
//! the [`Generator`] feeding it.  Sizes are fixed operation counts scaled by
//! `--seconds` (calibrated so the timed operations take about that long on
//! the 2-core reference host): counts, not the clock, end a run, so wire,
//! memory and result totals repeat exactly for a seed.

use p2pmon_alerters::SoapCall;
use p2pmon_net::LatencyModel;
use p2pmon_workloads::{MassiveStorm, OverlappingStorm, SketchStorm};
use p2pmon_xmlkit::Element;

/// Peers, link latencies and DHT size of a workload — the only three things
/// the benchmark sets on top of `MonitorConfig::default()`.
pub struct Topology {
    pub peers: Vec<String>,
    pub latency: LatencyModel,
    pub dht_nodes: usize,
}

/// What the body of a call must look like for a tree-pattern condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BodyPattern {
    /// No pattern condition.
    Any,
    /// `$c//name`.
    Descendant(String),
    /// `$c//parent/child`.
    Step(String, String),
}

impl BodyPattern {
    fn matches(&self, body: Option<&Element>) -> bool {
        let found = |test: &dyn Fn(&Element) -> bool| {
            let mut hit = false;
            if let Some(body) = body {
                body.walk(&mut |e| hit |= test(e));
            }
            hit
        };
        match self {
            BodyPattern::Any => true,
            BodyPattern::Descendant(name) => found(&|e| e.name == *name),
            BodyPattern::Step(parent, child) => {
                found(&|e| e.name == *parent && e.child(child).is_some())
            }
        }
    }
}

/// The calls an item subscription returns one result for, written down from
/// the generator's own parameters — never learned from a monitor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// `SoapCall::caller` of the watched `outCOM` hub.
    pub caller: String,
    pub method: String,
    pub callee: String,
    /// `duration > n`, when the subscription has a latency condition.
    pub duration_above: Option<u64>,
    pub body: BodyPattern,
}

impl Predicate {
    pub fn matches(&self, call: &SoapCall) -> bool {
        call.caller == self.caller
            && call.method == self.method
            && call.callee == self.callee
            && self.duration_above.is_none_or(|t| call.duration() > t)
            && self.body.matches(call.body.as_ref())
    }
}

/// What the oracle checks a subscription's sink against.
#[derive(Debug, Clone, PartialEq)]
pub enum Expectation {
    /// One result per matching call injected while the subscription is live.
    Items(Predicate),
    /// The `k` heaviest call methods over every injected call.
    TopK(usize),
    /// The entropy (bits) of the call-method mix.
    Entropy,
    /// The `q`-quantile of the call duration.
    Quantile(f64),
}

/// One subscription as the driver submits it.
pub struct Subscription {
    pub manager: String,
    pub text: String,
    pub expect: Expectation,
}

/// A seeded source of subscriptions and traffic.
pub trait Generator {
    fn topology(&self) -> Topology;
    /// Subscription `i`; the standing ones come first, churn arrivals after.
    fn subscription(&self, i: usize) -> Subscription;
    /// The next `n` calls of the traffic stream.
    fn calls(&mut self, n: usize) -> Vec<SoapCall>;
}

/// The shape of one repetition of a workload's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Fresh monitors the loop is repeated on (samples are pooled).
    pub repetitions: usize,
    /// Subscriptions deployed, one timed `submit` each, during set-up.
    pub standing: usize,
    /// Alerts injected and drained, untimed, before the timed window.
    pub warmup_alerts: usize,
    /// Timed steps per repetition.
    pub steps: usize,
    /// Alerts injected per step (the stated batch size `B`).
    pub batch: usize,
    /// Subscriptions retired (oldest first) and submitted per step.
    pub churn: usize,
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    sizes: fn(u64) -> Sizes,
    generator: fn(u64) -> Box<dyn Generator>,
}

impl Workload {
    /// Loop sizes for a run asked to measure for `seconds`.
    pub fn sizes(&self, seconds: u64) -> Sizes {
        (self.sizes)(seconds.max(1))
    }

    pub fn generator(&self, seed: u64) -> Box<dyn Generator> {
        (self.generator)(seed)
    }
}

/// `per_ten` operations per 10 s of requested measurement, at least one.
fn scaled(per_ten: usize, seconds: u64) -> usize {
    (per_ten * seconds as usize).div_ceil(10).max(1)
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "alert_storm",
        why: "alert lifetime at the 10k-subscription tier, where reuse leaves 2 selects per hub: \
              core dispatch, multicast and sink copies do the work, filter almost none",
        sizes: |s| Sizes {
            repetitions: 5,
            standing: 10_000,
            warmup_alerts: 2_000,
            steps: scaled(260, s),
            batch: 256,
            churn: 0,
        },
        generator: |seed| Box::new(Massive(MassiveStorm::sized(seed, 10_000))),
    },
    Workload {
        name: "filter_storm",
        why: "6000 distinct WHERE clauses over 4 hubs that reuse cannot collapse: the staged \
              preFilter/AES/YFilter engine and xmlkit pattern evaluation dominate the alert path",
        sizes: |s| Sizes {
            repetitions: 4,
            standing: FilterStorm::SUBSCRIPTIONS,
            warmup_alerts: 2_000,
            steps: scaled(220, s),
            batch: 128,
            churn: 0,
        },
        generator: |seed| Box::new(FilterStorm::new(seed)),
    },
    Workload {
        name: "subscribe_storm",
        why: "subscription lifetime: 10k submits then 10k unsubscribes per fresh monitor drive \
              p2pml, placement, reuse search and the DHT; alert-path changes must not move it",
        sizes: |s| Sizes {
            repetitions: 6,
            standing: 10_000,
            warmup_alerts: 256,
            steps: scaled(200, s),
            batch: 256,
            churn: 0,
        },
        generator: |seed| Box::new(Massive(MassiveStorm::sized(seed, 10_000))),
    },
    Workload {
        name: "churn_mix",
        why: "writes beside reads: each step retires 8 subscriptions, deploys 8 and dispatches 64 \
              alerts over a fan-out-heavy replica topology, so a gain that taxes the other side shows",
        sizes: |s| Sizes {
            repetitions: 6,
            standing: 1_024,
            warmup_alerts: 512,
            steps: scaled(240, s),
            batch: 64,
            churn: 8,
        },
        generator: |seed| Box::new(Churn::new(seed)),
    },
    Workload {
        name: "sketch_rollup",
        why: "aggregate plane: sketch updates, merge-tree traffic and round-boundary flushes over \
              10k peers, bypassing selects, reuse and sinks almost entirely",
        sizes: |s| Sizes {
            repetitions: 5,
            standing: 3,
            warmup_alerts: 2_000,
            steps: scaled(40, s),
            batch: 1_000,
            churn: 0,
        },
        generator: |seed| Box::new(Sketch(SketchStorm::sized(seed, 10_000))),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The shape → predicate rule `MassiveStorm` and `OverlappingStorm` share:
/// every `pattern_every`-th shape wants a `<detail>` body, every
/// `residual_every`-th a duration above the slow threshold.
fn storm_predicate(
    shape: usize,
    hub: &str,
    methods: &[String],
    service: &str,
    pattern_every: usize,
    residual_every: usize,
    slow_threshold_ms: u64,
) -> Predicate {
    let every = |n: usize| n > 0 && shape.is_multiple_of(n);
    Predicate {
        caller: format!("http://{hub}"),
        method: methods[shape % methods.len()].clone(),
        callee: service.to_string(),
        duration_above: every(residual_every).then_some(slow_threshold_ms),
        body: if every(pattern_every) {
            BodyPattern::Descendant("detail".into())
        } else {
            BodyPattern::Any
        },
    }
}

/// `alert_storm` and `subscribe_storm`: the zipf-skewed scale tier.
struct Massive(MassiveStorm);

impl Generator for Massive {
    fn topology(&self) -> Topology {
        let mut peers = self.0.monitored_peers.clone();
        peers.extend(self.0.manager_peers());
        Topology {
            peers,
            latency: self.0.latency_model(),
            dht_nodes: self.0.dht_nodes(),
        }
    }

    fn subscription(&self, i: usize) -> Subscription {
        let storm = &self.0;
        let shape = storm.shape_of(i);
        Subscription {
            manager: storm.manager_of(i),
            text: storm.subscription(i),
            expect: Expectation::Items(storm_predicate(
                shape,
                storm.hub_of_shape(shape),
                &storm.methods,
                &storm.service,
                storm.pattern_every,
                storm.residual_every,
                storm.slow_threshold_ms,
            )),
        }
    }

    fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        self.0.calls(n)
    }
}

/// `churn_mix`: 16 shapes over 8 hubs, duplicates spread over 8 clusters of
/// 8 consumer peers, so every shape's stream is replicated into every
/// cluster and each arrival or departure re-attaches consumers.
struct Churn(OverlappingStorm);

impl Churn {
    const HUBS: usize = 8;

    fn new(seed: u64) -> Self {
        let mut storm = OverlappingStorm::clustered(seed, 16, 8, 8);
        storm.monitored_peers = (0..Self::HUBS).map(|h| format!("hub{h}.net")).collect();
        Churn(storm)
    }
}

impl Generator for Churn {
    fn topology(&self) -> Topology {
        let mut peers = self.0.monitored_peers.clone();
        peers.extend(self.0.consumer_peers.iter().cloned());
        Topology {
            dht_nodes: peers.len(),
            peers,
            latency: self.0.latency_model(),
        }
    }

    fn subscription(&self, i: usize) -> Subscription {
        let storm = &self.0;
        let shape = i % storm.shapes;
        Subscription {
            manager: storm.manager_of(i).to_string(),
            text: storm.subscription(i),
            expect: Expectation::Items(storm_predicate(
                shape,
                &storm.monitored_peers[shape % storm.monitored_peers.len()],
                &storm.methods,
                &storm.service,
                storm.pattern_every,
                storm.residual_every,
                storm.slow_threshold_ms,
            )),
        }
    }

    fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        self.0.calls(n)
    }
}

/// `sketch_rollup`: three aggregates whose merge trees span 10k peers.
struct Sketch(SketchStorm);

impl Sketch {
    const TOP_K: usize = 3;
    const QUANTILE: f64 = 0.99;
}

impl Generator for Sketch {
    fn topology(&self) -> Topology {
        let mut peers = vec![self.0.manager().to_string()];
        peers.extend(self.0.monitored_peers.iter().cloned());
        Topology {
            peers,
            latency: LatencyModel::default(),
            dht_nodes: self.0.dht_nodes(),
        }
    }

    fn subscription(&self, i: usize) -> Subscription {
        let mut texts = self.0.aggregate_subscriptions(Self::TOP_K, Self::QUANTILE);
        Subscription {
            manager: self.0.manager().to_string(),
            text: texts.swap_remove(i),
            expect: match i {
                0 => Expectation::TopK(Self::TOP_K),
                1 => Expectation::Entropy,
                _ => Expectation::Quantile(Self::QUANTILE),
            },
        }
    }

    fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        self.0.calls(n)
    }
}

/// SplitMix64: all the randomness `filter_storm` needs, a pure function of
/// the seed with no dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `filter_storm`: the benchmark's own generator.  Every subscription has a
/// WHERE clause no other has — a `callMethod` × `callee` pair out of
/// 32 × 32, a `duration >` threshold, and on every second one a two-step
/// tree pattern — so reuse finds nothing to share and each of the 4 hubs
/// hosts 1500 registered selects, well past the engines' promotion point.
struct FilterStorm {
    rng: SplitMix64,
    next_id: u64,
    clock: u64,
}

impl FilterStorm {
    const SUBSCRIPTIONS: usize = 6_000;
    const HUBS: usize = 4;
    const METHODS: usize = 32;
    const CALLEES: usize = 32;
    const PATTERN_KEYS: usize = 8;
    const MANAGER: &'static str = "f-mgr.org";

    fn new(seed: u64) -> Self {
        FilterStorm {
            rng: SplitMix64(seed),
            next_id: 0,
            clock: 1_000,
        }
    }

    fn hub(h: usize) -> String {
        format!("f-hub{h}.net")
    }

    fn callee(j: usize) -> String {
        format!("http://svc{j}.net")
    }

    /// The two pattern families: `order/item<k>` and `detail/k<k>`.
    fn pattern(family: usize, key: usize) -> (String, String) {
        if family == 0 {
            ("order".into(), format!("item{key}"))
        } else {
            ("detail".into(), format!("k{key}"))
        }
    }
}

impl Generator for FilterStorm {
    fn topology(&self) -> Topology {
        let mut peers: Vec<String> = (0..Self::HUBS).map(Self::hub).collect();
        peers.push(Self::MANAGER.into());
        Topology {
            dht_nodes: 32,
            peers,
            latency: LatencyModel::default(),
        }
    }

    fn subscription(&self, i: usize) -> Subscription {
        let hub = Self::hub(i % Self::HUBS);
        // `slot` walks the hub's (method, callee) grid; the second lap over
        // the grid is told apart by its threshold.
        let slot = i / Self::HUBS;
        let method = format!("M{}", slot % Self::METHODS);
        let callee = Self::callee(slot / Self::METHODS % Self::CALLEES);
        let lap = slot / (Self::METHODS * Self::CALLEES);
        let threshold = 8 + 12 * lap as u64 + (slot % 3) as u64 * 4;
        let pattern = slot
            .is_multiple_of(2)
            .then(|| Self::pattern(slot / 2 % 2, slot / 4 % Self::PATTERN_KEYS));
        let mut text = format!(
            "for $c in outCOM(<p>{hub}</p>)\nwhere $c.callMethod = \"{method}\" and \
             $c.callee = \"{callee}\" and $c.duration > {threshold}"
        );
        if let Some((parent, child)) = &pattern {
            text.push_str(&format!(" and $c//{parent}/{child}"));
        }
        text.push_str(&format!(
            "\nreturn <hit sub=\"f{i}\" method=\"{{$c.callMethod}}\"/>\nby email \"f{i}@example.org\";"
        ));
        Subscription {
            manager: Self::MANAGER.into(),
            text,
            expect: Expectation::Items(Predicate {
                caller: format!("http://{hub}"),
                method,
                callee,
                duration_above: Some(threshold),
                body: match pattern {
                    Some((parent, child)) => BodyPattern::Step(parent, child),
                    None => BodyPattern::Any,
                },
            }),
        }
    }

    fn calls(&mut self, n: usize) -> Vec<SoapCall> {
        (0..n)
            .map(|_| {
                let hub = Self::hub(self.rng.below(Self::HUBS));
                let method = format!("M{}", self.rng.below(Self::METHODS));
                let callee = Self::callee(self.rng.below(Self::CALLEES));
                self.clock += 1 + self.rng.below(20) as u64;
                let duration = 1 + self.rng.below(40) as u64;
                let (parent, child) =
                    Self::pattern(self.rng.below(2), self.rng.below(Self::PATTERN_KEYS));
                let mut body = Element::new(parent);
                body.push_element(Element::new(child));
                let id = self.next_id;
                self.next_id += 1;
                SoapCall::new(
                    id,
                    format!("http://{hub}"),
                    callee,
                    method,
                    self.clock,
                    self.clock + duration,
                )
                .with_body(body)
            })
            .collect()
    }
}
