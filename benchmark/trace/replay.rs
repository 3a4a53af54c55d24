//! The layer replay: the workload's own inputs — its subscription texts and
//! its calls, regenerated from the seed — fed to each layer's public
//! functions on their own, outside any monitor.
//!
//! A replayed time is the median over a few passes of the mean per item, so
//! one disturbed pass cannot move it.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use p2pmon_alerters::{CallDirection, SoapCall, WsAlerter};
use p2pmon_benchmark::stats::median;
use p2pmon_benchmark::workloads::{Sizes, Subscription, Topology, Workload};
use p2pmon_core::reuse::select_parameters;
use p2pmon_core::{place, push_selections_below_unions, PlacedPlan, PlacementStrategy, TaskKind};
use p2pmon_dht::{ChordNetwork, StreamDefinition, StreamDefinitionDatabase};
use p2pmon_filter::{FilterEngine, FilterSubscription, SubscriptionId};
use p2pmon_net::{Network, NetworkConfig};
use p2pmon_p2pml::{compile_subscription, LogicalPlan};
use p2pmon_streams::{AnySketch, Bindings};
use p2pmon_xmlkit::{parse, Element};

const PASSES: usize = 5;
const SAMPLE_CALLS: usize = 4_096;
const DHT_SAMPLE: usize = 1_000;
const NET_BURST: usize = 64;
const SKETCH_LEAVES: usize = 16;

/// What the replay measured; a layer the workload never enters reads 0.
#[derive(Debug, Default, Clone)]
pub struct Replayed {
    pub byte_size_ns_per_doc: f64,
    pub serialize_ns_per_doc: f64,
    pub parse_ns_per_doc: f64,
    pub pattern_eval_ns_per_doc: f64,
    pub doc_bytes_mean: f64,
    pub byte_size_error_share: f64,
    pub alert_for_ns_per_call: f64,
    pub place_us_per_sub: f64,
    pub filter_match_ns_per_doc: f64,
    pub filter_add_us_per_sub: f64,
    pub filter_remove_us_per_sub: f64,
    pub net_send_deliver_ns_per_msg: f64,
    pub dht_publish_us_per_def: f64,
    pub dht_find_us_per_lookup: f64,
    pub sketch_update_ns_per_item: f64,
    pub sketch_merge_us_per_partial: f64,
    pub partial_bytes_mean: f64,
    pub template_ns_per_item: f64,
}

/// Median over [`PASSES`] passes of `pass()`'s nanoseconds, per `items`.
fn per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

fn strip_scheme(peer: &str) -> &str {
    peer.strip_prefix("http://").unwrap_or(peer)
}

/// One compiled and placed subscription of the sample.
struct Placed {
    manager: String,
    plan: LogicalPlan,
    placed: PlacedPlan,
}

pub fn replay(workload: &Workload, sizes: &Sizes, seed: u64) -> Replayed {
    let mut generator = workload.generator(seed);
    let subscriptions: Vec<Subscription> = (0..sizes.standing)
        .map(|i| generator.subscription(i))
        .collect();
    let calls = generator.calls(SAMPLE_CALLS);
    let topology = generator.topology();
    let mut out = Replayed::default();

    // core: push-down and placement of every standing plan.
    let plans: Vec<(String, LogicalPlan)> = subscriptions
        .iter()
        .filter_map(|s| {
            let plan = compile_subscription(&s.text).ok()?;
            Some((
                s.manager.clone(),
                LogicalPlan {
                    root: push_selections_below_unions(plan.root),
                    by: plan.by,
                    distinct: plan.distinct,
                },
            ))
        })
        .collect();
    out.place_us_per_sub = per_item(plans.len(), || {
        for (manager, plan) in &plans {
            black_box(place(plan, manager, PlacementStrategy::PushToSources));
        }
    }) / 1e3;
    let placed: Vec<Placed> = plans
        .into_iter()
        .map(|(manager, plan)| Placed {
            placed: place(&plan, &manager, PlacementStrategy::PushToSources),
            manager,
            plan,
        })
        .collect();

    // The alerts the monitor would build from the sampled calls, per
    // watched peer.
    let direction = placed
        .iter()
        .flat_map(|p| &p.placed.tasks)
        .find_map(|t| match &t.kind {
            TaskKind::Source { function, .. } if function == "inCOM" => {
                Some(CallDirection::Incoming)
            }
            TaskKind::Source { .. } => Some(CallDirection::Outgoing),
            _ => None,
        })
        .unwrap_or(CallDirection::Outgoing);
    out.alert_for_ns_per_call = per_item(calls.len(), || {
        for call in &calls {
            black_box(WsAlerter::alert_for(call, direction));
        }
    });
    let watched = |call: &SoapCall| -> String {
        strip_scheme(match direction {
            CallDirection::Incoming => &call.callee,
            CallDirection::Outgoing => &call.caller,
        })
        .to_string()
    };
    let docs: Vec<(String, Arc<Element>)> = calls
        .iter()
        .map(|c| (watched(c), Arc::new(WsAlerter::alert_for(c, direction))))
        .collect();

    let dht_nodes = topology.dht_nodes;
    xmlkit(&docs, &placed, &mut out);
    filter(&docs, &placed, &mut out);
    net(&docs, &placed, topology, &mut out);
    dht(&placed, dht_nodes, &mut out);
    streams(&docs, &placed, &mut out);
    out
}

fn xmlkit(docs: &[(String, Arc<Element>)], placed: &[Placed], out: &mut Replayed) {
    out.byte_size_ns_per_doc = per_item(docs.len(), || {
        for (_, doc) in docs {
            black_box(doc.byte_size());
        }
    });
    out.serialize_ns_per_doc = per_item(docs.len(), || {
        for (_, doc) in docs {
            black_box(doc.to_xml());
        }
    });
    let texts: Vec<String> = docs.iter().map(|(_, d)| d.to_xml()).collect();
    out.parse_ns_per_doc = per_item(texts.len(), || {
        for text in &texts {
            black_box(parse(text).is_ok());
        }
    });
    let n = docs.len().max(1) as f64;
    out.doc_bytes_mean = texts.iter().map(|t| t.len() as f64).sum::<f64>() / n;
    out.byte_size_error_share = docs
        .iter()
        .zip(&texts)
        .map(|((_, doc), text)| {
            (doc.byte_size() as f64 - text.len() as f64).abs() / text.len() as f64
        })
        .sum::<f64>()
        / n;

    // Every distinct tree pattern the workload's selects carry, each
    // evaluated on every document.
    let mut seen = HashSet::new();
    let patterns: Vec<_> = placed
        .iter()
        .flat_map(|p| &p.placed.tasks)
        .filter_map(|t| match &t.kind {
            TaskKind::Select { patterns, .. } => Some(patterns),
            _ => None,
        })
        .flatten()
        .filter(|p| seen.insert(p.source().to_string()))
        .collect();
    if !patterns.is_empty() {
        out.pattern_eval_ns_per_doc = per_item(docs.len(), || {
            for (_, doc) in docs {
                for pattern in &patterns {
                    black_box(pattern.matches(doc));
                }
            }
        }) / patterns.len() as f64;
    }
}

/// Per watched peer, a [`FilterEngine::adaptive`] loaded with the distinct
/// selects `place` puts there (reuse collapses identical ones in the
/// monitor), driven with `match_batch` over that peer's documents.
fn filter(docs: &[(String, Arc<Element>)], placed: &[Placed], out: &mut Replayed) {
    let mut per_peer: BTreeMap<&str, Vec<FilterSubscription>> = BTreeMap::new();
    let mut seen = HashSet::new();
    let mut next_id = 0;
    for task in placed.iter().flat_map(|p| &p.placed.tasks) {
        if let TaskKind::Select {
            simple, patterns, ..
        } = &task.kind
        {
            if seen.insert(format!("{}|{simple:?}|{patterns:?}", task.peer)) {
                per_peer.entry(&task.peer).or_default().push(
                    FilterSubscription::new(next_id)
                        .with_simple(simple.clone())
                        .with_complex(patterns.clone()),
                );
                next_id += 1;
            }
        }
    }
    if next_id == 0 {
        return;
    }
    let mut engines: BTreeMap<&str, FilterEngine> = BTreeMap::new();
    let t = Instant::now();
    for (peer, subscriptions) in &per_peer {
        let engine = engines.entry(peer).or_insert_with(FilterEngine::adaptive);
        for subscription in subscriptions {
            engine.add(subscription.clone());
        }
    }
    out.filter_add_us_per_sub = t.elapsed().as_nanos() as f64 / 1e3 / next_id as f64;

    let mut by_peer: BTreeMap<&str, Vec<&Element>> = BTreeMap::new();
    for (peer, doc) in docs {
        if engines.contains_key(peer.as_str()) {
            by_peer.entry(peer).or_default().push(doc);
        }
    }
    let filtered: usize = by_peer.values().map(Vec::len).sum();
    let mut pass = || {
        for (peer, docs) in &by_peer {
            let engine = engines.get_mut(peer).expect("grouped by engine");
            for burst in docs.chunks(NET_BURST) {
                black_box(engine.match_batch(burst));
            }
        }
    };
    // Untimed passes first: an adaptive engine promotes itself on traffic.
    pass();
    pass();
    out.filter_match_ns_per_doc = per_item(filtered, pass);

    let t = Instant::now();
    for (peer, engine) in &mut engines {
        for subscription in &per_peer[peer] {
            engine.remove(SubscriptionId(subscription.id.0));
        }
    }
    out.filter_remove_us_per_sub = t.elapsed().as_nanos() as f64 / 1e3 / next_id as f64;
}

/// A standalone [`Network`] under the workload's latency model: every
/// document goes from its watched peer to the first manager in bursts of
/// `send`, `step` until delivered, `take_inbox`.
fn net(docs: &[(String, Arc<Element>)], placed: &[Placed], topology: Topology, out: &mut Replayed) {
    let Some(manager) = placed.first().map(|p| p.manager.as_str()) else {
        return;
    };
    let mut network = Network::new(NetworkConfig {
        latency: topology.latency,
        ..NetworkConfig::default()
    });
    for peer in &topology.peers {
        network.add_peer(peer.as_str());
    }
    network.add_peer(manager);
    out.net_send_deliver_ns_per_msg = per_item(docs.len(), || {
        for burst in docs.chunks(NET_BURST) {
            for (peer, doc) in burst {
                network.send(peer.as_str(), manager, None, Arc::clone(doc));
            }
            while network.step().is_some() {}
            black_box(network.take_inbox(manager));
        }
    });
}

/// A standalone definition database of the workload's node count: the
/// source and filter definitions of a sample of the plans are published,
/// then each is looked up the way the reuse search does.
fn dht(placed: &[Placed], nodes: usize, out: &mut Replayed) {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut filters: Vec<StreamDefinition> = Vec::new();
    let mut seen = HashSet::new();
    for (i, p) in placed.iter().take(DHT_SAMPLE).enumerate() {
        let mut operand = None;
        for task in &p.placed.tasks {
            match &task.kind {
                TaskKind::Source {
                    function,
                    monitored_peer,
                    ..
                } => {
                    operand = Some((monitored_peer.clone(), format!("src-{function}")));
                    if seen.insert((monitored_peer.clone(), function.clone())) {
                        sources.push((monitored_peer.clone(), function.clone()));
                    }
                }
                TaskKind::Select {
                    simple,
                    patterns,
                    derived,
                    conditions,
                    ..
                } => {
                    filters.push(StreamDefinition::derived(
                        task.peer.clone(),
                        format!("s{i}-t{}", task.id),
                        "Filter",
                        select_parameters(simple, patterns, derived, conditions),
                        operand.clone().into_iter().collect(),
                    ));
                }
                _ => {}
            }
        }
    }
    let definitions = sources.len() + filters.len();
    if definitions == 0 {
        return;
    }
    let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(nodes.max(1), 7));
    let t = Instant::now();
    for (peer, function) in &sources {
        db.publish(StreamDefinition::source(
            peer.clone(),
            format!("src-{function}"),
            function.clone(),
        ));
    }
    for definition in &filters {
        db.publish(definition.clone());
    }
    out.dht_publish_us_per_def = t.elapsed().as_nanos() as f64 / 1e3 / definitions as f64;
    out.dht_find_us_per_lookup = per_item(definitions, || {
        for (peer, function) in &sources {
            black_box(db.find_alerter_streams(peer, function).len());
        }
        for d in &filters {
            black_box(
                db.find_derived_streams("Filter", &d.parameters, &d.operands)
                    .len(),
            );
        }
    }) / 1e3;
}

/// The sketches and templates the plans carry, driven with the sampled
/// documents: `update` per item, `to_element` + `absorb` per partial, and
/// `Template::instantiate` per item.
fn streams(docs: &[(String, Arc<Element>)], placed: &[Placed], out: &mut Replayed) {
    let mut seen = HashSet::new();
    let specs: Vec<_> = placed
        .iter()
        .flat_map(|p| &p.placed.tasks)
        .filter_map(|t| match &t.kind {
            TaskKind::SketchRoot { spec } => Some(spec),
            _ => None,
        })
        .filter(|spec| seen.insert(format!("{spec:?}")))
        .collect();
    if !specs.is_empty() {
        let mut update_ns = 0.0;
        let mut merge_us = 0.0;
        let mut partial_bytes = 0.0;
        for spec in &specs {
            let observations: Vec<(String, u64)> =
                docs.iter().map(|(_, doc)| spec.observe(doc)).collect();
            update_ns += per_item(observations.len(), || {
                let mut sketch = AnySketch::for_spec(spec);
                for (key, weight) in &observations {
                    sketch.update(key, *weight);
                }
                black_box(sketch.is_empty());
            });
            let leaves: Vec<AnySketch> = observations
                .chunks(observations.len().div_ceil(SKETCH_LEAVES).max(1))
                .map(|chunk| {
                    let mut leaf = AnySketch::for_spec(spec);
                    for (key, weight) in chunk {
                        leaf.update(key, *weight);
                    }
                    leaf
                })
                .collect();
            partial_bytes += leaves
                .iter()
                .map(|l| l.to_element().byte_size() as f64)
                .sum::<f64>()
                / leaves.len().max(1) as f64;
            merge_us += per_item(leaves.len(), || {
                let mut root = AnySketch::for_spec(spec);
                for leaf in &leaves {
                    black_box(root.absorb(&leaf.to_element()));
                }
            }) / 1e3;
        }
        let n = specs.len() as f64;
        out.sketch_update_ns_per_item = update_ns / n;
        out.sketch_merge_us_per_partial = merge_us / n;
        out.partial_bytes_mean = partial_bytes / n;
    }

    let template = placed.iter().find_map(|p| {
        let var = p.plan.root.output_vars().into_iter().next()?;
        p.placed.tasks.iter().find_map(|t| match &t.kind {
            TaskKind::Restructure { template, .. } => Some((var.clone(), template)),
            _ => None,
        })
    });
    if let Some((var, template)) = template {
        out.template_ns_per_item = per_item(docs.len(), || {
            for (_, doc) in docs {
                let bindings = Bindings::from_item(doc, &var);
                black_box(template.instantiate(&bindings));
            }
        });
    }
}
