//! `benchmark_trace`: the per-layer run.
//!
//! The same driver loop runs twice — once untraced, once with every
//! operation split into spans — followed by the layer replay.  Times come
//! from the traced pass and the replay, counts from the untraced pass (the
//! traced pass's shadow reuse search perturbs the DHT's query counts), and
//! the difference between the passes is the tracing overhead.  End-to-end
//! numbers are never taken from this binary.

mod harness;
mod replay;
mod spans;

use std::process::ExitCode;

use p2pmon_benchmark::cli::{run_binary, Args};
use p2pmon_benchmark::driver::{self, Outcome, Plain, Workers};
use p2pmon_benchmark::quiet::State;
use p2pmon_benchmark::report::{self, Metric, Series};
use p2pmon_benchmark::stats::{median, scaled};
use p2pmon_benchmark::suite;
use p2pmon_benchmark::workloads::{self, Sizes, Workload};

use harness::{Counted, Counters, Traced};
use replay::Replayed;
use spans::{Name, Recorder, Totals};

fn main() -> ExitCode {
    run_binary("benchmark_trace", |args| {
        run(Args {
            trace: true,
            ..args
        })
    })
}

fn run(args: Args) -> Result<(), String> {
    if args.compare.is_some() {
        return Err(
            "--compare belongs to the `benchmark` binary: per-layer metrics have no bounds".into(),
        );
    }
    if args.check_determinism {
        return suite::check_determinism(args.seed, &mut |workload, sizes, seed| {
            let mut counted = Counted::new(Plain);
            let outcome = driver::run(workload, sizes, seed, Workers::One, &mut counted);
            let c = &counted.counters;
            let wire_bytes: u64 = outcome.repetitions.iter().map(|r| r.wire_bytes).sum();
            vec![
                ("net.bytes_total".into(), wire_bytes as f64),
                ("dht.ops_per_sub".into(), ratio(c.dht_operations, c.submits)),
                ("dht.hops_total".into(), c.dht_hops as f64),
                ("core.gate_passes".into(), c.dispatch.gate_passes as f64),
            ]
        });
    }
    if let Some(name) = &args.workload {
        let workload = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
        return single(workload, &args);
    }
    suite::run_set(&args, 1).map(|_| ())
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Median batch time of a pass's first repetition.
fn first_batches(outcome: &Outcome) -> f64 {
    let batches = outcome.repetitions.first().map_or(&[][..], |r| &r.batch_ns);
    median(&scaled(batches, 1.0))
}

/// What the timed operations of a pass cost: per kind (submit, unsubscribe,
/// batch), the sum over the quiet run of its per-repetition series (see
/// `report::quiet_run`), so both passes shed host interference the same way
/// before they are compared.  `durations[kind][repetition]`, when given,
/// stand in for the driver's own samples of the very same operations.
fn operations_cost(outcome: &Outcome, durations: Option<&[Vec<Vec<u64>>; 3]>) -> f64 {
    let fastest_ns = outcome.fastest_ns();
    let states: Vec<[Vec<State>; 3]> = outcome
        .repetitions
        .iter()
        .map(|r| r.states(fastest_ns))
        .collect();
    (0..3)
        .map(|kind| {
            let series: Vec<Series> = outcome
                .repetitions
                .iter()
                .zip(&states)
                .enumerate()
                .map(|(r, (rep, states))| Series {
                    ns: match durations {
                        Some(durations) => &durations[kind][r],
                        None => [&rep.submit_ns, &rep.unsubscribe_ns, &rep.batch_ns][kind],
                    },
                    state: &states[kind],
                })
                .collect();
            let run = report::quiet_run(&series, report::slow_factor(&series));
            run.ns.iter().sum::<u64>() as f64
        })
        .sum()
}

/// The timed operations of the traced pass, from its root spans — a submit
/// without its shadow reuse search, which is an extra measurement like the
/// replay, not tracing overhead.
fn traced_operations(recorder: &Recorder, repetitions: usize) -> [Vec<Vec<u64>>; 3] {
    let mut out: [Vec<Vec<u64>>; 3] = std::array::from_fn(|_| vec![Vec::new(); repetitions]);
    // A submit's slot in its series, so the shadow span can be taken off it.
    let mut slot = vec![0usize; recorder.spans.len()];
    for (i, span) in recorder.spans.iter().enumerate() {
        let r = span.repetition as usize;
        match span.name {
            Name::Submit => {
                slot[i] = out[0][r].len();
                out[0][r].push(span.duration_ns());
            }
            Name::CoreReuseSearch => {
                out[0][r][slot[span.parent as usize]] -= span.duration_ns();
            }
            Name::CoreUnsubscribe => out[1][r].push(span.duration_ns()),
            Name::Batch => out[2][r].push(span.duration_ns()),
            _ => {}
        }
    }
    out
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn layers(
    pooled: &Outcome,
    plain: &Outcome,
    counters: &Counters,
    traced: &Outcome,
    recorder: &Recorder,
    replayed: &Replayed,
) -> Vec<Metric> {
    let totals = recorder.totals();
    let of = |name: Name| -> Totals { totals[name as usize] };
    let per = |name: Name, denominator: u64, scale: f64| -> f64 {
        if denominator == 0 {
            0.0
        } else {
            of(name).total_ns as f64 / denominator as f64 / scale
        }
    };
    let alerts: u64 = traced.repetitions.iter().map(|r| r.alerts).sum();
    let results: u64 = plain.repetitions.iter().map(|r| r.results).sum();
    let wire_bytes: u64 = plain.repetitions.iter().map(|r| r.wire_bytes).sum();
    let wire_messages: u64 = plain.repetitions.iter().map(|r| r.wire_messages).sum();
    let submits = of(Name::Submit).count;
    let c = counters;
    let reps = c.repetitions.max(1) as f64;

    let reuse_search_us = per(Name::CoreReuseSearch, submits, 1e3);
    let deploy_us = per(Name::CoreDeployPlan, submits, 1e3);
    let tick_ns = per(Name::CoreTick, alerts, 1.0);
    let replayed_tick_share = replayed.filter_match_ns_per_doc
        * ratio(c.dispatch.engine_documents, alerts)
        + replayed.net_send_deliver_ns_per_msg * ratio(wire_messages, alerts);

    let submit_children: u64 = [
        Name::P2pmlParse,
        Name::P2pmlCompile,
        Name::CorePushdown,
        Name::CoreReuseSearch,
        Name::CoreDeployPlan,
    ]
    .iter()
    .map(|&n| of(n).total_ns)
    .sum();
    let batch_children = of(Name::CoreInject).total_ns + of(Name::CoreTick).total_ns;

    let plain_cost = operations_cost(plain, None);
    let traced_durations = traced_operations(recorder, traced.repetitions.len());
    let traced_cost = operations_cost(traced, Some(&traced_durations));

    let m = Metric::count;
    vec![
        m(
            "xmlkit.byte_size_ns_per_doc",
            "ns",
            replayed.byte_size_ns_per_doc,
        ),
        m(
            "xmlkit.serialize_ns_per_doc",
            "ns",
            replayed.serialize_ns_per_doc,
        ),
        m("xmlkit.parse_ns_per_doc", "ns", replayed.parse_ns_per_doc),
        m(
            "xmlkit.pattern_eval_ns_per_doc",
            "ns",
            replayed.pattern_eval_ns_per_doc,
        ),
        m("xmlkit.doc_bytes_mean", "B", replayed.doc_bytes_mean),
        m(
            "xmlkit.byte_size_error_share",
            "ratio",
            replayed.byte_size_error_share,
        ),
        m(
            "alerters.alert_for_ns_per_call",
            "ns",
            replayed.alert_for_ns_per_call,
        ),
        m(
            "p2pml.parse_us_per_sub",
            "us",
            per(Name::P2pmlParse, submits, 1e3),
        ),
        m(
            "p2pml.compile_us_per_sub",
            "us",
            per(Name::P2pmlCompile, submits, 1e3),
        ),
        m(
            "core.pushdown_us_per_sub",
            "us",
            per(Name::CorePushdown, submits, 1e3),
        ),
        m("core.place_us_per_sub", "us", replayed.place_us_per_sub),
        m("core.reuse_search_us_per_sub", "us", reuse_search_us),
        m("core.deploy_plan_us_per_sub", "us", deploy_us),
        m(
            "core.deploy_self_us_per_sub",
            "us",
            (deploy_us - replayed.place_us_per_sub - reuse_search_us).max(0.0),
        ),
        m(
            "core.unsubscribe_us_per_sub",
            "us",
            per(Name::CoreUnsubscribe, of(Name::CoreUnsubscribe).count, 1e3),
        ),
        m(
            "core.operators_live",
            "count",
            c.operators_live as f64 / reps,
        ),
        m("core.reuse_hit_rate", "ratio", c.reuse_hit_rate / reps),
        m("core.replica_share", "ratio", c.replica_share / reps),
        m(
            "core.inject_ns_per_alert",
            "ns",
            per(Name::CoreInject, alerts, 1.0),
        ),
        m("core.tick_ns_per_alert", "ns", tick_ns),
        m(
            "core.ticks_per_batch",
            "count",
            ratio(of(Name::CoreTick).count, of(Name::Batch).count),
        ),
        m(
            "core.tick_self_ns_per_alert",
            "ns",
            (tick_ns - replayed_tick_share).max(0.0),
        ),
        m(
            "core.sink_read_ns_per_result",
            "ns",
            ratio(c.sink_read_ns, c.sink_read_results),
        ),
        m(
            "core.sink_clone_bytes_per_alert",
            "B",
            ratio(c.dispatch.sink_clone_bytes, alerts),
        ),
        m(
            "core.gate_passes_per_alert",
            "count",
            ratio(c.dispatch.gate_passes, alerts),
        ),
        m(
            "core.gate_rejections_per_alert",
            "count",
            ratio(c.dispatch.gate_rejections, alerts),
        ),
        m(
            "core.batch_dedup_share",
            "ratio",
            ratio(
                c.dispatch.batch_dedup_hits,
                c.dispatch.batch_dedup_hits + c.dispatch.engine_documents,
            ),
        ),
        m("core.results_per_alert", "count", ratio(results, alerts)),
        m(
            "core.default_workers_batch_ratio",
            "ratio",
            first_batches(pooled) / first_batches(plain),
        ),
        m(
            "filter.match_ns_per_doc",
            "ns",
            replayed.filter_match_ns_per_doc,
        ),
        m(
            "filter.add_us_per_sub",
            "us",
            replayed.filter_add_us_per_sub,
        ),
        m(
            "filter.remove_us_per_sub",
            "us",
            replayed.filter_remove_us_per_sub,
        ),
        m(
            "filter.selects_per_peer_max",
            "count",
            c.selects_per_peer_max as f64,
        ),
        m("filter.staged_peers", "count", c.staged_peers as f64 / reps),
        m(
            "filter.promotions",
            "count",
            c.filter_promotions as f64 / reps,
        ),
        m(
            "filter.complex_evaluations_per_doc",
            "count",
            ratio(c.filter_complex_evaluations, c.filter_documents),
        ),
        m(
            "filter.matched_doc_share",
            "ratio",
            ratio(c.filter_documents_matched, c.filter_documents),
        ),
        m(
            "net.messages_per_alert",
            "count",
            ratio(wire_messages, alerts),
        ),
        m("net.bytes_per_alert", "B", ratio(wire_bytes, alerts)),
        m(
            "net.multicast_saved_per_alert",
            "count",
            ratio(c.net_multicast_saved, alerts),
        ),
        m(
            "net.replica_forwarded_per_alert",
            "count",
            ratio(c.net_replica_forwarded, alerts),
        ),
        m("net.dropped", "count", c.net_dropped as f64),
        m(
            "net.send_deliver_ns_per_msg",
            "ns",
            replayed.net_send_deliver_ns_per_msg,
        ),
        m(
            "dht.ops_per_sub",
            "count",
            ratio(c.dht_operations, c.submits),
        ),
        m(
            "dht.hops_per_op",
            "count",
            ratio(c.dht_hops, c.dht_operations),
        ),
        m(
            "dht.messages_per_sub",
            "count",
            ratio(c.dht_messages, c.submits),
        ),
        m(
            "dht.publish_us_per_def",
            "us",
            replayed.dht_publish_us_per_def,
        ),
        m(
            "dht.find_us_per_lookup",
            "us",
            replayed.dht_find_us_per_lookup,
        ),
        m(
            "streams.sketch_update_ns_per_item",
            "ns",
            replayed.sketch_update_ns_per_item,
        ),
        m(
            "streams.sketch_merge_us_per_partial",
            "us",
            replayed.sketch_merge_us_per_partial,
        ),
        m(
            "streams.partial_bytes_mean",
            "B",
            replayed.partial_bytes_mean,
        ),
        m(
            "streams.template_ns_per_item",
            "ns",
            replayed.template_ns_per_item,
        ),
        m(
            "trace.submit_children_share",
            "ratio",
            ratio(submit_children, of(Name::Submit).total_ns),
        ),
        m(
            "trace.batch_children_share",
            "ratio",
            ratio(batch_children, of(Name::Batch).total_ns),
        ),
        m(
            "trace.overhead_share",
            "ratio",
            (traced_cost - plain_cost) / plain_cost,
        ),
    ]
}

/// One workload in this process: untraced pass, traced pass, replay.
fn single(workload: &Workload, args: &Args) -> Result<(), String> {
    // Three passes over the loop follow, and no per-layer number is gated:
    // each pass repeats it three times where the end-to-end run takes more.
    let sizes = workload.sizes(args.seconds);
    let sizes = Sizes {
        repetitions: sizes.repetitions.min(3),
        ..sizes
    };
    let mut plain = Counted::new(Plain);
    let plain_outcome = driver::run(workload, sizes, args.seed, Workers::One, &mut plain);
    let mut traced = Counted::new(Traced::new());
    let traced_outcome = driver::run(workload, sizes, args.seed, Workers::One, &mut traced);
    // One repetition the way a user's default configuration dispatches it:
    // a worker per core.  Labelled, never gated (see `driver::Workers`).
    let one = Sizes {
        repetitions: 1,
        ..sizes
    };
    let pooled_outcome = driver::run(workload, one, args.seed, Workers::HostDefault, &mut Plain);
    let replayed = replay::replay(workload, &sizes, args.seed);
    let recorder = &traced.inner.recorder;
    let metrics = layers(
        &pooled_outcome,
        &plain_outcome,
        &plain.counters,
        &traced_outcome,
        recorder,
        &replayed,
    );

    let path = suite::output_dir()
        .map_err(|e| e.to_string())?
        .join(format!("trace-{}.json", workload.name));
    std::fs::write(
        &path,
        recorder.to_json(workload.name, args.seed).render() + "\n",
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;

    let header = format!(
        "workload {} seed {} (traced) — {}",
        workload.name, args.seed, workload.why
    );
    let mut extra = vec![format!(
        "{} spans written to {}",
        recorder.spans.len(),
        path.display()
    )];
    extra.extend(Name::ALL.iter().zip(recorder.totals()).map(|(name, t)| {
        format!(
            "span {:<20} n={:<8} total {:>10.3} ms  self {:>10.3} ms",
            name.label(),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
    }));
    let mut failures = plain_outcome.failures;
    failures.extend(traced_outcome.failures);
    failures.extend(pooled_outcome.failures);
    let outcome = Outcome {
        attempted: plain_outcome.attempted + traced_outcome.attempted + pooled_outcome.attempted,
        failed: plain_outcome.failed + traced_outcome.failed + pooled_outcome.failed,
        failures,
        ..Outcome::default()
    };
    report::print_run(&header, &sizes, &extra, &outcome, &metrics)
}
