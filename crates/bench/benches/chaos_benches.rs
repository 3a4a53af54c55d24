//! The chaos scenario suite as a robustness benchmark: every built-in
//! scenario (`p2pmon_workloads::chaos`) is replayed twice and its
//! conservation ledger written to `BENCH_chaos.json` at the workspace root.
//! A run that violates an invariant panics here, before the file is
//! written.  The contract itself (convergence, no double delivery, no
//! unaccounted loss, bit-identical replay, six distinct scenarios) is
//! asserted at the same seed by `crates/workloads/tests/chaos_live.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use p2pmon_bench::{full_run_requested, quick_criterion};
use p2pmon_workloads::chaos::{ChaosRunner, ChaosScenario};

const SEED: u64 = 17;

/// Criterion times the cheapest scenario end to end (two lockstep
/// monitors, faults, invariant checks); the whole suite's ledger lives in
/// `BENCH_chaos.json`.
fn chaos_scenario(c: &mut Criterion) {
    let runner = ChaosRunner::default();
    let scenario = ChaosScenario::crash_recover(SEED);
    let mut group = c.benchmark_group("chaos");
    group.sample_size(10);
    group.bench_function("crash_recover", |b| {
        b.iter(|| {
            runner
                .run(black_box(&scenario))
                .expect("scenario upholds its invariants")
                .delivered
        })
    });
    group.finish();
}

/// Runs the built-in suite (twice, for the replay check) and emits the
/// BENCH_chaos.json ledger at the workspace root.
fn emit_suite(_c: &mut Criterion) {
    let runner = ChaosRunner::default();
    let mut rows = Vec::new();
    for scenario in ChaosScenario::all(SEED) {
        let run = || {
            runner
                .run(&scenario)
                .unwrap_or_else(|violations| panic!("chaos [{}]: {violations:?}", scenario.name))
        };
        let report = run();
        let replay_deterministic = run() == report;
        eprintln!(
            "chaos [{}]: {} faults over {} rounds, {}/{} delivered \
             ({} missing, {} dropped: {} peer-down / {} partition / {} random), \
             converged {}, replay {}",
            report.scenario,
            report.faults,
            report.rounds,
            report.delivered,
            report.oracle_delivered,
            report.missing,
            report.dropped_messages,
            report.dropped_peer_down,
            report.dropped_partition,
            report.dropped_random,
            report.converged,
            replay_deterministic,
        );
        rows.push(format!(
            "    {{\"scenario\": \"{}\", \"rounds\": {}, \"faults\": {}, \
             \"delivered\": {}, \"oracle_delivered\": {}, \"missing\": {}, \
             \"double_delivered\": {}, \"dropped_messages\": {}, \
             \"dropped_peer_down\": {}, \"dropped_partition\": {}, \
             \"dropped_random\": {}, \"unaccounted\": {}, \
             \"converged\": {}, \"replay_deterministic\": {}, \
             \"digest\": {}}}",
            report.scenario,
            report.rounds,
            report.faults,
            report.delivered,
            report.oracle_delivered,
            report.missing,
            report.double_delivered,
            report.dropped_messages,
            report.dropped_peer_down,
            report.dropped_partition,
            report.dropped_random,
            report.unaccounted,
            report.converged,
            replay_deterministic,
            report.digest,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"mode\": \"{}\",\n  \"seed\": {SEED},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if full_run_requested() {
            "full"
        } else {
            "quick"
        },
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = emit_suite, chaos_scenario
}
criterion_main!(benches);
