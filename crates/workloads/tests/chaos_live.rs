//! The chaos harness end-to-end: every built-in scenario must replay
//! deterministically and satisfy the conservation invariants — no double
//! delivery, every lost sink item explained by a recorded network drop,
//! drop-ledger identities, post-heal convergence to the fault-free
//! oracle, and clean teardown.  This is the whole contract of the chaos
//! axis: `chaos_benches` runs the same suite at the same seed with the same
//! runner and only records the reports in `BENCH_chaos.json`.

use p2pmon_workloads::chaos::{ChaosRunner, ChaosScenario, Fault, FaultKind};

const SEED: u64 = 17;

#[test]
fn every_builtin_scenario_upholds_the_conservation_invariants() {
    let scenarios = ChaosScenario::all(SEED);
    assert!(
        scenarios.len() >= 6,
        "the built-in suite covers only {} scenarios (need >= 6) — a fault family lost \
         its coverage",
        scenarios.len()
    );
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        scenarios.len(),
        "duplicate scenario names in the built-in suite: {names:?}"
    );
    let runner = ChaosRunner::default();
    for scenario in scenarios {
        let report = runner
            .run(&scenario)
            .unwrap_or_else(|violations| panic!("{}: {violations:?}", scenario.name));
        assert!(report.converged, "{} must converge", report.scenario);
        assert_eq!(report.double_delivered, 0, "{}", report.scenario);
        assert_eq!(report.unaccounted, 0, "{}", report.scenario);
        assert!(
            report.missing == 0 || report.dropped_messages > 0,
            "{}: {} missing items but a clean drop ledger — the accounting identity broke",
            report.scenario,
            report.missing
        );
        assert!(
            report.oracle_delivered > 0,
            "{}: the oracle must see traffic",
            report.scenario
        );
        assert!(
            report.delivered + report.missing >= report.oracle_delivered,
            "{}: every oracle item is delivered or missing-with-drops",
            report.scenario
        );
    }
}

#[test]
fn scenarios_replay_bit_identically_from_the_same_seed() {
    let runner = ChaosRunner::default();
    for scenario in ChaosScenario::all(SEED) {
        let first = runner.run(&scenario).expect("first replay clean");
        let second = runner.run(&scenario).expect("second replay clean");
        assert_eq!(first, second, "{}: same seed, same report", scenario.name);
        // A different seed moves the digest (the digest actually hashes
        // the run, it is not a constant).
        let mut reseeded = scenario.clone();
        reseeded.seed = SEED + 1;
        let other = runner.run(&reseeded).expect("reseeded run clean");
        assert_ne!(first.digest, other.digest, "{}", scenario.name);
    }
}

#[test]
fn faults_actually_bite_and_are_attributed_to_their_cause() {
    let runner = ChaosRunner::default();
    let crash = runner
        .run(&ChaosScenario::crash_recover(SEED))
        .expect("crash scenario clean");
    assert!(crash.dropped_peer_down > 0, "crashes must drop messages");

    let split = runner
        .run(&ChaosScenario::partition_heal(SEED))
        .expect("partition scenario clean");
    assert!(split.dropped_partition > 0, "partitions must drop messages");
    assert!(split.missing > 0, "a partition costs sink deliveries");

    let burst = runner
        .run(&ChaosScenario::drop_burst(SEED))
        .expect("drop-burst scenario clean");
    assert!(burst.dropped_random > 0, "the burst must drop messages");
}

#[test]
fn replica_off_runs_uphold_the_same_invariants() {
    let runner = ChaosRunner {
        enable_replicas: false,
    };
    for scenario in ChaosScenario::all(SEED) {
        let report = runner
            .run(&scenario)
            .unwrap_or_else(|violations| panic!("{}: {violations:?}", scenario.name));
        assert!(report.converged, "{}", report.scenario);
        assert_eq!(report.double_delivered, 0, "{}", report.scenario);
    }
}

#[test]
fn custom_scenarios_compose_from_the_fault_vocabulary() {
    // A bespoke schedule mixing a partition with churn inside the window.
    let mut scenario = ChaosScenario::partition_heal(SEED);
    scenario.name = "custom-partition-churn".into();
    scenario.faults.push(Fault {
        at_round: 5,
        duration: 0,
        kind: FaultKind::Unsubscribe { index: 3 },
    });
    scenario.faults.push(Fault {
        at_round: 6,
        duration: 0,
        kind: FaultKind::Subscribe { index: 8 },
    });
    let report = ChaosRunner::default()
        .run(&scenario)
        .unwrap_or_else(|violations| panic!("{violations:?}"));
    assert_eq!(report.scenario, "custom-partition-churn");
    assert_eq!(report.faults, 3);
    assert!(report.dropped_partition > 0);
}
