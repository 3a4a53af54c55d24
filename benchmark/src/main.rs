//! `benchmark`: the end-to-end run, tracing off.

use std::process::ExitCode;

use p2pmon_benchmark::cli::{run_binary, Args};
use p2pmon_benchmark::driver::{self, Plain, Workers};
use p2pmon_benchmark::report::{self, Calibration, Quiet};
use p2pmon_benchmark::suite;
use p2pmon_benchmark::workloads;

fn main() -> ExitCode {
    run_binary("benchmark", run)
}

fn run(args: Args) -> Result<(), String> {
    if args.trace {
        return Err("--trace 1 is the `benchmark_trace` binary; run.sh picks it".into());
    }
    if let Some((a, b)) = &args.compare {
        return agreement(suite::compare(a, b)?);
    }
    if args.check_determinism {
        return suite::check_determinism(args.seed, &mut |workload, sizes, seed| {
            let outcome = driver::run(workload, sizes, seed, Workers::One, &mut Plain);
            let results: u64 = outcome.repetitions.iter().map(|r| r.results).sum();
            let quiet = Quiet::of(&outcome, &sizes, &Calibration::default());
            report::end_to_end(&outcome, &sizes, &quiet)
                .into_iter()
                .filter(|m| m.name.starts_with("wire_"))
                .map(|m| (m.name, m.value))
                .chain([("results_total".to_string(), results as f64)])
                .collect()
        });
    }
    if let Some(name) = &args.workload {
        let workload = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
        let sizes = workload.sizes(args.seconds);
        if let Some(r) = args.repetition {
            // One repetition, handed back to the run that asked for it.
            let outcome =
                driver::repetition(workload, sizes, args.seed, r, Workers::One, &mut Plain);
            println!("{}", suite::outcome_json(&outcome).render());
            return Ok(());
        }
        // One workload; the result line goes last.
        let outcome = suite::run_in_children(workload, &args)?;
        let header = format!(
            "workload {} seed {} — {}",
            workload.name, args.seed, workload.why
        );
        let quiet = Quiet::of(&outcome, &sizes, &suite::remembered(workload.name));
        suite::remember(workload.name, &quiet.learned);
        let metrics = report::end_to_end(&outcome, &sizes, &quiet);
        let noise = report::noise_line(&outcome, &quiet);
        return report::print_run(&header, &sizes, &[noise], &outcome, &metrics);
    }
    // Every workload, each in its own child process.
    let sets = (1..=args.sets)
        .map(|index| suite::run_set(&args, index))
        .collect::<Result<Vec<_>, _>>()?;
    match sets.as_slice() {
        [a, b, ..] => agreement(suite::compare(&a.to_string_lossy(), &b.to_string_lossy())?),
        _ => Ok(()),
    }
}

fn agreement(over_bound: usize) -> Result<(), String> {
    match over_bound {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) differ by more than their bound")),
    }
}
