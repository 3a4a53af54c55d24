//! Command line and process exit shared by both binaries.

use std::process::ExitCode;

/// The default of `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>`: run one workload in this process.  Without it
    /// every workload runs, each in a child process.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `--trace <0|1>`; the launcher picks the binary from it.
    pub trace: bool,
    /// `--repetition <r>`: with `--workload`, run that repetition alone and
    /// print what it measured as one JSON line (what the end-to-end run asks
    /// of its children).
    pub repetition: Option<usize>,
    /// `--sets <k>`: produce `k` run sets (two are compared at the end).
    pub sets: usize,
    /// `--runs <n>`: runs per workload in a set, run `j` on `seed + j`.
    pub runs: usize,
    /// `--compare <a.json> <b.json>`.
    pub compare: Option<(String, String)>,
    pub check_determinism: bool,
}

impl Args {
    /// Parses `std::env::args`; the error is a usage message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            repetition: None,
            sets: 1,
            runs: 1,
            compare: None,
            check_determinism: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?),
                "--seed" => parsed.seed = number(value()?)?,
                "--seconds" => parsed.seconds = number(value()?)?.clamp(1, 60),
                "--trace" => parsed.trace = number(value()?)? != 0,
                "--repetition" => parsed.repetition = Some(number(value()?)? as usize),
                "--sets" => parsed.sets = number(value()?)?.clamp(1, 16) as usize,
                "--runs" => parsed.runs = number(value()?)?.clamp(1, 64) as usize,
                "--compare" => parsed.compare = Some((value()?, value()?)),
                "--check-determinism" => parsed.check_determinism = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(parsed)
    }
}

pub const USAGE: &str = "usage:
  --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, result line last
  --workload <name> --repetition <r> [--seed <n>] [--seconds <s>]   one repetition of it, its samples as JSON
  --seed <n> [--seconds <s>] [--runs <n>] [--sets <k>]       every workload, each in a child process;
                                                             run j uses seed + j, two sets are compared
  --check-determinism [--seed <n>]                           counts repeat for a seed, differ for another
  --compare <a.json> <b.json>                                two run sets of one build against the bounds";

/// The `main` of both binaries: refuses a build with debug assertions,
/// parses the arguments, runs, and maps the outcome to an exit code.
pub fn run_binary(name: &str, run: impl FnOnce(Args) -> Result<(), String>) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("{name}: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{name}: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{name}: {why}");
            ExitCode::FAILURE
        }
    }
}
