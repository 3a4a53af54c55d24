//! From samples to named metrics, and the host stamp every output carries.

use std::ops::Range;
use std::process::Command;

use p2pmon_core::{Monitor, MonitorConfig};

use crate::driver::{Outcome, Repetition};
use crate::json::Json;
use crate::quiet::State;
use crate::stats::{median, quantile_sorted, scaled, sorted};
use crate::workloads::Sizes;

/// The twelve end-to-end metrics in the order they are printed, each with
/// its bound: the share of the baseline median a later change may worsen it
/// by (`BENCHMARK.json` carries the same table with units and directions).
/// Every workload reports every one: each runs both lifetimes, in its own
/// proportions.
pub const BOUNDS: [(&str, f64); 12] = [
    ("setup_s", 0.25),
    ("alerts_per_s", 0.25),
    ("batch_p50_ms", 0.25),
    ("batch_p95_ms", 0.25),
    ("subscriptions_per_s", 0.25),
    ("submit_p50_us", 0.25),
    ("submit_p95_us", 0.25),
    ("unsubscribes_per_s", 0.25),
    ("unsubscribe_p50_us", 0.25),
    ("wire_bytes_per_alert", 0.04),
    ("wire_messages_per_alert", 0.04),
    ("peak_rss_mb", 0.10),
];

/// One reported number.  `n` is the sample count behind it and `q1`/`q3`
/// the quartiles of those samples (equal to `value` for a single count).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    pub fn count(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// `value` is the `q`-quantile of `samples`.
    pub fn quantile(name: &str, unit: &str, samples: &[f64], q: f64) -> Metric {
        let s = sorted(samples);
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: quantile_sorted(&s, q),
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
        }
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        let value = format!("  {:<36} {:>14.4} {:<6}", self.name, self.value, self.unit);
        if self.n > 1 {
            format!(
                "{value} n={:<7} q1={:.4} q3={:.4}",
                self.n, self.q1, self.q3
            )
        } else {
            value
        }
    }
}

/// Windows a repetition's sample series is cut into by [`quiet_run`].
const WINDOWS: usize = 32;

/// One repetition's samples of one operation, in execution order, and the
/// host's state around each (`state` shorter than `ns`: unknown, taken as
/// quiet).
#[derive(Clone, Copy)]
pub struct Series<'a> {
    pub ns: &'a [u64],
    pub state: &'a [State],
}

impl<'a> Series<'a> {
    fn state(&self, i: usize) -> State {
        self.state.get(i).copied().unwrap_or(State::Quiet)
    }

    fn slice(&self, range: Range<usize>) -> Series<'a> {
        Series {
            ns: &self.ns[range.clone()],
            state: self.state.get(range).unwrap_or(&[]),
        }
    }
}

/// The windows of a series `len` samples long.
fn windows(len: usize) -> impl Iterator<Item = Range<usize>> {
    let width = len.div_ceil(WINDOWS).max(1);
    (0..len)
        .step_by(width)
        .map(move |start| start..(start + width).min(len))
}

/// The length every repetition's series reaches.
fn common_len(series: &[Series]) -> usize {
    series.iter().map(|s| s.ns.len()).min().unwrap_or(0)
}

/// How many times longer an operation takes in the host's slow state: per
/// window with at least five quiet and five slow samples over all
/// repetitions, the median slow one over the median quiet one; then the
/// median over those windows.  `None` when fewer than eight windows, a quarter
/// of the series, saw both states: a factor from less swings 1.2–1.6.
pub fn slow_factor(series: &[Series]) -> Option<f64> {
    let ratios: Vec<f64> = windows(common_len(series))
        .filter_map(|window| {
            let of = |state: State| -> Vec<f64> {
                series
                    .iter()
                    .flat_map(|s| window.clone().map(move |i| (s.state(i), s.ns[i] as f64)))
                    .filter(|(s, _)| *s == state)
                    .map(|(_, ns)| ns)
                    .collect()
            };
            let (quiet, slow) = (of(State::Quiet), of(State::Slow));
            (quiet.len() >= 5 && slow.len() >= 5).then(|| median(&slow) / median(&quiet))
        })
        .collect();
    (ratios.len() >= 8).then(|| median(&ratios))
}

/// What a sample would have taken on a quiet host, as far as can be told.
fn quiet_equivalent(ns: u64, state: State, factor: f64) -> f64 {
    match state {
        State::Quiet => ns as f64,
        State::Slow => ns as f64 / factor,
        State::Mixed => ns as f64 * (1.0 + 1.0 / factor) / 2.0,
    }
}

/// One run assembled from the repetitions, and where its windows came from.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct QuietRun {
    pub ns: Vec<u64>,
    /// Windows taken from samples measured on a quiet host; from slow-state
    /// samples divided by the slow factor; and as measured, state unknown.
    pub windows: [usize; 3],
}

/// Assembles one run out of the repetitions, window by window: every
/// repetition performs the same loop, so window `k` of an operation's series
/// (a 1/32 stretch of the loop) was measured once per repetition.  The
/// repetitions that ran at least half of the window in a quiet moment of the
/// host compete, on the median of their quiet samples, and the lowest
/// supplies those samples as the window's.  A window no repetition ran
/// quietly is filled the same way from quiet and slow samples together, the
/// slow ones divided by `factor` — what [`slow_factor`] measured in this very
/// run — and, when there is no factor, from the samples as they are.
///
/// The reference host is a shared VM whose CPUs drop into a 1.5–1.9x slower
/// state for anything from 0.2 s to minutes (see `quiet`); a statistic over
/// everything measured moves with how much of the run that state happened to
/// cover.  Windows are picked whole, not sample by sample, so the spread
/// *within* a window — what p95 reports — is kept, and so is any cost that
/// depends on the position in the loop (late submits against a fuller
/// monitor): a window only ever competes with the same window of another
/// repetition.  A change to the code moves every repetition alike and shows
/// in full.
pub fn quiet_run(series: &[Series], factor: Option<f64>) -> QuietRun {
    let lowest = |candidates: Vec<Vec<u64>>| -> Option<Vec<u64>> {
        candidates
            .into_iter()
            .map(|w| (median(&scaled(&w, 1.0)), w))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, w)| w)
    };
    let mut run = QuietRun::default();
    for window in windows(common_len(series)) {
        // Per repetition covering at least half the window, the samples
        // `keep` lets through.
        let candidates = |keep: &dyn Fn(&Series, usize) -> Option<u64>| -> Vec<Vec<u64>> {
            series
                .iter()
                .map(|s| {
                    window
                        .clone()
                        .filter_map(|i| keep(s, i))
                        .collect::<Vec<_>>()
                })
                .filter(|kept| 2 * kept.len() >= window.len())
                .collect()
        };
        let measured_quiet = candidates(&|s, i| (s.state(i) == State::Quiet).then_some(s.ns[i]));
        let equivalent = factor.map_or_else(Vec::new, |factor| {
            candidates(&|s, i| match s.state(i) {
                State::Mixed => None,
                state => Some(quiet_equivalent(s.ns[i], state, factor) as u64),
            })
        });
        let as_measured = candidates(&|s, i| Some(s.ns[i]));
        let (source, chosen) = [measured_quiet, equivalent, as_measured]
            .into_iter()
            .enumerate()
            .find_map(|(source, c)| Some((source, lowest(c)?)))
            .expect("every repetition covers the window as measured");
        run.windows[source] += 1;
        run.ns.extend(chosen);
    }
    run
}

/// Operations per second of summed operation time: rates divide by the time
/// of the operations themselves, so `alerts_per_s` in `churn_mix` does not
/// see submit cost.
fn rate(name: &str, ops_per_sample: usize, run: &[u64]) -> Metric {
    let seconds = run.iter().sum::<u64>() as f64 / 1e9;
    let value = if seconds > 0.0 {
        (run.len() * ops_per_sample) as f64 / seconds
    } else {
        0.0
    };
    Metric {
        n: run.len(),
        ..Metric::count(name, "1/s", value)
    }
}

/// What a run learned about the host, kept in the build directory for the
/// runs after it (`suite::remembered`).  A run that meets a slow host from
/// its first operation to its last — it happens: three runs in a row, once —
/// never sees a fast pass of the reading kernel nor a quiet sample to measure
/// a slow factor against, and would take the slow state for the quiet one.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The fastest pass of the reading kernel, in ns.
    pub fastest_ns: Option<f64>,
    /// The slow factors of submit, unsubscribe and batch on this workload.
    pub factors: [Option<f64>; 3],
}

/// The three timed operations of a finished run, with the host taken out.
pub struct Quiet {
    pub submits: QuietRun,
    pub unsubscribes: QuietRun,
    pub batches: QuietRun,
    /// Set-up time per repetition: as measured, times the share of their
    /// measured time the standing submits would have taken on a quiet host.
    pub setups_s: Vec<f64>,
    /// The slow factor of each operation: measured in this run (an
    /// operation with too few samples to tell takes the median of the
    /// others'), else remembered; `None`: never seen in both states.
    pub factors: [Option<f64>; 3],
    /// The fastest pass the readings were judged against: this run's, or a
    /// remembered one that is faster.
    pub fastest_ns: f64,
    /// What to remember for the runs after this one.
    pub learned: Calibration,
}

impl Quiet {
    pub fn of(outcome: &Outcome, sizes: &Sizes, remembered: &Calibration) -> Quiet {
        let reps = &outcome.repetitions;
        // A slow pass takes up to 2.3x a fast one: a remembered pass faster
        // than that was not taken on this machine.
        let own_fastest_ns = outcome.fastest_ns();
        let fastest_ns = remembered
            .fastest_ns
            .filter(|&ns| ns < own_fastest_ns && ns * 2.5 > own_fastest_ns)
            .unwrap_or(own_fastest_ns);
        let states: Vec<[Vec<State>; 3]> = reps.iter().map(|r| r.states(fastest_ns)).collect();
        let series = |k: usize, ns: fn(&Repetition) -> &Vec<u64>| -> Vec<Series> {
            reps.iter()
                .zip(&states)
                .map(|(r, states)| Series {
                    ns: ns(r),
                    state: &states[k],
                })
                .collect()
        };
        let standing = series(0, |r| &r.submit_ns);
        let mut all = [
            standing.clone(),
            series(1, |r| &r.unsubscribe_ns),
            series(2, |r| &r.batch_ns),
        ];
        if sizes.churn > 0 {
            // Arrivals and departures beside traffic are what the workload
            // is about; its standing submits and its final teardown run
            // against another monitor and would make two-humped series.
            let arrivals = sizes.steps * sizes.churn;
            for s in &mut all[0] {
                *s = s.slice(s.ns.len().saturating_sub(arrivals)..s.ns.len());
            }
            for s in &mut all[1] {
                *s = s.slice(0..arrivals.min(s.ns.len()));
            }
        }
        let own = all.each_ref().map(|s| slow_factor(s));
        let known: Vec<f64> = own.iter().flatten().copied().collect();
        let shared = (!known.is_empty()).then(|| median(&known));
        let measured = own.map(|f| f.or(shared));
        let factors: [Option<f64>; 3] =
            std::array::from_fn(|k| measured[k].or(remembered.factors[k]));
        let [submits, unsubscribes, batches] =
            std::array::from_fn(|k| quiet_run(&all[k], factors[k]));
        let setups_s = standing
            .iter()
            .zip(reps)
            .map(|(s, r)| {
                let standing = 0..sizes.standing.min(s.ns.len());
                let measured: f64 = standing.clone().map(|i| s.ns[i] as f64).sum();
                let quiet: f64 = standing
                    .map(|i| quiet_equivalent(s.ns[i], s.state(i), factors[0].unwrap_or(1.0)))
                    .sum();
                r.setup_s
                    * if measured > 0.0 {
                        quiet / measured
                    } else {
                        1.0
                    }
            })
            .collect();
        Quiet {
            submits,
            unsubscribes,
            batches,
            setups_s,
            factors,
            fastest_ns,
            learned: Calibration {
                fastest_ns: Some(fastest_ns),
                factors: measured,
            },
        }
    }
}

/// The end-to-end metrics of a finished run, in [`BOUNDS`] order.  Every
/// timing is a statistic of the [`quiet_run`] of its operation.
pub fn end_to_end(outcome: &Outcome, sizes: &Sizes, quiet: &Quiet) -> Vec<Metric> {
    let reps = &outcome.repetitions;
    let (submits, unsubscribes, batches) =
        (&quiet.submits.ns, &quiet.unsubscribes.ns, &quiet.batches.ns);
    let alerts: u64 = reps.iter().map(|r| r.alerts).sum();
    let per_alert = |total: u64| total as f64 / alerts.max(1) as f64;
    vec![
        Metric::quantile("setup_s", "s", &quiet.setups_s, 0.5),
        rate("alerts_per_s", sizes.batch, batches),
        Metric::quantile("batch_p50_ms", "ms", &scaled(batches, 1e6), 0.5),
        Metric::quantile("batch_p95_ms", "ms", &scaled(batches, 1e6), 0.95),
        rate("subscriptions_per_s", 1, submits),
        Metric::quantile("submit_p50_us", "us", &scaled(submits, 1e3), 0.5),
        Metric::quantile("submit_p95_us", "us", &scaled(submits, 1e3), 0.95),
        rate("unsubscribes_per_s", 1, unsubscribes),
        Metric::quantile("unsubscribe_p50_us", "us", &scaled(unsubscribes, 1e3), 0.5),
        Metric::count(
            "wire_bytes_per_alert",
            "B",
            per_alert(reps.iter().map(|r| r.wire_bytes).sum()),
        ),
        Metric::count(
            "wire_messages_per_alert",
            "count",
            per_alert(reps.iter().map(|r| r.wire_messages).sum()),
        ),
        Metric::count("peak_rss_mb", "MB", outcome.peak_rss_mb),
    ]
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
        )
    }))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken.  Parallel dispatch is never gated
/// (see `driver::Workers`); the stamp says where its labelled figure is.
pub fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let default_workers = Monitor::new(MonitorConfig::default()).effective_workers();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("gated_workers", Json::Num(1.0)),
        (
            "default_effective_workers",
            Json::Num(default_workers as f64),
        ),
        (
            "parallel_dispatch",
            Json::str(if default_workers > 1 {
                "ungated: core.default_workers_batch_ratio in the traced run"
            } else {
                "not exhibited on this host: single core"
            }),
        ),
        ("rustc", Json::str(tool_output("rustc", &["--version"]))),
        ("profile", Json::str("release")),
        (
            "git_commit",
            Json::str(tool_output("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// What the host did to a run and where its windows came from, in one line.
pub fn noise_line(outcome: &Outcome, quiet: &Quiet) -> String {
    let sources = [&quiet.submits, &quiet.unsubscribes, &quiet.batches]
        .iter()
        .fold([0; 3], |sum, run| {
            std::array::from_fn(|k| sum[k] + run.windows[k])
        });
    let readings = outcome.repetitions.iter().map(|r| &r.readings);
    format!(
        "noise {} of {} readings slow; windows measured quiet {}, slow and divided {}, as measured {}; \
         slow factors submit/unsubscribe/batch {:.2?}",
        readings
            .clone()
            .map(|r| r.slow_count(quiet.fastest_ns))
            .sum::<usize>(),
        readings.map(|r| r.ns.len()).sum::<usize>(),
        sources[0],
        sources[1],
        sources[2],
        quiet.factors.map(|f| f.unwrap_or(1.0)),
    )
}

/// Prints one workload's report — header, stamp, `extra` lines, every
/// metric, failures — with the result line last.  `Err` when an operation
/// failed, so the process exits non-zero.
pub fn print_run(
    header: &str,
    sizes: &Sizes,
    extra: &[String],
    outcome: &Outcome,
    metrics: &[Metric],
) -> Result<(), String> {
    println!("{header}");
    println!("  sizes {}", sizes_json(sizes).render());
    println!("  host  {}", host_stamp().render());
    for line in extra {
        println!("  {line}");
    }
    for metric in metrics {
        println!("{}", metric.line());
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", result_line(outcome, metrics));
    if outcome.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} operations failed",
            outcome.failed, outcome.attempted
        ))
    }
}

/// The sizes of a run, for the stamp.
pub fn sizes_json(sizes: &Sizes) -> Json {
    Json::obj([
        ("repetitions", Json::Num(sizes.repetitions as f64)),
        ("standing_subscriptions", Json::Num(sizes.standing as f64)),
        ("warmup_alerts", Json::Num(sizes.warmup_alerts as f64)),
        ("steps", Json::Num(sizes.steps as f64)),
        ("batch", Json::Num(sizes.batch as f64)),
        ("churn_per_step", Json::Num(sizes.churn as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use State::{Mixed, Quiet as Q, Slow};

    // Series this short are cut into windows of one sample.

    #[test]
    fn a_window_run_quietly_is_taken_from_its_quiet_samples() {
        let series = [
            Series {
                ns: &[200, 200, 200, 200],
                state: &[Slow, Slow, Slow, Slow],
            },
            Series {
                ns: &[110, 100, 180, 100],
                state: &[Q, Q, Mixed, Q],
            },
        ];
        let run = quiet_run(&series, Some(2.0));
        assert_eq!(run.ns, vec![110, 100, 100, 100]);
        assert_eq!(run.windows, [3, 1, 0]);
    }

    #[test]
    fn a_window_never_run_quietly_is_divided_by_the_slow_factor() {
        let series = [Series {
            ns: &[200, 400, 170, 200],
            state: &[Slow, Slow, Mixed, Slow],
        }];
        let run = quiet_run(&series, Some(2.0));
        assert_eq!(run.ns, vec![100, 200, 170, 100]);
        assert_eq!(run.windows, [0, 3, 1]);
        // Without a factor there is nothing to divide by.
        let run = quiet_run(&series, None);
        assert_eq!(run.ns, vec![200, 400, 170, 200]);
        assert_eq!(run.windows, [0, 0, 4]);
    }

    #[test]
    fn a_run_that_never_met_a_quiet_host_leans_on_what_earlier_runs_learned() {
        use crate::quiet::Readings;
        let outcome = Outcome {
            repetitions: vec![Repetition {
                setup_s: 1.0,
                submit_ns: vec![200, 220],
                submit_under: vec![0, 1],
                readings: Readings {
                    ns: vec![4_000.0, 4_100.0, 4_050.0],
                    fastest_ns: 3_900.0,
                },
                ..Repetition::default()
            }],
            ..Outcome::default()
        };
        let sizes = Sizes {
            repetitions: 1,
            standing: 2,
            warmup_alerts: 0,
            steps: 0,
            batch: 1,
            churn: 0,
        };
        // On its own the run takes what it saw for a quiet host.
        let alone = Quiet::of(&outcome, &sizes, &Calibration::default());
        assert_eq!(alone.submits.ns, vec![200, 220]);
        assert_eq!(alone.learned.fastest_ns, Some(3_900.0));
        let remembered = Calibration {
            fastest_ns: Some(2_000.0),
            factors: [Some(2.0), None, None],
        };
        let quiet = Quiet::of(&outcome, &sizes, &remembered);
        assert_eq!(quiet.submits.ns, vec![100, 110]);
        assert_eq!(quiet.submits.windows, [0, 2, 0]);
        assert_eq!(quiet.setups_s, vec![0.5]);
        // What it could not measure it does not overwrite.
        assert_eq!(quiet.learned.fastest_ns, Some(2_000.0));
        assert_eq!(quiet.learned.factors, [None; 3]);
        // A pass that much faster was timed on another machine.
        let foreign = Calibration {
            fastest_ns: Some(1_000.0),
            ..remembered
        };
        assert_eq!(Quiet::of(&outcome, &sizes, &foreign).fastest_ns, 3_900.0);
    }

    #[test]
    fn the_slow_factor_is_the_ratio_of_the_states_medians() {
        // Windows of ten samples, run once quietly and once slowly.
        let quiet: Vec<u64> = (0..320).map(|i| 100 + i % 3).collect();
        let slow: Vec<u64> = quiet.iter().map(|ns| ns * 2).collect();
        let series = [
            Series {
                ns: &quiet,
                state: &[Q; 320],
            },
            Series {
                ns: &slow,
                state: &[Slow; 320],
            },
        ];
        let factor = slow_factor(&series).expect("both states in every window");
        assert!((factor - 2.0).abs() < 1e-9, "{factor}");
        assert_eq!(slow_factor(&series[..1]), None);
    }
}
