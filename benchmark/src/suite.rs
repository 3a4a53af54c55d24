//! Everything around a single run: a workload's repetitions and all
//! workloads in child processes, run sets on disk, the self-agreement
//! comparison and the determinism check.

use std::path::PathBuf;
use std::process::Command;

use crate::cli::Args;
use crate::driver::{Outcome, Repetition};
use crate::json::Json;
use crate::quiet::Readings;
use crate::report::{host_stamp, sizes_json, Calibration, BOUNDS};
use crate::stats::{median, spread};
use crate::workloads::{Sizes, Workload, WORKLOADS};

/// `<target dir>/benchmark/`, beside the `release/` directory this binary
/// runs from: inside the build output, which `.gitignore` already covers.
pub fn output_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(|release| release.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs one workload in a child of this same binary (a fresh process, so
/// `peak_rss_mb` and allocator state belong to that workload alone) and
/// returns its parsed result line.  The child's report is passed through.
fn run_child(workload: &str, seed: u64, args: &Args) -> Result<Json, String> {
    let output = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(result)
}

/// Where [`remember`] keeps what runs learned about the host.
fn calibration_file() -> std::io::Result<PathBuf> {
    Ok(output_dir()?.join("host-calibration.json"))
}

fn calibration_json() -> Json {
    calibration_file()
        .and_then(std::fs::read_to_string)
        .ok()
        .and_then(|text| Json::parse(text.trim()).ok())
        .unwrap_or(Json::obj::<String>([]))
}

/// What the runs before this one, in this build directory, learned about
/// the host and about `workload` on it.
pub fn remembered(workload: &str) -> Calibration {
    let json = calibration_json();
    let factors = json
        .get("slow_factors")
        .and_then(|f| f.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or_default();
    Calibration {
        fastest_ns: json.get("fastest_pass_ns").and_then(Json::as_f64),
        factors: std::array::from_fn(|k| factors.get(k).and_then(Json::as_f64)),
    }
}

/// Keeps what a run of `workload` learned, for the runs after it; a factor
/// it could not measure stays as remembered.  Failing to write only loses
/// the memory.
pub fn remember(workload: &str, learned: &Calibration) {
    let before = remembered(workload);
    let factors = Json::Arr(
        (0..3)
            .map(|k| learned.factors[k].or(before.factors[k]))
            .map(|f| f.map_or(Json::Null, Json::Num))
            .collect(),
    );
    let mut all: Vec<(String, Json)> = match calibration_json().get("slow_factors") {
        Some(Json::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    all.retain(|(name, _)| name != workload);
    all.push((workload.to_string(), factors));
    let json = Json::obj([
        (
            "fastest_pass_ns",
            learned.fastest_ns.map_or(Json::Null, Json::Num),
        ),
        ("slow_factors", Json::Obj(all)),
    ]);
    if let Ok(path) = calibration_file() {
        let _ = std::fs::write(path, json.render() + "\n");
    }
}

/// What a repetition's process hands back to the run that started it.
pub fn outcome_json(outcome: &Outcome) -> Json {
    let numbers = |values: &[u64]| Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect());
    let indices =
        |values: &[usize]| Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect());
    let repetitions = outcome.repetitions.iter().map(|r| {
        Json::obj([
            ("setup_s", Json::Num(r.setup_s)),
            ("submit_ns", numbers(&r.submit_ns)),
            ("unsubscribe_ns", numbers(&r.unsubscribe_ns)),
            ("batch_ns", numbers(&r.batch_ns)),
            ("submit_under", indices(&r.submit_under)),
            ("unsubscribe_under", indices(&r.unsubscribe_under)),
            ("batch_under", indices(&r.batch_under)),
            (
                "readings_ns",
                Json::Arr(r.readings.ns.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("fastest_ns", Json::Num(r.readings.fastest_ns)),
            ("wire_bytes", Json::Num(r.wire_bytes as f64)),
            ("wire_messages", Json::Num(r.wire_messages as f64)),
            ("alerts", Json::Num(r.alerts as f64)),
            ("results", Json::Num(r.results as f64)),
        ])
    });
    Json::obj([
        ("repetitions", Json::Arr(repetitions.collect())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("peak_rss_mb", Json::Num(outcome.peak_rss_mb)),
    ])
}

/// Reads [`outcome_json`] back.
pub fn outcome_from_json(json: &Json) -> Result<Outcome, String> {
    let number = |of: &Json, key: &str| -> Result<f64, String> {
        of.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no number `{key}`"))
    };
    let numbers = |of: &Json, key: &str| -> Result<Vec<f64>, String> {
        of.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no array `{key}`"))?
            .iter()
            .map(|v| v.as_f64().ok_or(format!("`{key}` holds a non-number")))
            .collect()
    };
    let whole = |of: &Json, key: &str| -> Result<Vec<u64>, String> {
        Ok(numbers(of, key)?.into_iter().map(|v| v as u64).collect())
    };
    let index = |of: &Json, key: &str| -> Result<Vec<usize>, String> {
        Ok(numbers(of, key)?.into_iter().map(|v| v as usize).collect())
    };
    let repetitions = json
        .get("repetitions")
        .and_then(Json::as_arr)
        .ok_or("no array `repetitions`")?
        .iter()
        .map(|r| {
            Ok(Repetition {
                setup_s: number(r, "setup_s")?,
                submit_ns: whole(r, "submit_ns")?,
                unsubscribe_ns: whole(r, "unsubscribe_ns")?,
                batch_ns: whole(r, "batch_ns")?,
                submit_under: index(r, "submit_under")?,
                unsubscribe_under: index(r, "unsubscribe_under")?,
                batch_under: index(r, "batch_under")?,
                readings: Readings {
                    ns: numbers(r, "readings_ns")?,
                    // Written as `null` when no reading was ever taken.
                    fastest_ns: number(r, "fastest_ns").unwrap_or(f64::INFINITY),
                },
                wire_bytes: number(r, "wire_bytes")? as u64,
                wire_messages: number(r, "wire_messages")? as u64,
                alerts: number(r, "alerts")? as u64,
                results: number(r, "results")? as u64,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let failures = json
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| match f {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    Ok(Outcome {
        repetitions,
        attempted: number(json, "attempted")? as u64,
        failed: number(json, "failed")? as u64,
        failures,
        peak_rss_mb: number(json, "peak_rss_mb")?,
    })
}

/// Runs the repetitions of one workload one after the other, each in a child
/// of this same binary, and puts together what they hand back.  A monitor
/// built on a heap an earlier monitor was freed into runs 8–15 % slower than
/// the first of its process; a user's monitor is the first of its process,
/// and repetitions that are to stand in for each other must all be.
pub fn run_in_children(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    for r in 0..workload.sizes(args.seconds).repetitions {
        let output = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--repetition", &r.to_string()])
            .output()
            .map_err(|e| format!("repetition {r}: cannot start child: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!(
                "repetition {r}: child exited with {}",
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let handed = Json::parse(stdout.lines().last().unwrap_or_default())
            .and_then(|json| outcome_from_json(&json))
            .map_err(|e| format!("repetition {r}: {e}"))?;
        outcome.absorb(handed);
    }
    Ok(outcome)
}

/// Runs every workload `args.runs` times (run `j` on `seed + j`),
/// sequentially, as one run set; writes it to `set-<index>.json`.  `Err`
/// when any run was incorrect.
pub fn run_set(args: &Args, index: usize) -> Result<PathBuf, String> {
    let mut workloads = Vec::new();
    let mut incorrect = Vec::new();
    for workload in &WORKLOADS {
        let mut runs = Vec::new();
        for j in 0..args.runs {
            let seed = args.seed.wrapping_add(j as u64);
            let result = run_child(workload.name, seed, args)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                incorrect.push(format!("{} seed {seed}", workload.name));
            }
            runs.push(Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("result", result),
            ]));
        }
        workloads.push((
            workload.name,
            Json::obj([
                ("sizes", sizes_json(&workload.sizes(args.seconds))),
                ("runs", Json::Arr(runs)),
            ]),
        ));
    }
    let set = Json::obj([
        ("host", host_stamp()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("traced", Json::Bool(args.trace)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = output_dir()
        .map_err(|e| e.to_string())?
        .join(format!("set-{index}.json"));
    std::fs::write(&path, set.render() + "\n").map_err(|e| e.to_string())?;
    println!("run set written to {}", path.display());
    if incorrect.is_empty() {
        Ok(path)
    } else {
        Err(format!("incorrect runs: {}", incorrect.join(", ")))
    }
}

/// The values one metric took over the runs of one workload in a set.
fn metric_values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Checks two run sets of the same build against every metric's bound, one
/// row per workload × metric.  A metric whose own quartile spread (in either
/// set) exceeds its bound cannot resolve a difference that small: it is
/// reported as *unresolved*, not as equal.  Returns the rows over bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<usize, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "change", "spread", "bound"
    );
    let mut over = 0;
    for workload in &WORKLOADS {
        for (metric, bound) in BOUNDS {
            let va = metric_values(&a, workload.name, metric);
            let vb = metric_values(&b, workload.name, metric);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {}: missing from a set", workload.name, metric));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma).abs() / ma.abs()
            };
            let own_spread = spread(&va).max(spread(&vb));
            let verdict = if own_spread > bound {
                "unresolved"
            } else if change > bound {
                over += 1;
                "OVER BOUND"
            } else {
                "agree"
            };
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>6.1}%  {verdict}",
                workload.name,
                metric,
                ma,
                mb,
                change * 100.0,
                own_spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(over)
}

/// Runs each workload at reduced length twice on `seed` and once on
/// `seed + 1` and demands that every count `counts` returns is bit-identical
/// for the one seed, and that the other seed moves at least one of them (a
/// count the topology alone fixes, such as merge-tree messages per round,
/// rightly stays put).  `Err` lists the violations.
pub fn check_determinism(
    seed: u64,
    counts: &mut dyn FnMut(&'static Workload, Sizes, u64) -> Vec<(String, f64)>,
) -> Result<(), String> {
    println!(
        "determinism: two runs on seed {seed}, one on seed {}",
        seed.wrapping_add(1)
    );
    let mut violations = Vec::new();
    for workload in &WORKLOADS {
        let sizes = Sizes {
            repetitions: 1,
            ..workload.sizes(1)
        };
        let first = counts(workload, sizes, seed);
        let again = counts(workload, sizes, seed);
        let other = counts(workload, sizes, seed.wrapping_add(1));
        let mut moved = false;
        for (((name, a), (_, b)), (_, c)) in first.iter().zip(&again).zip(&other) {
            let same = a.to_bits() == b.to_bits();
            moved |= a.to_bits() != c.to_bits();
            println!(
                "  {:<16} {:<26} {a:>16.6} {b:>16.6} {c:>16.6}  {}",
                workload.name,
                name,
                if same { "repeats" } else { "VIOLATION" }
            );
            if !same {
                violations.push(format!(
                    "{} {name}: {a} then {b} on one seed",
                    workload.name
                ));
            }
        }
        if !moved {
            violations.push(format!("{}: another seed changes no count", workload.name));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_outcome_survives_the_hand_back() {
        let outcome = Outcome {
            repetitions: vec![Repetition {
                setup_s: 0.75,
                submit_ns: vec![57_000, 61_250],
                unsubscribe_ns: vec![22_000],
                batch_ns: vec![3_700_000, 3_650_000],
                submit_under: vec![0, 0],
                unsubscribe_under: vec![2],
                batch_under: vec![1, 2],
                readings: Readings {
                    ns: vec![2_010.0, 3_900.5, 2_050.0, 2_020.0],
                    fastest_ns: 1_968.0,
                },
                wire_bytes: 2_775_000,
                wire_messages: 67_600,
                alerts: 66_560,
                results: 346_112,
            }],
            attempted: 5,
            failed: 1,
            failures: vec!["batch 3: 9 results delivered, oracle expects 10".into()],
            peak_rss_mb: 139.15,
        };
        let line = outcome_json(&outcome).render();
        let back = outcome_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, outcome);
    }
}
