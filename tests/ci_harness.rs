//! The committed CI gate harness (`ci/check_bench.py`) is part of the
//! build: `cargo test` runs its fixture self-test — every gate passes on a
//! good trajectory and fails on a regressed one — and validates that the
//! committed `BENCH_*.json` trajectories still carry every field the gates
//! read, so a bench or field rename cannot silently skip a gate in CI.

use std::process::Command;

fn run_harness(args: &[&str]) -> Option<std::process::Output> {
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/check_bench.py");
    match Command::new("python3").arg(script).args(args).output() {
        Ok(output) => Some(output),
        Err(e) => {
            // No python3 on this host: the harness still runs in CI, which
            // installs one; skip rather than fail the tier-1 suite.
            eprintln!("skipping gate-harness test: python3 unavailable ({e})");
            None
        }
    }
}

fn assert_success(output: std::process::Output, what: &str) {
    assert!(
        output.status.success(),
        "{what} failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn gate_harness_self_test_passes() {
    if let Some(output) = run_harness(&["--self-test"]) {
        assert_success(output, "ci/check_bench.py --self-test");
    }
}

#[test]
fn committed_trajectories_satisfy_the_gate_schema() {
    if let Some(output) = run_harness(&["schema"]) {
        assert_success(output, "ci/check_bench.py schema");
    }
}

#[test]
fn committed_filter_trajectory_passes_the_filter_gate() {
    // The committed BENCH_filter.json must satisfy the filter gate:
    // never slower than naive at any measured count, >= 5.5x at 10000 subs.
    if let Some(output) = run_harness(&["filter"]) {
        assert_success(output, "ci/check_bench.py filter");
    }
}

#[test]
fn committed_scale_trajectory_passes_the_scale_gate() {
    // The committed BENCH_scale.json must show sublinear per-alert growth
    // over the MassiveStorm: the 10k tier under 3x the 1k tier.
    if let Some(output) = run_harness(&["scale"]) {
        assert_success(output, "ci/check_bench.py scale");
    }
}

#[test]
fn committed_scale_trajectory_passes_the_dht_gate() {
    // Definition lookups must ride the Chord overlay within the log2(nodes)
    // hop bound at every tier — and must actually be exercised.
    if let Some(output) = run_harness(&["dht"]) {
        assert_success(output, "ci/check_bench.py dht");
    }
}

#[test]
fn committed_reuse_trajectory_passes_the_locality_gate() {
    // The committed BENCH_reuse.json must show rate-aware placement strictly
    // beating count-based on bytes × latency-weighted hops over the paired
    // storm at 256 subs, no regression at the 10k single-input tier, and
    // byte-identical sink output on every row.
    if let Some(output) = run_harness(&["locality"]) {
        assert_success(output, "ci/check_bench.py locality");
    }
}

#[test]
fn committed_sketch_trajectory_passes_the_sketch_gate() {
    // The committed BENCH_sketch.json must show the sketch plane moving
    // ≥5x fewer wire bytes than the ship-items baseline at the 10k-peer
    // tier, sublinear sketch-byte growth, and answers within the sketches'
    // accuracy bounds of the exact oracle.
    if let Some(output) = run_harness(&["sketch"]) {
        assert_success(output, "ci/check_bench.py sketch");
    }
}

#[test]
fn committed_chaos_trajectory_passes_the_chaos_gate() {
    // Every committed chaos scenario must converge to the fault-free
    // oracle with zero unaccounted or double-delivered alerts, replay
    // bit-identically, and keep covering all six fault families.
    if let Some(output) = run_harness(&["chaos"]) {
        assert_success(output, "ci/check_bench.py chaos");
    }
}

/// Every `*.md` file the prose cites — in `README.md`, `docs/*.md` and the
/// module docs of each `crates/*/src/lib.rs` — must exist, resolved against
/// the workspace root or the citing file's own directory.
#[test]
fn cited_markdown_files_exist() {
    use std::path::{Path, PathBuf};

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let list = |dir: &str| -> Vec<PathBuf> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir} must be listable: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        entries
    };
    let mut sources = vec![root.join("README.md")];
    sources.extend(
        list("docs")
            .into_iter()
            .filter(|path| path.extension().is_some_and(|ext| ext == "md")),
    );
    sources.extend(
        list("crates")
            .into_iter()
            .map(|krate| krate.join("src/lib.rs")),
    );

    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut dangling = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(source)
            .unwrap_or_else(|e| panic!("{} must be readable: {e}", source.display()));
        let module_docs_only = source.extension().is_some_and(|ext| ext == "rs");
        let here = source.parent().expect("a file has a directory");
        for line in text.lines() {
            if module_docs_only && !line.trim_start().starts_with("//!") {
                continue;
            }
            for cited in line
                .split(|c: char| !is_path_char(c))
                .filter(|word| word.len() > 3 && word.ends_with(".md"))
            {
                if !root.join(cited).is_file() && !here.join(cited).is_file() {
                    dangling.push(format!("{} cites {cited}", source.display()));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "documentation cites files that do not exist:\n{}",
        dangling.join("\n")
    );
}
