#!/usr/bin/env bash
# The benchmark's command: builds this package from source and runs the
# binary the arguments ask for -- `benchmark` (end to end, tracing off) or,
# with `--trace 1`, `benchmark_trace` (per-layer).  Run from the root of a
# checkout: bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

bin=benchmark
previous=
for argument in "$@"; do
    if [[ "$previous" == --trace && "$argument" != 0 ]]; then
        bin=benchmark_trace
    fi
    previous="$argument"
done

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

build "$bin"
# The first run in a checkout is the one allowed to take long, so it builds
# the traced binary too; a traced binary that no longer compiles against a
# refactored layer must not take the end-to-end run down with it.
if [[ "$bin" == benchmark ]]; then
    build benchmark_trace || echo "run.sh: benchmark_trace does not build; end-to-end run continues" >&2
fi

exec "$target/release/$bin" "$@"
