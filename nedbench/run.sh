#!/usr/bin/env bash
# Builds ned-cli (the program under test, from the repository root) and
# the benchmark, then runs the benchmark with the given arguments:
#   bash nedbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ned-cli >&2
cargo build --release --offline --quiet --manifest-path nedbench/Cargo.toml >&2
exec "$target/release/nedbench" --ned-cli "$target/release/ned-cli" "$@"
