#!/usr/bin/env bash
# Gate for the benchmark package itself: format, lints, unit tests, and a
# smoke run of every workload (2 s each, all output checks on).
# Not yet wired into .github/workflows/ci.yml: that file is outside the
# paths the change that added the benchmark was allowed to touch.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml)
cargo fmt "${manifest[@]}" --check
cargo clippy --offline --all-targets "${manifest[@]}" -- -D warnings
cargo test --offline --release "${manifest[@]}"
cargo run --offline --release --quiet "${manifest[@]}" -- all --smoke
