#!/usr/bin/env bash
# Build, test and smoke-run the benchmark. Not wired into
# .github/workflows/ci.yml yet; a later PR can call this from a job.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline
# Every workload end to end, through child processes, at test length.
cargo run --release --offline --quiet -- run --seed 1 --smoke
