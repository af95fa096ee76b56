#!/usr/bin/env bash
# Builds the daemon and the benchmark harness, then runs the harness
# from the repository root. Arguments go to the harness unchanged; see
# benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds, so the harness finds the daemon
# beside itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin tdmatch 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/tdbench" "$@"
