#!/usr/bin/env bash
# CI entry: build the ledger offline, then its unit tests and the smoke pass
# (every workload, both passes, all gates, minimal counts, no bound checked).
# The two run side by side, one per core: neither checks a timing.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
cargo test --release --offline --quiet &
tests=$!
cargo run --release --offline --quiet -- --smoke >/dev/null
wait "$tests"
