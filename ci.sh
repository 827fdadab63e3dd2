#!/usr/bin/env bash
# The repository's full verification gate. Everything here must pass
# before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> klint (determinism + MSR-protocol + unsafe/atomics invariants, baseline: klint.baseline)"
cargo run -q -p klint -- --workspace
mkdir -p target
cargo run -q -p klint -- --workspace --format json > target/klint-report.json
echo "    report: target/klint-report.json"

echo "==> api-snapshot gate (public API inventory matches committed api.txt)"
cargo run -q -p klint --bin apisnap --

echo "==> rustdoc (warnings are errors; compat/ stand-ins excluded, they mirror upstream crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
    --exclude criterion --exclude jsonlite --exclude proptest \
    --exclude rand --exclude rand_distr

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> kbench build (the repo benchmark: its own workspace, path deps on the crates)"
cargo build --release --offline --manifest-path kbench/Cargo.toml

echo "==> cargo test"
cargo test -q --workspace

echo "==> meltdown gate (Flush+Reload recovers the secret under 100 us K-LEB monitoring)"
cargo run -q --release --example meltdown_detect

echo "==> chaos gate (fault injection: accounting, determinism, recovery)"
cargo test -q --test chaos
cargo run -q --release --example fault_matrix -- --quick

echo "==> trace gate (codec round-trip, corruption recovery, record->replay bit-exactness)"
cargo test -q -p ktrace
cargo run -q --release --example record_replay -- --quick

echo "==> supervision gate (panic containment, deterministic restart, breakers, partial outcomes)"
cargo test -q --test supervision
cargo run -q --release --example supervision -- --quick

echo "==> perf-smoke gate (SPSC ring fan-in >= 2x a Mutex-channel baseline at N=64, drop ledger balanced)"
cargo run -q --release -p kleb-bench --bin ingest_perf -- --quick

echo "==> governor gate (closed-loop rate control beats the best coverage-matching fixed period)"
cargo run -q --release -p kleb-bench --bin governor_perf -- --quick
cargo run -q --release --example rate_governor -- --quick

echo "==> kloom gate (exhaustive interleavings: ring protocol, doorbell, ordering mutations)"
# Separate target dir: --cfg kloom changes every crate's fingerprint, and
# sharing target/ would force full rebuilds of the normal artifacts above.
KLOOM_FLAGS="--cfg kloom"
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p kloom
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p kchan --test kloom_ring
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p fleet --test kloom_doorbell
RUSTFLAGS="$KLOOM_FLAGS" CARGO_TARGET_DIR=target/kloom \
    cargo test -q -p fleet --test kloom_restart

echo "==> OK"
