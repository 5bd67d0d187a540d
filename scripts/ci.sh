#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access
# (the workspace has no external dependencies by design).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --offline --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings
# perfbench is a Cargo workspace of its own, so the workspace lint misses it.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== bench binaries build =="
cargo build --benches --release --offline

echo "== benchmark tests (perfbench builds against the workspace crates by path) =="
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke run (fleet-verbs 1 s: pinned sharded sim_ops, digests, MTT/QPC counts) =="
last=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fleet-verbs --seed 42 --seconds 1 --trace 0 | tail -n 1)
case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench fleet-verbs is not correct: $last" >&2; exit 1 ;;
esac

echo "== benchmark smoke run (openloop 1 s: pinned traffic and txn digests prove the key draws did not move) =="
last=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload openloop --seed 42 --seconds 1 --trace 0 | tail -n 1)
case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench openloop is not correct: $last" >&2; exit 1 ;;
esac

echo "== benchmark smoke run (apps-closed 1 s: pinned join and hashtable results prove the resource calendars did not move) =="
last=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload apps-closed --seed 42 --seconds 1 --trace 0 | tail -n 1)
case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench apps-closed is not correct: $last" >&2; exit 1 ;;
esac

echo "== determinism check (3-way: serial vs parallel vs sharded) =="
# The gate's id set includes fig6-xxl: a small-scale fleet sweep whose
# rendered notes carry the sparse pool's resident-page digests, so all
# three legs also prove memory materialization/elision byte-identity.
cargo run --release --offline -p bench -- --check-determinism

echo "== fig6-xxl fleet sweep (2048 machines on the sparse lazy-page pool) =="
cargo run --release --offline -p bench -- fig6-xxl >/dev/null

echo "== open-loop traffic smoke sweep (3-way determinism, all apps) =="
cargo run --release --offline -p bench -- --traffic all --load 0.25 --check-determinism

echo "== txn smoke sweep (3-way determinism, all profiles, both modes) =="
cargo run --release --offline -p bench -- --txn all --load 0.05 --check-determinism

echo "== micro set, sharded (--shards 2) =="
cargo run --release --offline -p bench -- micro --shards 2 >/dev/null

echo "== root examples (each must run to completion; three assert on their own results) =="
for ex in quickstart remote_locks disaggregated_kv shuffle_pipeline; do
    cargo run --release --offline --quiet --example "$ex" >/dev/null
done

echo "== bench-compare (sim_ops must match committed BENCH_engine.json) =="
# --serial: the committed baseline was recorded serially, and the peak
# heap is a process-wide high-water mark that concurrent experiments would
# share, so only a serial run checks each one's footprint (sim_ops are
# identical either way).
cargo run --release --offline -p bench -- --serial --bench-compare BENCH_engine.json

echo "== static verb analysis (verbcheck over every experiment program) =="
cargo run --release --offline -p bench -- --lint all

echo "== device-capability sweep (every profile must stay error-free) =="
cargo run --release --offline -p bench -- --lint --caps sweep all >/dev/null

echo "== auto-fix fixpoint (zero W2xx after repro --lint --fix all) =="
cargo run --release --offline -p bench -- --lint --fix all >/dev/null

echo "CI OK"
