#!/usr/bin/env bash
# Tier-1 verification gate. The workspace is hermetic (zero external
# crates), so everything runs with --offline: any accidental dependency
# on the registry fails the gate instead of silently downloading.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== sync deny-list lint (no raw locks over shared state) =="
scripts/lint_sync.sh

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --offline -- -D warnings

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== perfbench tests (own workspace: an API break in crates/* surfaces here first) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== flac-bench cache smoke (~1 s wall-clock gate, JSON shape + regressions) =="
cargo run --release --offline -p bench --bin flac-bench -- cache \
    --quick --out target/BENCH_cache.quick.json --gate

echo "== committed BENCH_cache.json honors the miss-heavy acceptance targets =="
cargo run --release --offline -p bench --bin flac-bench -- cache --check BENCH_cache.json

echo "== flac-bench serve smoke (open-loop loadgen gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-bench -- serve \
    --quick --out target/BENCH_serve.quick.json --gate

echo "== committed BENCH_serve.json honors the serving acceptance targets =="
cargo run --release --offline -p bench --bin flac-bench -- serve --check BENCH_serve.json

echo "== fault-storm campaigns: rack, tiering, sync, nr-sync, store (fixed seeds, whole outcome replay-verified) =="
cargo run --release --offline -p bench --bin flac-faultstorm -- all --seeds 2 --steps 60 --verify

echo "== tiering smoke: A7 ablation =="
cargo run --release --offline -p bench --bin figures -- tiering

echo "== flac-bench sync smoke (flat-combining gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-bench -- sync \
    --quick --out target/BENCH_sync.quick.json --gate

echo "== committed BENCH_sync.json honors the node-replication acceptance targets =="
cargo run --release --offline -p bench --bin flac-bench -- sync --check BENCH_sync.json

echo "== flac-bench topo smoke (region probe + huge-page tiering gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-bench -- topo \
    --quick --out target/BENCH_topo.quick.json --gate

echo "== committed BENCH_topo.json honors the ranged-shootdown acceptance targets =="
cargo run --release --offline -p bench --bin flac-bench -- topo --check BENCH_topo.json

echo "== flac-bench store smoke (~1 s shard sweep + overlap gate, JSON shape + invariants) =="
cargo run --release --offline -p bench --bin flac-bench -- store \
    --quick --out target/BENCH_store.quick.json --gate

echo "== committed BENCH_store.json honors the shard-scaling acceptance targets =="
cargo run --release --offline -p bench --bin flac-bench -- store --check BENCH_store.json

echo "verify: OK"
