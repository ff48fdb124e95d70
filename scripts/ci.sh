#!/usr/bin/env bash
# CI gate for the FPDT reproduction: build, test, lint, and a JSON smoke
# check on the benchmark artifact pipeline. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The golden tests rewrite their files instead of checking them when
# GOLDEN_REGEN is set (even to nothing): a CI run under it would bless
# whatever bits the tree computes.
if [ -n "${GOLDEN_REGEN+set}" ]; then
    echo "FAIL: GOLDEN_REGEN is set; regenerate golden files by hand, not under CI" >&2
    exit 1
fi

# Stage timing: `stage NAME` marks where a stage starts; the per-stage and
# total wall seconds print at the end, so the CI wall time is a tracked
# number.
stage_names=()
stage_starts=()
stage() {
    stage_names+=("$1")
    stage_starts+=("$SECONDS")
    echo "==> $1"
}

stage "cargo build --release --workspace"
cargo build --release --workspace

stage "cargo test -q --workspace"
cargo test -q --workspace
# The goldens pin values (exec_grads.txt), on-disk bytes (ckpt_shards.txt)
# and schedules: the test stage must leave them as the index has them.
if ! git diff --quiet -- crates/core/tests/golden; then
    git diff --stat -- crates/core/tests/golden >&2
    echo "FAIL: crates/core/tests/golden differs from the index (stage an intended regeneration with git add)" >&2
    exit 1
fi

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc --no-deps --workspace --lib with rustdoc warnings denied"
# A doc link to an item that was deleted, made private or named ambiguously
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

stage "fpdt-lint (project invariants: determinism, env hygiene, fault tolerance)"
# The static pass fails on any finding not suppressed inline; it prints
# one LINT_OK line when clean. `|| true` so the findings echo before the
# grep gate fails the script.
out=$(cargo run -q --release --bin fpdt-lint || true)
echo "$out"
if ! grep -q '^LINT_OK ' <<<"$out"; then
    echo "FAIL: fpdt-lint found violations" >&2
    exit 1
fi

stage "examples that assert on the one-device path"
# Each trains or runs one-device chunked attention (`LocalAttention`) and
# asserts on the result: chunk sweep and backward against the reference
# (max error < 1e-3), copy-task loss < 0.05, greedy generation's chain
# accuracy. A failed assert exits non-zero and stops the script.
for example in chunked_attention long_range_copy text_generation; do
    cargo run -q --release --example "$example"
done

stage "figure11 --json smoke (BENCH_ artifacts must parse)"
out=$(cargo run -q --release -p fpdt-bench --bin figure11 -- --json)
echo "$out"
# emit_bench_artifacts re-parses every artifact it writes and prints one
# BENCH_JSON_OK line per file; both the metrics doc and the Chrome trace
# must make it through.
if [ "$(grep -c '^BENCH_JSON_OK ' <<<"$out")" -lt 2 ]; then
    echo "FAIL: figure11 --json did not validate its BENCH_ artifacts" >&2
    exit 1
fi

stage "kernels --json --quick smoke (BENCH_kernels.json must parse)"
out=$(cargo run -q --release -p fpdt-bench --bin kernels -- --json --quick)
echo "$out"
# The kernel bench asserts bitwise-identical outputs across every
# backend/thread configuration before printing its BENCH_JSON_OK line.
if ! grep -q '^BENCH_JSON_OK .*BENCH_kernels\.json$' <<<"$out"; then
    echo "FAIL: kernels --json did not validate BENCH_kernels.json" >&2
    exit 1
fi
# On AVX2 hosts the fully-visible runtime-shape attention tile must reach
# 0.6 of the same run's single-thread matmul GFLOP/s, forward and backward,
# and its backward must cost at most 2.8 forwards of wall time (2.5 counted;
# the median ratio of back-to-back call pairs).
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_ATTN_ROOFLINE_OK ' <<<"$out"; then
    echo "FAIL: attention tile under 0.6 of same-run matmul throughput, or its backward over 2.8 forwards, on an AVX2 host" >&2
    exit 1
fi
# Likewise the MLP's activation pair must not outweigh its own gemms:
# single-thread gelu + gelu_bwd at [1024,256] against fc1 + fc2 forward and
# backward at [1024,64]x[64,256] of the same run.
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_ACT_OK ' <<<"$out"; then
    echo "FAIL: gelu + gelu_bwd cost more than the MLP gemms they sit between" >&2
    exit 1
fi
# And one parameter's AdamW step must stay a lane-wise kernel: at most two
# gelu elements of the same run (1.3-1.5 measured; a scalar loop costs 5).
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_OPT_OK ' <<<"$out"; then
    echo "FAIL: an AdamW parameter step costs more than two gelu elements" >&2
    exit 1
fi
# And the projections' backward must run at gemm speed: single-thread
# matmul_bwd at 0.75 or more of the same run's matmul GFLOP/s (0.85-0.97
# measured at 512 cubed; a gemm_nt of per-row dot sweeps sat at 0.62-0.67).
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_DENSE_OK ' <<<"$out"; then
    echo "FAIL: matmul_bwd under 0.75 of the same run's matmul GFLOP/s" >&2
    exit 1
fi

stage "kernels --features scalar-only smoke (portable fallback builds)"
out=$(cargo run -q --release -p fpdt-bench --features scalar-only --bin kernels -- --json --quick)
echo "$out"
# The scalar-only build drops the AVX2 instantiation entirely; the bench
# must still validate its artifact (no roofline gate applies).
if ! grep -q '^BENCH_JSON_OK .*BENCH_kernels\.json$' <<<"$out"; then
    echo "FAIL: scalar-only kernels build did not validate BENCH_kernels.json" >&2
    exit 1
fi

stage "cargo test -q -p fpdt-core under FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4"
# The tier-1 suite must pass with transient collective faults injected
# into every group and enough replay budget to absorb them: recovery is
# a scheduling event, never a numerics event. (The determinism oracle
# sets its fault knobs per case, so it measures exact fault counters
# under this leg too.)
FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4 cargo test -q -p fpdt-core

stage "cargo test --offline --locked --manifest-path benchmark/Cargo.toml (the fixed benchmark)"
# The repo benchmark is a package of its own that compiles against the
# workspace crates' public APIs: an API change it cannot build against,
# or a dependency edge that would rewrite its lock file (`--locked`),
# fails here rather than when the benchmark is next run.
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

stage_starts+=("$SECONDS")
echo "==> CI wall time by stage"
for i in "${!stage_names[@]}"; do
    printf '%5ss  %s\n' "$((stage_starts[i + 1] - stage_starts[i]))" "${stage_names[$i]}"
done
printf '%5ss  total\n' "$((SECONDS - stage_starts[0]))"
echo "CI OK"
