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

stage "cargo fmt --check (rustfmt's default settings)"
# The workspace members only: vendor/ and benchmark/ are not members.
cargo fmt --check

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
# Also the project invariants: clippy.toml, [workspace.lints] and the
# `#![deny(..)]` lines (DESIGN.md "Static invariants").
cargo clippy --workspace --all-targets -- -D warnings

stage "lint canary (clippy rejects a planted violation of each invariant)"
# A misspelt clippy.toml path or a dropped `#![deny]` line would enforce
# nothing; the canary plants one violation per rule in a throwaway copy
# of the tree and prints one LINT_CANARY_OK line per rule.
out=$(scripts/lint_canary.sh)
echo "$out"
if [ "$(grep -c '^LINT_CANARY_OK ' <<<"$out")" -ne 10 ]; then
    echo "FAIL: the lint canary did not pass every rule" >&2
    exit 1
fi

stage "cargo doc --no-deps --workspace --lib with rustdoc warnings denied"
# A doc link to an item that was deleted, made private or named ambiguously
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

stage "examples that assert on the one-device path"
# Each trains or runs one-device chunked attention (`LocalAttention`) and
# asserts on the result: chunk sweep and backward against the reference
# (max error < 1e-3), copy-task loss < 0.05, greedy generation's chain
# accuracy. A failed assert exits non-zero and stops the script.
for example in chunked_attention long_range_copy text_generation; do
    cargo run -q --release --example "$example"
done

stage "traced_training example, then waits on its trace"
# The example trains FPDT at 8 offloaded chunks on 2 ranks with a recorder
# attached, so its forward folds KV tiles fetched from the host, and writes
# the Chrome trace. `waits` attributes each stream wait to its block and
# slot from the block, slot and dense spans; a forward without a row means
# those spans no longer nest the way the tool reads them.
cargo run -q --release -p fpdt-core --example traced_training
if ! out=$(cargo run -q --release -p fpdt-bench --bin waits -- \
    target/experiments/traced_training.trace.json); then
    echo "FAIL: waits could not read the traced example's trace" >&2
    exit 1
fi
echo "$out"
if ! grep -q ' block\.fwd ' <<<"$out"; then
    echo "FAIL: waits printed no block.fwd row for the traced example" >&2
    exit 1
fi

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

stage "simulator bins: ablation, future_work, figure1, figure7, figure8_9, figure12, figure13 --json, table3"
# The nest/stream/chunk ablations and the bins that read a simulated
# block's report through simulate_block or strategy::Fpdt, table1 (12 s)
# excepted. The bins write target/experiments relative to the working
# directory, so they run from a throwaway one; a non-zero exit (a failed
# assert or simulation) fails the stage.
root=$PWD
sim_dir=$(mktemp -d)
trap 'rm -rf "$sim_dir"' EXIT
for run in ablation future_work figure1 figure7 figure8_9 figure12 "figure13 --json" table3; do
    # A bin name, then its arguments.
    read -r -a argv <<<"$run"
    if ! (cd "$sim_dir" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
        -p fpdt-bench --bin "${argv[0]}" -- "${argv[@]:1}"); then
        echo "FAIL: simulator bin '$run' exited non-zero" >&2
        exit 1
    fi
done

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
# Likewise the MLP's activation work must not outweigh its own gemms:
# single-thread gelu (forward) + gelu_fwd_bwd (the backward's fused rebuild
# and gradient) at [1024,256] against fc1 + fc2 forward and backward at
# [1024,64]x[64,256] of the same run.
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_ACT_OK ' <<<"$out"; then
    echo "FAIL: gelu + gelu_fwd_bwd cost more than the MLP gemms they sit between" >&2
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
# On AVX-512 hosts the 16-lane gemm tiles must pay: single-thread
# linear_chunk on the avx512 backend at most 0.85 of the avx2 backend's wall
# time (the median ratio of back-to-back call pairs; 0.56-0.67 measured).
if grep -q '"avx512": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_WIDE_OK ' <<<"$out"; then
    echo "FAIL: linear_chunk on avx512 not under 0.85 of its avx2 wall time" >&2
    exit 1
fi
# And so must the attention tile's 16-lane block softmax: the fully-visible
# runtime-shape tile forward on avx512 at most 0.6 of its avx2 wall time
# (median of back-to-back pairs; 0.55-0.56 measured, 0.64-0.67 with the
# block softmax on 8 lanes).
if grep -q '"avx512": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_WIDE_ATTN_OK ' <<<"$out"; then
    echo "FAIL: attention tile forward on avx512 not under 0.6 of its avx2 wall time" >&2
    exit 1
fi

stage "kernels --features scalar-only smoke (portable fallback builds)"
out=$(cargo run -q --release -p fpdt-bench --features scalar-only --bin kernels -- --json --quick)
echo "$out"
# The scalar-only build drops the AVX2 and AVX-512 instantiations entirely;
# the bench must still validate its artifact (no roofline gate applies).
if ! grep -q '^BENCH_JSON_OK .*BENCH_kernels\.json$' <<<"$out"; then
    echo "FAIL: scalar-only kernels build did not validate BENCH_kernels.json" >&2
    exit 1
fi

stage "ledger --quick (device ledger: exact billing, every tag back after each Trainer)"
# The `ledger` bin installs the tagged allocator. It checks that a one-rank
# run with a known allocation pattern (pool items included) bills its tag
# exactly, then trains three small configurations and checks that every
# rank tag and the host tag hold the bytes they held before each Trainer
# once it drops. A thread budget above the world size makes pool workers
# run items: their per-thread scratch outlives the Trainer and must bill
# no rank.
out=$(FPDT_THREADS=4 cargo run -q --release -p fpdt-bench --bin ledger -- --quick)
echo "$out"
if ! grep -q '^LEDGER_OK$' <<<"$out"; then
    echo "FAIL: the device ledger's quick check did not pass" >&2
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

stage "plain count of crates/*/src (printed, not a gate)"
# The non-test line count every change reports, from one command.
scripts/plain_count.sh | tail -n 1

stage_starts+=("$SECONDS")
echo "==> CI wall time by stage"
for i in "${!stage_names[@]}"; do
    printf '%5ss  %s\n' "$((stage_starts[i + 1] - stage_starts[i]))" "${stage_names[$i]}"
done
printf '%5ss  total\n' "$((SECONDS - stage_starts[0]))"
echo "CI OK"
