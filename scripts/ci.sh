#!/usr/bin/env bash
# CI gate for the FPDT reproduction: build, test, lint, and a JSON smoke
# check on the benchmark artifact pipeline. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

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

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "fpdt-lint (project invariants: determinism, env hygiene, fault tolerance)"
# The static pass fails on any finding not absorbed by lint-baseline.json
# and on any stale baseline entry; it prints one LINT_OK line when clean.
# `|| true` so the findings echo before the grep gate fails the script.
out=$(cargo run -q --release --bin fpdt-lint || true)
echo "$out"
if ! grep -q '^LINT_OK ' <<<"$out"; then
    echo "FAIL: fpdt-lint found new violations or stale baseline entries" >&2
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
# and its backward must cost at most 2.8 forwards of wall time (2.5 counted).
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
# The runtime switch to the fallback: the SIMD equivalence suite must
# also hold when `FPDT_SIMD=0` makes auto-dispatch pick scalar.
FPDT_SIMD=0 cargo test -q -p fpdt-tensor --test simd_equivalence

stage "runtime --json --quick smoke (copy and comm overlap must be measurable)"
# One kernel thread per rank, and the bench does not resize the pool: the
# regime the repo benchmark runs (FPDT_THREADS=2 over 2 ranks), where a
# copy stream borrowed from the kernel pool ran every transfer inline.
out=$(FPDT_THREADS=1 cargo run -q --release -p fpdt-bench --bin runtime -- --json --quick)
echo "$out"
# The runtime bench asserts that repeated runs give bitwise-identical
# losses and that bf16 halves the all-to-all bytes exactly, validates
# BENCH_runtime.json, and exits nonzero when a run hides none of a
# stream's busy time from the rank thread (1 - exposed/busy, the
# benchmark's offload/comm overlap_fraction) — f32 and bf16 alike.
if ! grep -q '^BENCH_JSON_OK .*BENCH_runtime\.json$' <<<"$out"; then
    echo "FAIL: runtime --json did not validate BENCH_runtime.json" >&2
    exit 1
fi
for gate in RUNTIME_OVERLAP RUNTIME_COMM_OVERLAP RUNTIME_BF16_OVERLAP RUNTIME_BF16_COMM_OVERLAP; do
    if ! grep -q "^${gate}_OK " <<<"$out"; then
        echo "FAIL: ${gate}: a stream hid none of its busy time behind compute" >&2
        exit 1
    fi
done

stage "resume --json --quick (checkpoint/restore and fault recovery must be bitwise)"
out=$(cargo run -q --release -p fpdt-bench --bin resume -- --json --quick)
echo "$out"
# The resume bench trains uninterrupted, replays the same run through a
# checkpoint -> Trainer::resume round trip, then again under injected
# transient collective faults with a replay budget. It asserts bitwise
# loss/grad/traffic equality on both legs before printing its gate line.
if ! grep -q '^RUNTIME_RESUME_OK ' <<<"$out"; then
    echo "FAIL: checkpoint/resume or fault recovery diverged from the uninterrupted run" >&2
    exit 1
fi

stage "autotune --json --quick (the tuned pick must not lose to the default)"
# The autotune bench probes every (chunks, bf16) cell by training it as it
# will run, picks the fastest, then measures every candidate again in
# interleaved rounds: the tuned config must reach 0.97x the default's
# tokens/s (the measurement noise floor).
out=$(cargo run -q --release -p fpdt-bench --bin autotune -- --json --quick) || true
echo "$out"
if ! grep -q '^BENCH_JSON_OK .*BENCH_autotune\.json$' <<<"$out" \
    || ! grep -q '^RUNTIME_AUTOTUNE_OK ' <<<"$out"; then
    echo "FAIL: autotune did not validate BENCH_autotune.json or its tuned pick lost to the default" >&2
    exit 1
fi

stage "cargo test -q -p fpdt-core under the tuned configuration"
# The tuner writes its pick as sourceable FPDT_* exports; the core test
# suite must pass unchanged under exactly that configuration — tuning
# may move schedules, never results.
(
    # shellcheck disable=SC1091
    source target/experiments/autotune_env.sh
    cargo test -q -p fpdt-core
)

stage "cargo test -q --workspace under FPDT_THREADS=1"
# The whole suite must also pass with the kernel pool pinned to a single
# thread (the sequential fast path) — same numbers, same results.
FPDT_THREADS=1 cargo test -q --workspace

stage "cargo test -q --workspace under FPDT_BF16=1"
# And with bf16 wire payloads on everywhere: the one numerics-affecting
# knob. Cross-mode loss comparisons pin it off internally; everything
# else must hold bit-for-bit schedules and bf16-tolerance numerics.
FPDT_BF16=1 cargo test -q --workspace

stage "cargo test -q -p fpdt-core under FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4"
# The tier-1 suite must pass with transient collective faults injected
# into every group and enough replay budget to absorb them: recovery is
# a scheduling event, never a numerics event. (Determinism suites that
# measure fault counters pin the knobs off internally.)
FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4 cargo test -q -p fpdt-core

stage_starts+=("$SECONDS")
echo "==> CI wall time by stage"
for i in "${!stage_names[@]}"; do
    printf '%5ss  %s\n' "$((stage_starts[i + 1] - stage_starts[i]))" "${stage_names[$i]}"
done
printf '%5ss  total\n' "$((SECONDS - stage_starts[0]))"
echo "CI OK"
