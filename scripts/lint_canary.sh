#!/usr/bin/env bash
# Lint canary: shows that the clippy configuration carrying the project
# invariants (clippy.toml, crates/tensor/clippy.toml, [workspace.lints] in
# Cargo.toml and the `#![deny(..)]` lines; DESIGN.md "Static invariants")
# still rejects a violation of each. A misspelt path in clippy.toml or a
# dropped `#![deny]` line would otherwise enforce nothing, silently.
#
# In a throwaway copy of the tree under target/lint-canary it plants
# violations one package at a time, runs clippy on that package, and fails
# unless clippy rejects every planted file under the expected lint. It
# prints one LINT_CANARY_OK line per rule. It also fails on an `allow(..)`
# of an invariant lint anywhere in the tree: a sanctioned exception is an
# `#[expect(<lint>, reason = "..")]`, which fails once it is stale.
# Run from anywhere; scripts/ci.sh runs it after its clippy stage.
set -euo pipefail
cd "$(dirname "$0")/.."

invariant_lints='disallowed_methods|disallowed_types|unwrap_used|expect_used|let_underscore_drop|let_underscore_must_use|unused_result_ok|items_after_test_module|allow_attributes_without_reason|unfulfilled_lint_expectations'
allows=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 perl -0ne '
    while (/allow\s*\(([^()]*)\)/g) {
        my $lints = $1;
        print "$ARGV: allow($lints)\n" if $lints =~ /\b('"$invariant_lints"')\b/;
    }')
if [ -n "$allows" ]; then
    echo "$allows" >&2
    echo "FAIL: an invariant lint is allowed; make the exception an #[expect(<lint>, reason = \"..\")]" >&2
    exit 1
fi

canary=target/lint-canary
tree=$canary/tree
rm -rf "$tree"
mkdir -p "$tree"
tar --exclude=./target --exclude=./benchmark --exclude=./.git -cf - . | tar -xf - -C "$tree"
export CARGO_TARGET_DIR="$PWD/$canary/build"

rules=()         # every rule, in the order planted
declare -A seen  # rule -> "lint in file" of each planted violation that clippy rejected
planted=()       # "rule file lint" of each violation planted in the current package

# plant RULE FILE LINT CODE [end]: puts CODE in the copy of FILE above its
# first column-0 `#[cfg(test)]` (or at its end), expecting clippy to reject
# it under LINT.
plant() {
    local rule=$1 file=$2 lint=$3 code=$4 at=${5:-}
    awk -v code="$code" -v at="$at" '
        !done && at != "end" && /^#\[cfg\(test\)\]/ { print code; done = 1 }
        { print }
        END { if (!done) print code }' "$tree/$file" >"$tree/$file.planted"
    mv "$tree/$file.planted" "$tree/$file"
    planted+=("$rule $file $lint")
    [ -n "${seen[$rule]+set}" ] || rules+=("$rule")
    seen[$rule]=${seen[$rule]:-}
}

# lint_package PACKAGE [target selection..]: runs clippy on the planted
# package (all its targets by default, as the CI stage does: a
# `#[cfg(test)]` module exists only in a test build), checks that each
# planted file was rejected under its lint, then restores the copies of
# the planted files.
lint_package() {
    local package=$1 out=$canary/$1.json
    shift
    [ $# -gt 0 ] || set -- --all-targets
    if (cd "$tree" && cargo clippy --offline --quiet --message-format=json -p "$package" "$@" \
        -- -D warnings) >"$out" 2>"$canary/$package.log"; then
        echo "FAIL: clippy accepted $package with violations planted" >&2
        exit 1
    fi
    local entry rule file lint
    for entry in "${planted[@]}"; do
        read -r rule file lint <<<"$entry"
        # One JSON line per diagnostic: an error in the planted file under
        # `lint`. (No `grep -q`: an early exit would fail the pipe.)
        if ! grep '"level":"error"' "$out" | grep -F "\"file_name\":\"$file\"" \
            | grep -F "\"code\":{\"code\":\"$lint\"" >/dev/null; then
            cat "$canary/$package.log" >&2
            echo "FAIL: $rule: clippy did not reject $file under $lint" >&2
            exit 1
        fi
        seen[$rule]+=" $lint in $file;"
        cp "$file" "$tree/$file"
    done
    planted=()
}

plant wallclock-in-kernel crates/tensor/src/par.rs clippy::disallowed_types \
    'pub fn lint_canary_clock() -> std::time::Instant { std::time::Instant::now() }'
plant raw-thread-spawn crates/tensor/src/ctx.rs clippy::disallowed_methods \
    'pub fn lint_canary_thread() { std::thread::scope(|_| {}) }'
lint_package fpdt-tensor

plant unordered-map-emission crates/trace/src/metrics.rs clippy::disallowed_types \
    'pub fn lint_canary_map() -> std::collections::HashMap<u8, u8> { Default::default() }'
lint_package fpdt-trace

plant unwrap-in-comm-path crates/comm/src/collectives.rs clippy::unwrap_used \
    'pub fn lint_canary_unwrap(x: Option<u8>) -> u8 { x.unwrap() }'
plant unordered-map-emission crates/comm/src/stats.rs clippy::disallowed_types \
    'pub fn lint_canary_map() -> std::collections::HashSet<u8> { Default::default() }'
plant raw-thread-spawn crates/comm/src/engine.rs clippy::disallowed_methods \
    'pub fn lint_canary_thread() { drop(std::thread::spawn(|| {})) }'
lint_package fpdt-comm

plant env-outside-options crates/core/src/runtime/options.rs clippy::disallowed_methods \
    'pub fn lint_canary_env() -> bool { std::env::var_os("FPDT_LINT_CANARY").is_some() }'
plant unwrap-in-comm-path crates/core/src/runtime/exec.rs clippy::expect_used \
    'pub fn lint_canary_expect(x: Option<u8>) -> u8 { x.expect("canary") }'
plant unordered-map-emission crates/core/src/runtime/exec.rs clippy::disallowed_types \
    'pub fn lint_canary_map() -> std::collections::HashMap<u8, u8> { Default::default() }'
plant dropped-span-guard crates/core/src/runtime/gpt.rs let_underscore_drop \
    'pub fn lint_canary_span(rec: &fpdt_trace::Recorder) { let _ = rec.span("canary"); }'
plant unchecked-ckpt-io crates/core/src/runtime/ckpt.rs clippy::let_underscore_must_use \
    'pub fn lint_canary_io(dir: &std::path::Path) { let _ = std::fs::create_dir_all(dir); }'
plant unchecked-ckpt-io crates/core/src/runtime/dist.rs clippy::unused_result_ok \
    'pub fn lint_canary_io(dir: &std::path::Path) { std::fs::create_dir_all(dir).ok(); }'
plant item-after-test-module crates/core/src/chunk.rs clippy::items_after_test_module \
    'pub fn lint_canary_late() {}' end
plant stale-expect crates/core/src/pipeline.rs unfulfilled_lint_expectations \
    '#[expect(clippy::unwrap_used, reason = "lint canary")] pub fn lint_canary_stale() {}'
plant expect-without-reason crates/core/src/strategy.rs clippy::allow_attributes_without_reason \
    '#[expect(dead_code)] fn lint_canary_bare() {}'
lint_package fpdt-core

plant unchecked-ckpt-io src/bin/fpdt-ckpt.rs clippy::let_underscore_must_use \
    'pub fn lint_canary_io(dir: &std::path::Path) { let _ = std::fs::create_dir_all(dir); }'
lint_package fpdt-repro --bin fpdt-ckpt

for rule in "${rules[@]}"; do
    echo "LINT_CANARY_OK $rule:${seen[$rule]%;}"
done
