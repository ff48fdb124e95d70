#!/usr/bin/env bash
# The "plain count": the non-test lines of every file under crates/*/src,
# per file, then the total. A file's non-test lines are those before its
# first `#[cfg(test)]` at column 0; clippy's `items_after_test_module`
# keeps every test module at the end of its file, so that is all of its
# program text. The match is anchored: an unanchored `#[cfg(test)]` also
# hits doc comments and indented attributes. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

for f in $(find crates/*/src -name '*.rs' | sort); do
    echo "$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f") $f"
done | awk '{print; s += $1} END {print s, "total"}'
