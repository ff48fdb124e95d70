#!/usr/bin/env bash
# Paired benchmark runs of two commits: scripts/pair.sh PARENT CHANGE WORKLOAD N [SECONDS] [SEED]
#
# Builds the repo benchmark of each commit from one fixed source path,
# target/pair/src, in turn, each into its own target directory: the source
# path enters the binary, so two checkouts in two directories build two
# different programs even from one tree. The parent is built twice, from a
# fresh extraction into a fresh target directory, and the script refuses
# to report unless both builds are byte-identical: a pair whose null is
# not the same program measures the build, not the change.
#
# Binaries are kept by commit under target/pair/bin (the target
# directories are removed), so a second call with the same commits runs
# at once.
#
# It then runs the two binaries alternately N times (parent first in odd
# pairs, change first in even ones), each `--workload WORKLOAD --seed SEED
# --seconds SECONDS --trace 0` (defaults 20 s and seed 7), and prints per
# end-to-end metric of BENCHMARK.json the parent's and the change's median
# and interquartile range, the median ratio, how many of the N pairs the
# change won (in the metric's `better` direction), and the pairs. Each
# run's JSON record is kept under target/pair/runs/.
#
# PARENT and CHANGE are anything `git archive` takes (commits, branches,
# tags): commit the change first. Run from anywhere inside the repo.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

if [ $# -lt 4 ]; then
    echo "usage: scripts/pair.sh PARENT CHANGE WORKLOAD N [SECONDS] [SEED]" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
workload=$3 n=$4 seconds=${5:-20} seed=${6:-7}

root=$PWD/target/pair
src=$root/src
mkdir -p "$root/bin"
rm -rf "$root/runs"
mkdir -p "$root/runs"

# build REV [again]: the benchmark of REV, built from the fixed source
# path into a target directory of its own (`target/pair/REV`, or
# `REV-again` for the second build), unless built before; prints the
# binary's path.
build() {
    local rev=$1 name=$1${2:+-again}
    local bin=$root/bin/$name
    if [ ! -x "$bin" ]; then
        rm -rf "$src" "$root/$name"
        mkdir -p "$src"
        git archive "$rev" | tar -x -C "$src"
        echo "==> building $name" >&2
        CARGO_TARGET_DIR=$root/$name cargo build --release --offline --quiet \
            --manifest-path "$src/benchmark/Cargo.toml"
        cp "$root/$name/release/fpdt-benchmark" "$bin"
        rm -rf "$root/$name"
    fi
    echo "$bin"
}

parent_bin=$(build "$parent")
again_bin=$(build "$parent" again)
if ! cmp -s "$parent_bin" "$again_bin"; then
    sha256sum "$parent_bin" "$again_bin" >&2
    echo "FAIL: the parent built twice gave two binaries; refusing to report" >&2
    exit 1
fi
echo "==> A/A: the parent built twice is byte-identical" >&2
change_bin=$(build "$change")
# the runs write their records under the source path's benchmark/out
mkdir -p "$src/benchmark"

# run SIDE BIN I: one benchmark run, its JSON record kept as
# target/pair/runs/SIDE.I.json.
run() {
    local side=$1 bin=$2 i=$3
    local out=$root/runs/$side.$i.json
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1 >"$out"
    jq -e '.correct' "$out" >/dev/null || {
        echo "FAIL: $side run $i did not pass its output check" >&2
        exit 1
    }
}

for i in $(seq 1 "$n"); do
    echo "==> pair $i of $n" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent_bin" "$i"
        run change "$change_bin" "$i"
    else
        run change "$change_bin" "$i"
        run parent "$parent_bin" "$i"
    fi
done

echo "$workload: $n pairs, parent $parent, change $change, seed $seed, ${seconds}s per run"
echo
echo "| metric | parent median | parent IQR | change median | change IQR | change / parent | change better | pairs (parent -> change) |"
echo "|---|---|---|---|---|---|---|---|"
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
    for i in $(seq 1 "$n"); do
        p=$(jq -r ".metrics.$metric.value" "$root/runs/parent.$i.json")
        c=$(jq -r ".metrics.$metric.value" "$root/runs/change.$i.json")
        echo "$p $c"
    done | awk -v metric="$metric" -v better="$better" '
        # quantile q of the sorted array a[1..n], linear between ranks
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                    t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                }
        }
        {
            n++
            p[n] = $1; c[n] = $2
            won += better == "higher" ? ($2 > $1) : ($2 < $1)
            pairs = pairs (n > 1 ? ", " : "") sprintf("%.6g -> %.6g", $1, $2)
        }
        END {
            sorted(p, ps, n); sorted(c, cs, n)
            pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
            printf "| %s | %.6g | %.4g | %.6g | %.4g | %.4f | %d of %d | %s |\n", metric,
                pm, quantile(ps, n, 0.75) - quantile(ps, n, 0.25),
                cm, quantile(cs, n, 0.75) - quantile(cs, n, 0.25),
                pm == 0 ? 0 : cm / pm, won, n, pairs
        }'
done
