#!/usr/bin/env bash
# Repeatability check: two sets of full runs of the same build, judged
# the way the benchmark's own bounds judge a change.
#
#   benchmark/repeat.sh [RUNS_PER_SET=10] [> benchmark/REPEATABILITY.md]
#
# Every run of a set uses another seed (set A: 1..N, set B: N+1..2N), so
# a metric that is steady here is steady across draws of the inputs, not
# on one draw. For each workload x end-to-end metric the script prints
# both set medians, each set's spread (distance between the quartiles of
# its runs, as a share of their median), the gap by which set B's median
# is worse than set A's, and the bound. It exits non-zero when a spread
# (setup_s excepted) or a gap is over the bound.
#
# Run from the repository root. Takes about 2 x N x 75 s.
set -euo pipefail

runs=${1:-10}
if [ "$runs" -lt 5 ]; then
    echo "repeat.sh: a set needs at least 5 runs" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/irred-benchmark"
"$bin" manifest | cmp -s - BENCHMARK.json || {
    echo "repeat.sh: BENCHMARK.json differs from \`irred-benchmark manifest\`" >&2
    exit 2
}

# Result objects are kept (git-ignored) so a table can be rebuilt.
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for set in A B; do
    for run in $(seq 1 "$runs"); do
        seed=$run
        [ "$set" = B ] && seed=$((runs + run))
        for w in $workloads; do
            echo "set $set run $run/$runs seed $seed: $w" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$out/$set.$seed.$w.json"
        done
    done
done

echo "Host: $("$bin" fingerprint)"
python3 - "$out" "$runs" <<'EOF'
import glob, json, os, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
manifest = json.load(open("BENCHMARK.json"))
values = {}  # (set, workload, metric) -> [(seed, value)]
for path in glob.glob(os.path.join(out, "*.json")):
    set_, seed, workload = os.path.basename(path)[:-5].split(".", 2)
    result = json.load(open(path))
    assert result["correct"] and result["failed"] == 0, path
    for metric, v in result["metrics"].items():
        values.setdefault((set_, workload, metric), []).append((int(seed), v["value"]))

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

bad = 0
print(f"\nTwo sets of {runs} runs, {manifest['run_seconds']} s windows, seeds 1..{runs} and {runs + 1}..{2 * runs}.")
print("Spread = (Q3 - Q1) / median over a set's runs; gap = how much worse set B's median is than set A's.\n")
print("| workload | metric | unit | median A | median B | spread A | spread B | gap | bound | |")
print("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
for w in manifest["workloads"]:
    for m in manifest["end_to_end"]:
        a = [v for _, v in values[("A", w["name"], m["name"])]]
        b = [v for _, v in values[("B", w["name"], m["name"])]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        over = gap > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad += over
        print(f"| {w['name']} | {m['name']} | {m['unit']} | {ma:.4f} | {mb:.4f} | {sa:.2%} | {sb:.2%} "
              f"| {gap:+.2%} | {m['bound']:.0%} | {'OVER' if over else 'ok'} |")

print("\nSecond-seed check: the seed-2 run against the median of the other set-A runs.\n")
print("| workload | metric | seed 2 | median of the rest | worse by | bound | |")
print("|---|---|---:|---:|---:|---:|---|")
for w in manifest["workloads"]:
    for m in manifest["end_to_end"]:
        rows = values[("A", w["name"], m["name"])]
        two = next(v for s, v in rows if s == 2)
        rest = statistics.median([v for s, v in rows if s != 2])
        worse = (two - rest) / rest if m["better"] == "lower" else (rest - two) / rest
        over = worse > m["bound"]
        bad += over
        print(f"| {w['name']} | {m['name']} | {two:.4f} | {rest:.4f} | {worse:+.2%} | {m['bound']:.0%} "
              f"| {'OVER' if over else 'ok'} |")

print(f"\n{'FAIL' if bad else 'PASS'}: {bad} rows over their bound.")
sys.exit(1 if bad else 0)
EOF
