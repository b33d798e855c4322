#!/usr/bin/env bash
# Alternating A/B runs of the tick benchmark: a base revision against the
# working tree, one pair of `tickbench/run.py --trace 0` runs per seed.
#
#   scripts/bench_pairs.sh [--trace] <base-rev> <workload> <seconds> <seed>...
#
# The base revision is exported with `git archive` (no worktree) and each
# side is built into its own CARGO_TARGET_DIR, so neither build sees the
# other's objects.  Within a pair the order alternates by seed (base first on
# the 1st, 3rd, ... seed), so a drift in host load does not always favour the
# same side.  Prints each pair's ticks_per_s ratio (tree / base), then each
# side's median and interquartile range for every end-to-end metric.
#
# Exits non-zero when a run fails or is not `correct`, or when it_power_w,
# migrations_per_tick or max_temp_c differ between the two sides of any pair:
# a speed change must not move what is simulated.
#
# With a leading --trace the pairs are `--trace 1` runs instead, and the
# report is each side's median and interquartile range for every per-layer
# metric of BENCHMARK.json (the simulated metrics are not part of a traced
# run's output, so there is nothing to compare exactly); any run that is not
# `correct` still fails the script.
#
# Scratch space (the export, both builds, the raw JSON lines per workload,
# the build and run logs) goes to
# $BENCH_PAIRS_DIR, or to a fresh temporary directory that is kept so the
# builds can be reused; it is printed at the start.
set -euo pipefail

TRACE=0
if [ "${1:-}" = "--trace" ]; then
  TRACE=1
  shift
fi
if [ "$#" -lt 4 ]; then
  echo "usage: $0 [--trace] <base-rev> <workload> <seconds> <seed>..." >&2
  exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
SECONDS_PER_RUN="$3"
shift 3

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${BENCH_PAIRS_DIR:-$(mktemp -d -t bench_pairs.XXXXXX)}"
mkdir -p "$WORK"
echo "bench_pairs: scratch in $WORK" >&2

BASE_SRC="$WORK/base-src"
rm -rf "$BASE_SRC"
mkdir -p "$BASE_SRC"
git -C "$ROOT" archive "$BASE_REV" | tar -x -C "$BASE_SRC"

RESULTS="$WORK/results-$WORKLOAD-trace$TRACE.jsonl"
: > "$RESULTS"

run_side() {  # <side> <src-root> <seed>
  local side="$1" src="$2" seed="$3" line
  if ! line="$(cd "$src" && CARGO_TARGET_DIR="$WORK/build-$side" \
      python3 tickbench/run.py --workload "$WORKLOAD" --seed "$seed" \
      --seconds "$SECONDS_PER_RUN" --trace "$TRACE" \
      2>"$WORK/$side-$WORKLOAD-$seed-trace$TRACE.log" |
      tail -n 1)"; then
    echo "bench_pairs: $side run failed for seed $seed" \
      "(see $WORK/$side-$WORKLOAD-$seed-trace$TRACE.log)" >&2
    return 1
  fi
  printf '{"side": "%s", "seed": %s, "run": %s}\n' "$side" "$seed" "$line" \
    >> "$RESULTS"
}

n=0
for seed in "$@"; do
  if [ $((n % 2)) -eq 0 ]; then
    run_side base "$BASE_SRC" "$seed"
    run_side tree "$ROOT" "$seed"
  else
    run_side tree "$ROOT" "$seed"
    run_side base "$BASE_SRC" "$seed"
  fi
  n=$((n + 1))
done

python3 - "$RESULTS" "$ROOT/BENCHMARK.json" "$TRACE" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
traced = sys.argv[3] == "1"
metrics = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
exact = ["it_power_w", "migrations_per_tick", "max_temp_c"]

pairs = {}
for r in runs:
    pairs.setdefault(r["seed"], {})[r["side"]] = r["run"]

def value(run, name):
    return run["metrics"][name]["value"]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

status = 0
for seed, p in pairs.items():
    for side in ("base", "tree"):
        run = p[side]
        if not run["correct"] or run["failed"]:
            print("seed %s: %s run not correct (failed %s)"
                  % (seed, side, run["failed"]))
            status = 1

if not traced:
    print("seed   base ticks/s   tree ticks/s   ratio")
    for seed, p in pairs.items():
        b, t = p["base"], p["tree"]
        bt, tt = value(b, "ticks_per_s"), value(t, "ticks_per_s")
        print("%-6s %-14.1f %-14.1f %.3f" % (seed, bt, tt, tt / bt))
        for name in exact:
            if repr(value(b, name)) != repr(value(t, name)):
                print("seed %s: %s differs: base %r, tree %r"
                      % (seed, name, value(b, name), value(t, name)))
                status = 1
    ratios = [value(p["tree"], "ticks_per_s") / value(p["base"], "ticks_per_s")
              for p in pairs.values()]
    better = sum(r > 1.0 for r in ratios)
    print("ticks_per_s: tree faster in %d of %d pairs, median ratio %.3f"
          % (better, len(ratios), statistics.median(ratios)))
    print()

print("%-32s %-30s %-30s" % ("metric", "base median (IQR)", "tree median (IQR)"))
for name in metrics:
    cols = []
    for side in ("base", "tree"):
        lo, med, hi = quartiles([value(p[side], name) for p in pairs.values()])
        cols.append("%.6g (%.3g)" % (med, hi - lo))
    print("%-32s %-30s %-30s" % (name, cols[0], cols[1]))
sys.exit(status)
EOF
