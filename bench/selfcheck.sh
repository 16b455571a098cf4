#!/usr/bin/env bash
# selfcheck.sh — do two sets of runs of the SAME code agree within the
# benchmark's own bounds?
#
# Runs the four workloads as two interleaved sets (A B A B A B: machine
# drift lands on both sets alike) on one binary, then prints, per (workload,
# end-to-end metric), the two set medians, their relative gap, the metric's
# bound from BENCHMARK.json and PASS/FAIL, and writes bench/out/selfcheck.json.
# A benchmark that fails this cannot hold a later change to its bounds.
#
#   bench/selfcheck.sh            # 3 runs per set: 24 runs, about 9 minutes
#   RUNS=5 bench/selfcheck.sh     # 5 runs per set
#   SEED=7 bench/selfcheck.sh     # another seed (default 1)
set -euo pipefail

cd "$(dirname "$0")/.."
runs="${RUNS:-3}"
seed="${SEED:-1}"
out=bench/out
mkdir -p "$out"
raw="$out/selfcheck.raw"
: > "$raw"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for i in $(seq 1 "$runs"); do
  for set in A B; do
    for w in $workloads; do
      echo "selfcheck: set $set run $i/$runs: $w" >&2
      line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
      printf '%s\t%s\t%s\n' "$set" "$w" "$line" >> "$raw"
    done
  done
done

python3 - "$raw" "$out/selfcheck.json" <<'EOF'
import json, statistics, sys

raw, dest = sys.argv[1], sys.argv[2]
contract = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in contract["end_to_end"]}
values = {}
for line in open(raw):
    which, workload, result = line.rstrip("\n").split("\t")
    result = json.loads(result)
    if not result["correct"] or result["failed"]:
        sys.exit(f"selfcheck: {workload} (set {which}) reported failures: {result}")
    for name, m in result["metrics"].items():
        values.setdefault((workload, name), {}).setdefault(which, []).append(m["value"])

rows, failed = [], 0
print(f'{"workload":18} {"metric":16} {"median A":>12} {"median B":>12} {"gap":>8} {"bound":>7}')
for (workload, name), sets in sorted(values.items()):
    a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
    gap = abs(a - b) / min(abs(a), abs(b)) if min(abs(a), abs(b)) > 0 else float(a != b)
    ok = gap <= bounds[name]["bound"]
    failed += not ok
    rows.append({"workload": workload, "metric": name, "median_a": a, "median_b": b, "gap": gap,
                 "bound": bounds[name]["bound"], "pass": ok, "a": sets["A"], "b": sets["B"]})
    print(f'{workload:18} {name:16} {a:12.5g} {b:12.5g} {gap:8.4f} {bounds[name]["bound"]:7.3f}  {"PASS" if ok else "FAIL"}')
json.dump({"runs_per_set": len(next(iter(values.values()))["A"]), "rows": rows}, open(dest, "w"), indent=1)
print(f"selfcheck: {len(rows) - failed}/{len(rows)} pairs within bound; wrote {dest}")
sys.exit(1 if failed else 0)
EOF
