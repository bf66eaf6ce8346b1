#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json N times (default 3) with one seed,
# plus one traced run. Run it from the repository root:
#
#   bash benchmark/stability.sh [N] [seed]
#
# For every end-to-end metric it prints the median, the quartiles and the
# range of the N untraced runs against the metric's bound; for the traced
# run, the tracing overhead, the span coverage and each layer's self time.
# It fails when a run reports a correctness failure, or when runs disagree
# on a pass's output digest or solver counters: with one seed every case is
# deterministic, so only times may differ, traced or not.
set -euo pipefail

n=${1:-3}
seed=${2:-1}
logs=.bench_build/stability
mkdir -p "$logs"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
	for i in $(seq 1 "$n"); do
		echo "$w: run $i of $n" >&2
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$logs/$w.$i.out" || true
	done
	echo "$w: traced run" >&2
	bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >"$logs/$w.trace.out" || true
done

python3 - "$logs" "$n" <<'EOF'
import json, statistics, sys

logs, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = []


def load(path):
    lines = open(path).read().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        bad.append(f"{path}: no result line")
        return None, {}
    if not res["correct"]:
        bad.append(f"{path}: {res['failed']} of {res['attempted']} cases failed a check")
    # "pass <r> output_digest=... conflicts=... wall_s=<t>": all but the time.
    passes = {l.split()[1]: l.rsplit(" wall_s=", 1)[0] for l in lines if l.startswith("pass ")}
    return res, passes


for w in spec["workloads"]:
    name = w["name"]
    runs = [load(f"{logs}/{name}.{i}.out") for i in range(1, n + 1)]
    traced, tpasses = load(f"{logs}/{name}.trace.out")
    for r, passes in runs[1:] + [(traced, tpasses)]:
        for p, line in passes.items():
            if p in runs[0][1] and line != runs[0][1][p]:
                bad.append(f"{name}: pass {p} differs between runs:\n  {runs[0][1][p]}\n  {line}")
    results = [r for r, _ in runs if r]
    print(f"\n{name}: {len(results)} untraced runs, seed-deterministic cases")
    print(f"  {'metric':20s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'max-min':>10s} {'iqr/med':>8s} {'bound':>6s}")
    med = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        if not vals:
            continue
        med[m["name"]] = statistics.median(vals)
        q1, q3 = statistics.quantiles(vals, n=4)[0::2] if len(vals) > 1 else (vals[0], vals[0])
        spread = (q3 - q1) / med[m["name"]]
        flag = "" if spread <= m["bound"] else "  wider than bound"
        print(f"  {m['name']:20s} {med[m['name']]:10.4f} {q1:10.4f} {q3:10.4f} {max(vals) - min(vals):10.4f} "
              f"{spread:8.3f} {m['bound']:6.2f} {m['unit']}{flag}")
    if traced:
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = t["trace.wall_s"]
        if "wall_s" in med:
            print(f"  tracing overhead: traced pass {wall:.2f} s vs untraced median {med['wall_s']:.2f} s "
                  f"({wall / med['wall_s'] - 1:+.1%})")
        print(f"  span coverage of the traced pass: {t['trace.span_coverage']:.1%}")
        # Module self times ("cec.self_s"), which partition the covered time.
        selfs = sorted(((v, k) for k, v in t.items() if k.endswith(".self_s") and k.count(".") == 1), reverse=True)
        for v, k in selfs:
            print(f"    {k:28s} {v:9.3f} s  {v / wall:6.1%}")

for b in bad:
    print("FAIL", b)
sys.exit(1 if bad else 0)
EOF
