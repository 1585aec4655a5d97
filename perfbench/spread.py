"""Run-to-run spread of the benchmark, and repeatability of traced counts.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--sets 2]
    python3 perfbench/spread.py --trace [--workloads a,b] [--seeds 1-2]

Untraced: runs every workload once per seed, interleaving the workloads so
host drift spreads over all of them, ``--sets`` times over.  For each
end-to-end metric it prints the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), against the
metric's bound in BENCHMARK.json, and the drift of each later set's median
from the first.  Exit status 1 when a spread exceeds its bound or a
median drifts by more than its bound.

Traced: runs each (workload, seed) twice and requires every count and
count ratio to be identical across the two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics that are counts or ratios of counts; they must repeat
# exactly for a seed.
COUNT_UNITS = ("calls/op", "count", "bytes")
COUNT_RATIOS = ("weierstrass.eval_W.calls_per_phi", "deformation.phi.calls_per_distinct_q",
                "failed_ops_ratio", "oracle.crossover_max_rel_err")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result


def untraced(spec: dict, workloads: list[str], seeds: list[int], sets: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [{w: {m: [] for m in bounds} for w in workloads} for _ in range(sets)]
    for k in range(sets):
        for seed in seeds:
            for w in workloads:
                metrics = run_once(w, seed, spec["run_seconds"], 0)["metrics"]
                for m in bounds:
                    runs[k][w][m].append(metrics[m]["value"])
                print(f"set {k + 1} seed {seed} {w}: " + " ".join(
                    f"{m}={metrics[m]['value']:.4g}" for m in bounds), flush=True)
    ok = True
    for w in workloads:
        print(f"\n{w}")
        for m, bound in bounds.items():
            first = statistics.median(runs[0][w][m])
            row, flag = [], ""
            for k in range(sets):
                vals = runs[k][w][m]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                drift = statistics.median(vals) / first - 1.0
                if spread > bound / 3:
                    flag = "  (spread above a third of the bound)"
                if spread > bound:
                    ok = False
                    flag = "  SPREAD OUT OF BOUND"
                better = next(x["better"] for x in spec["end_to_end"] if x["name"] == m)
                worse = -drift if better == "higher" else drift
                if worse > bound:
                    ok = False
                    flag = "  DRIFT OUT OF BOUND"
                row.append(f"median={statistics.median(vals):.5g} iqr/med={spread:.3f}"
                           + (f" drift={drift:+.3f}" if k else ""))
            print(f"  {m:<14} bound={bound:<5} " + " | ".join(row) + flag)
    return ok


def traced(spec: dict, workloads: list[str], seeds: list[int]) -> bool:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counted = [m for m, u in units.items() if u in COUNT_UNITS or m in COUNT_RATIOS]
    ok = True
    for seed in seeds:
        for w in workloads:
            a, b = (run_once(w, seed, spec["run_seconds"], 1)["metrics"] for _ in range(2))
            diff = [m for m in counted if a[m]["value"] != b[m]["value"]]
            ok = ok and not diff
            print(f"{w} seed {seed}: {len(counted)} counts, "
                  + ("identical" if not diff else f"differ: {diff}"), flush=True)
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.trace:
        ok = traced(spec, workloads, args.seeds)
    else:
        ok = untraced(spec, workloads, args.seeds, args.sets)
    print("\nwithin bounds" if ok else "\nOUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
