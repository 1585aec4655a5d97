"""Benchmark for qentropy: end-to-end and per-layer numbers per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Each
workload runs in fresh interpreters (perfbench/worker.py), single process,
single thread, closed loop: the next op starts when the previous op and its
correctness check have ended.  Op inputs are generated from ``--seed``.

Workloads, and why each exists:

  report-weierstrass  run_full_report + to_json on weierstrass_family(); the
                      Weierstrass series W dominates (about 2/3 of the time).
  entropy-sweep       for one seeded raw histogram of each n in {1e2, 1e4,
                      1e5} (10% exact zeros): make_distribution, then
                      generalized_entropy and trace_expectation over a fixed
                      q grid; per-element kernel cost dominates and W does not.
  report-smooth       the same report on tsallis_family(), power_family(0.5)
                      and the failing negated family in rotation; no W calls,
                      and the negated family drives the witness-building path
                      of failing checks.
  cli-process         one `python -m qentropy.cli` process per op: eval,
                      info-content, axioms, weierstrass --range=-2:2:0.001; the
                      only workload that pays interpreter start-up and import.

BENCHMARK.json lists the first two.  On a small shared host the machine
switches between a fast and a slow state about 1.5x apart, in phases of
seconds to minutes, so a run has to be long to be steady, and the run
budget does not stretch to four long workloads; the other two stay
runnable by name.

With ``--trace 0`` the timed loop is split over TIMED_WORKERS fresh
interpreters run one after another, each with its share of ``--seconds`` and
its own inputs, and the last stdout line carries the end-to-end metrics of
their pooled ops: ops_per_s, op_tail_s (the highest percentile with ten
samples beyond it), setup_s (the median over those interpreters of the
time from process start to the end of the warm-up op) and peak_rss_mb.
The median op time is printed but is not a result metric: op times split
between the host's two states, and their median jumps from one to the
other with the share of time a run spends in each.  With
``--trace 1`` the worker runs a fixed op list untraced and then traced
(perfbench/tracing.py), and the last line carries the per-layer metrics:
calls and self time per op for each wrapped layer, measured from outside
the library.  Every traced run also traces a cli-process op list, which
gives the cli.* command times and the spec parser's self time.  Call
counts depend only on the seed.

Exit status is nonzero, without a result line, when the library sources or
a worker are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

if not (SRC / "qentropy" / "__init__.py").is_file():
    sys.exit(f"qentropy sources not found under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from qentropy.axioms import CHECK_NAMES  # noqa: E402
from worker import CliWorkload  # noqa: E402

WORKLOADS = ("report-weierstrass", "report-smooth", "entropy-sweep", "cli-process")
TIMED_WORKERS = 5
CONTROL_RUNS = 3
RUN_TIMEOUT_S = 170.0
CLI_COMMANDS = CliWorkload.COMMANDS

END_TO_END = {
    "ops_per_s": "1/s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CALL_LAYERS = (
    "weierstrass.eval_W", "weierstrass.eval_phi_counterexample",
    "deformation.phi", "deformation.alpha", "deformation.family_id",
    "entropy.generalized_entropy", "entropy.suyari_entropy", "entropy.information_content",
    "entropy.pseudoadditive_compose", "entropy.trace_expectation", "entropy.shannon_entropy",
    "simplex.Distribution", "simplex.make_distribution", "simplex.sample_simplex",
    "simplex.sample_refinement",
)


def per_layer_units() -> dict:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units["weierstrass.eval_W.calls_per_phi"] = "ratio"
    units["deformation.phi.calls_per_distinct_q"] = "ratio"
    units["deformation.family_from_spec.self_s"] = "s/op"
    units["entropy.ns_per_element"] = "ns"
    units["entropy.elements_per_s"] = "1/s"
    for name in CHECK_NAMES:
        units[f"axioms.check.{name}.s"] = "s/op"
        units[f"axioms.check.{name}.self_s"] = "s/op"
    units["axioms.report.to_json_s"] = "s/op"
    units["axioms.report.bytes"] = "bytes"
    units["cli.interpreter_floor_s"] = "s"
    units["cli.import_s"] = "s"
    units["cli.import_numpy_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    units["failed_ops_ratio"] = "ratio"
    units["oracle.crossover_defects"] = "count"
    units["oracle.crossover_max_rel_err"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float,
          part: int = 0):
    """Run one worker; returns (seconds from spawn to READY, parsed result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), repr(seconds), mode, str(part)],
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker ({mode}) ran past the time limit")
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _timed(cmd: list[str], deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0, proc


def controls(deadline: float) -> dict:
    """Host-drift controls: bare interpreter start-up and import cost."""
    floor, imp, imp_np = [], [], []
    for _ in range(CONTROL_RUNS):
        dt, _ = _timed([sys.executable, "-c", "pass"], deadline)
        floor.append(dt)
        _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import qentropy"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import qentropy failed: {proc.stderr.strip()[-300:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        imp.append(cumulative["qentropy"])
        imp_np.append(cumulative["numpy"])
    return {
        "cli.interpreter_floor_s": statistics.median(floor),
        "cli.import_s": statistics.median(imp),
        "cli.import_numpy_s": statistics.median(imp_np),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    times = res["times"]
    if not times:
        raise BenchError("no op succeeded")
    pct, tail_s = tail(times)
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"op median {statistics.median(times):.6g} s (not a result metric: op times "
        "split between the host's fast and slow states, and the median jumps "
        "between them)",
        f"op_tail_s is p{pct:.1f} of {len(times)} op samples "
        f"({min(10, len(times) - 1)} beyond it)",
        f"setup_s is the median of {len(setups)} fresh-interpreter set-ups",
        f"peak_rss_mb is the largest of {len(setups)} workers",
    ]
    return values, notes


def per_layer(res: dict, ctl: dict, cli_res: dict) -> dict:
    """Per-op layer metrics of a traced run; the cli.* times and the spec
    parser's self time come from a traced cli-process op list."""
    lay = res["layers"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = lay["calls"].get(layer, 0.0)
        values[f"{layer}.self_s"] = lay["self_s"].get(layer, 0.0)
    values["weierstrass.eval_W.calls_per_phi"] = lay["eval_W_calls_per_phi"]
    values["deformation.phi.calls_per_distinct_q"] = lay["phi_calls_per_distinct_q"]
    values["deformation.family_from_spec.self_s"] = cli_res["layers"]["self_s"].get(
        "deformation.family_from_spec", 0.0)
    values["entropy.ns_per_element"] = lay["ns_per_element"]
    untraced_mean = sum(res["times"]) / len(res["times"])
    values["entropy.elements_per_s"] = lay["kernel_elements"] / untraced_mean
    for name in CHECK_NAMES:
        key = f"axioms.check.{name}"
        values[f"{key}.s"] = lay["s"].get(key, 0.0)
        values[f"{key}.self_s"] = lay["self_s"].get(key, 0.0)
    values["axioms.report.to_json_s"] = lay["s"].get("axioms.report.to_json", 0.0)
    values["axioms.report.bytes"] = res["info"].get("report_bytes", 0.0)
    values.update(ctl)
    values.update(cli_command_times(cli_res))
    values["trace_overhead_ratio"] = (statistics.median(res["traced_times"])
                                      / statistics.median(res["times"]))
    values["failed_ops_ratio"] = res["failed"] / res["attempted"]
    values["oracle.crossover_defects"] = res["info"].get("crossover_defects", 0)
    values["oracle.crossover_max_rel_err"] = res["info"].get("crossover_max_rel_err", 0.0)
    return values


def cli_command_times(res: dict) -> dict:
    """Median wall time per CLI command over an untraced cli-process op list."""
    per_cmd = {cmd: [] for cmd in CLI_COMMANDS}
    for i, t in zip(res["index"], res["times"]):
        per_cmd[CLI_COMMANDS[i % len(CLI_COMMANDS)]].append(t)
    return {f"cli.{cmd}.s": statistics.median(ts) if ts else 0.0 for cmd, ts in per_cmd.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        ctl = controls(deadline)
        import numpy
        print(f"env: python={platform.python_version()} numpy={numpy.__version__} "
              f"nproc={os.cpu_count()} machine={platform.machine()}")
        print("controls: " + " ".join(f"{k}={v:.4f}" for k, v in ctl.items()))
        if args.trace == 0:
            setups, parts = [], []
            for part in range(TIMED_WORKERS):
                setup_s, part_res = spawn(args.workload, args.seed, args.seconds / TIMED_WORKERS,
                                          "timed", deadline, part)
                setups.append(setup_s)
                parts.append(part_res)
            res = {
                "attempted": sum(r["attempted"] for r in parts),
                "failed": sum(r["failed"] for r in parts),
                "failures": [f for r in parts for f in r["failures"]],
                "times": [t for r in parts for t in r["times"]],
                "peak_rss_kb": max(r["peak_rss_kb"] for r in parts),
                "info": {f"{key}[{k}]": value for k, r in enumerate(parts)
                         for key, value in r["info"].items()},
            }
            metrics, notes = end_to_end(res, setups)
            units = END_TO_END
        else:
            _, res = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            if args.workload == "cli-process":
                cli_res = res
            else:
                _, cli_res = spawn("cli-process", args.seed, args.seconds, "trace", deadline)
                res["attempted"] += cli_res["attempted"]
                res["failed"] += cli_res["failed"]
                res["failures"] += cli_res["failures"]
            metrics = per_layer(res, ctl, cli_res)
            notes = [f"per-layer values are per op over {len(res['traced_times'])} traced ops; "
                     f"spans in .perfbench_out/spans-{args.workload}.csv"]
            units = PER_LAYER
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(f"note: {line}")
    for key, value in sorted(res["info"].items()):
        print(f"info: {key}={value}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {res['attempted']} ops attempted, "
          f"{res['failed']} failed")
    for key, unit in units.items():
        print(f"  {key:<48} {metrics[key]:>16.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
