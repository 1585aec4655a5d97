"""One benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [PART]

MODE is ``timed`` (closed loop until SECONDS of op time have run and the op
rotation is complete) or ``trace`` (a fixed op list untraced, then the same
list again with the tracer installed).  A timed run is split over several workers; PART numbers
them and moves each to its own range of op indices, so they see distinct
inputs.  The worker prints ``READY`` once set-up is done; its last stdout
line is a JSON result.  Set-up covers ``import qentropy``, input generation
and one warm-up op.

Every op is checked after its timing ends; a failed check, an exception or
an unexpected exit code counts the op as failed and the loop goes on.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from qentropy.axioms import CHECK_NAMES

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

def _verdicts(**exceptions: str) -> dict:
    table = dict.fromkeys(CHECK_NAMES, "pass")
    table.update(exceptions)
    return table


# Per-check verdicts of each report family; stable across seeds.
NEGATED_FAILS = ("maximality", "shannon_limit", "sign_condition", "phi_derivative_at_1",
                 "alpha_phi_limit", "constraint_region", "convexity_of_I")
VERDICTS = {
    "weierstrass": _verdicts(derivative_limit_probe="not_applicable"),
    "tsallis": _verdicts(),
    "power(0.5)": _verdicts(phi_derivative_at_1="not_applicable"),
    "negated": _verdicts(**dict.fromkeys(NEGATED_FAILS, "fail")),
}


def _families(Q) -> dict:
    return {
        "weierstrass": Q.weierstrass_family(),
        "tsallis": Q.tsallis_family(),
        "power(0.5)": Q.power_family(0.5),
        "negated": Q.EntropyFamily(Q.negated_phi(), Q.one_minus_q_alpha(), 1.0,
                                   validated=False),
    }


def _op_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


class Workload:
    rotation = 1
    trace_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the op's output is right, else what is wrong."""
        raise NotImplementedError

    def finish(self, ops: list) -> list[tuple[int, str]]:
        """Run-level checks outside the timed region: (op index, error)."""
        return []

    def after_traced_op(self, tracer, root: int) -> None:
        pass

    def info(self, ops: list) -> dict:
        return {}

    def close(self) -> None:
        pass


class ReportWorkload(Workload):
    """run_full_report(family, CheckConfig(seed=s)).to_json() per op."""

    def __init__(self, seed: int, names: tuple[str, ...], trace_ops: int) -> None:
        super().__init__(seed)
        self.names = names
        self.rotation = len(names)
        self.trace_ops = trace_ops

    def setup(self) -> None:
        import qentropy as Q

        self.Q = Q
        self.families = _families(Q)

    def make_input(self, i: int):
        return self.names[i % len(self.names)], _op_rng(self.seed, i).randrange(2**31)

    def run(self, inp):
        name, s = inp
        return self.Q.run_full_report(self.families[name], self.Q.CheckConfig(seed=s)).to_json()

    def check(self, inp, out):
        name, s = inp
        doc = json.loads(out)
        got = {c["name"]: c["verdict"] for c in doc["checks"]}
        if got != VERDICTS[name]:
            diff = {k: got.get(k) for k in set(got) | set(VERDICTS[name])
                    if got.get(k) != VERDICTS[name].get(k)}
            return f"{name} seed {s}: verdicts differ from the pinned table: {diff}"
        if doc["family"] != self.families[name].to_spec():
            return f"{name} seed {s}: report names another family"
        return None

    def finish(self, ops):
        # Criterion 9: the same (family, config) gives byte-identical JSON.
        done = [op for op in ops if op["err"] is None]
        if not done:
            return []
        op = random.Random(self.seed).choice(done)
        again = self.run(self.make_input(op["i"]))
        if again != op["out"]:
            return [(op["i"], "re-running the same seed gave different report bytes")]
        return []

    def info(self, ops):
        sizes = [len(op["out"].encode()) for op in ops if op["out"] is not None]
        return {"report_bytes": sum(sizes) / len(sizes) if sizes else 0.0}


class SweepWorkload(Workload):
    """For one seeded raw histogram of each size: make_distribution, then both
    entropy kernels over Q_GRID.

    The sizes share one op so that an op lasts about a second: on a shared
    host the machine's speed flips on shorter scales than that, and ops of
    a few milliseconds would each land wholly in one state, which makes
    their median jump between the two."""

    SIZES = (100, 10_000, 100_000)
    FAMILIES = ("tsallis", "power(0.5)", "weierstrass")
    REFERENCE = {"tsallis": ("tsallis", {}), "power(0.5)": ("power", {"gamma": 0.5}),
                 "weierstrass": ("weierstrass", {})}
    # q - 1 is exact in binary for every point, so the reference sees the
    # same q as the library.  1 -/+ 5e-10 lie inside the library's crossover
    # window; 1 + 1e-6 lies just outside it.
    Q_GRID = (0.25, 0.5, 0.9, 1 - 5e-10, 1.0, 1 + 5e-10, 1 + 1e-6, 1.25, 2.0, 3.0, 4.75)
    ZERO_SHARE = 0.1
    # Library identity tolerance between generalized_entropy and trace_expectation.
    IDENTITY_TOL = 1e-12
    rotation = 3
    trace_ops = 3

    def setup(self) -> None:
        import numpy as np
        import qentropy as Q

        self.np = np
        self.Q = Q
        fams = _families(Q)
        self.families = {name: fams[name] for name in self.FAMILIES}
        self.crossover_defects = 0
        self.crossover_max_rel_err = 0.0
        self.oracle_checks = 0

    def make_input(self, i: int):
        raws = []
        for n in self.SIZES:
            rng = self.np.random.default_rng([self.seed, i, n])
            raw = rng.standard_exponential(n)
            raw[rng.random(n) < self.ZERO_SHARE] = 0.0
            raw[rng.integers(n)] = 1.0  # never an all-zero histogram
            raws.append(raw.tolist())
        return self.FAMILIES[i % len(self.FAMILIES)], raws

    def run(self, inp):
        fam, raws = inp
        Q, f = self.Q, self.families[fam]
        out = []
        for raw in raws:
            d = Q.make_distribution(raw, "normalize")
            out.append([(Q.generalized_entropy(d, f, q).value,
                         Q.trace_expectation(d, f, q).value) for q in self.Q_GRID])
        return out

    def check(self, inp, out):
        for n, values in zip(self.SIZES, out):
            for q, (ge, te) in zip(self.Q_GRID, values):
                if not (math.isfinite(ge) and ge > 0.0):
                    return f"n={n} q={q!r}: entropy {ge!r} is not finite and positive"
                if abs(ge - te) > self.IDENTITY_TOL * abs(ge):
                    return f"n={n} q={q!r}: generalized {ge!r} and trace form {te!r} disagree"
        return None

    def oracle_points(self, i: int) -> list[tuple[int, int]]:
        """Deterministic subsample of (size index, q index) pairs checked
        against the oracle: every q of the n = 100 histogram of each op; in
        the first rotation, one seed-chosen q of each n = 10^4 histogram and
        of one seed-chosen n = 10^5 histogram."""
        points = [(0, qi) for qi in range(len(self.Q_GRID))]
        if i < self.rotation:
            qi = (self.seed + i) % len(self.Q_GRID)
            points.append((1, qi))
            if i == self.seed % self.rotation:
                points.append((2, qi))
        return points

    def finish(self, ops):
        from oracle import Q_WINDOW, REL_TOL, ReferenceDistribution, ReferenceFamily, rel_err

        refs = {name: ReferenceFamily(kind, **kw) for name, (kind, kw) in self.REFERENCE.items()}
        errors = []
        for op in ops:
            if op["out"] is None:
                continue
            fam, raws = self.make_input(op["i"])
            ref_f = refs[fam]
            ref_ds = {}
            for si, qi in self.oracle_points(op["i"]):
                if si not in ref_ds:
                    ref_ds[si] = ReferenceDistribution(raws[si])
                ref_d = ref_ds[si]
                q = self.Q_GRID[qi]
                ge, te = op["out"][si][qi]
                true = ref_d.entropy(ref_f, q)
                self.oracle_checks += 1
                targets = [true]
                if 0.0 < abs(q - 1.0) < Q_WINDOW:
                    # Strictly inside the crossover window the library documents
                    # the Shannon limit; that value and the true S_q are both
                    # accepted.  A value on the Shannon limit that misses S_q is
                    # the known crossover defect: counted here, not as a failure,
                    # so a library that returns S_q there passes and reads 0.
                    shannon = ref_d.shannon(ref_f.k)
                    targets.append(shannon)
                    err = rel_err(ge, true)
                    self.crossover_max_rel_err = max(self.crossover_max_rel_err, err)
                    if err > REL_TOL and rel_err(ge, shannon) <= REL_TOL:
                        self.crossover_defects += 1
                worst = max(min(rel_err(v, t) for t in targets) for v in (ge, te))
                if worst > REL_TOL:
                    errors.append((op["i"], f"{fam} n={self.SIZES[si]} q={q!r}: relative "
                                            f"error {worst:.3e} against the oracle > {REL_TOL:g}"))
        return errors

    def info(self, ops):
        elements = len(ops) * sum(self.SIZES) * len(self.Q_GRID) * 2
        return {
            "elements": elements,
            "oracle_checks": self.oracle_checks,
            "crossover_defects": self.crossover_defects,
            "crossover_max_rel_err": self.crossover_max_rel_err,
        }


class CliWorkload(Workload):
    """One ``python -m qentropy.cli`` process per op, in a fixed rotation."""

    COMMANDS = ("eval", "info-content", "axioms", "weierstrass")
    W_RANGE = (-2.0, 2.0, 0.001)
    FAMILY_SPEC = {"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"},
                   "k": 1.0}
    rotation = 4
    trace_ops = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.tracer = None
        self.tmp = TMP_DIR / f"cli-{os.getpid()}"

    def setup(self) -> None:
        import qentropy as Q

        self.Q = Q
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.family_path = self.tmp / "family.json"
        self.family_path.write_text(json.dumps(self.FAMILY_SPEC), encoding="utf-8")
        self.family = Q.family_from_spec(self.FAMILY_SPEC)
        self.csv_verified = None
        self.report_sizes = []
        self.spans_path = self.tmp / "spans.json"

    def make_input(self, i: int):
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        rng = _op_rng(self.seed, i)
        fam = str(self.family_path)
        if cmd == "eval":
            g = [rng.expovariate(1.0) for _ in range(3)]
            values = [v / sum(g) for v in g]
            q = rng.uniform(0.25, 4.0)
            argv = ["eval", "--family", fam, "--q", repr(q), "--dist", json.dumps(values),
                    "--digits", "17"]
            return cmd, argv, (q, values)
        if cmd == "info-content":
            q, p = rng.uniform(0.25, 4.0), rng.uniform(1e-3, 1.0)
            argv = ["info-content", "--family", fam, "--q", repr(q), "--p", repr(p),
                    "--digits", "17"]
            return cmd, argv, (q, p)
        if cmd == "axioms":
            s = rng.randrange(2**31)
            argv = ["axioms", "--family", fam, "--seed", str(s),
                    "--output", str(self.tmp / "report.json")]
            return cmd, argv, s
        lo, hi, step = self.W_RANGE
        argv = ["weierstrass", f"--range={lo!r}:{hi!r}:{step!r}",
                "--output", str(self.tmp / "w.csv")]
        return cmd, argv, None

    def run(self, inp):
        _, argv, _ = inp
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qentropy.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.spans_path), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.tmp, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def after_traced_op(self, tracer, root):
        tracer.adopt(root, json.loads(self.spans_path.read_text(encoding="utf-8")))

    def check(self, inp, out):
        cmd, argv, data = inp
        code, stdout, stderr = out
        Q = self.Q
        if code != 0:
            return f"{cmd}: exit code {code}, expected 0: {stderr.strip()[-200:]}"
        if cmd == "eval":
            q, values = data
            want = Q.generalized_entropy(Q.make_distribution(values, "strict"), self.family, q).value
            return None if float(stdout) == want else f"eval printed {stdout.strip()}, library {want!r}"
        if cmd == "info-content":
            q, p = data
            want = Q.information_content(self.family, q, p)
            return None if float(stdout) == want else f"info-content printed {stdout.strip()}, library {want!r}"
        if cmd == "axioms":
            report = (self.tmp / "report.json").read_text(encoding="utf-8")
            self.report_sizes.append(len(report.encode()))
            want = Q.run_full_report(self.family, Q.CheckConfig(seed=data)).to_json()
            if report != want:
                return f"axioms seed {data}: report file differs from the in-process report"
            lines = stdout.splitlines()
            if len(lines) != len(CHECK_NAMES) + 1 or any("PASS" not in ln for ln in lines[:-1]):
                return f"axioms seed {data}: unexpected summary output"
            return None
        text = (self.tmp / "w.csv").read_text(encoding="utf-8")
        if text != self.csv_verified:
            rows = text.splitlines()
            lo, hi, step = self.W_RANGE
            count = int(math.floor((hi - lo) / step + 0.5)) + 1
            if rows[0] != "x,W" or len(rows) != count + 1:
                return f"weierstrass: {len(rows) - 1} rows, expected {count}"
            params = Q.WeierstrassParams(0.5, 13)
            for row in rows[1:]:
                x, w = (float(v) for v in row.split(","))
                if Q.eval_W(params, x) != w:
                    return f"weierstrass: W({x!r}) = {w!r} differs from eval_W"
            if abs(float(rows[1].split(",")[0]) - lo) > step / 2 or \
                    abs(float(rows[-1].split(",")[0]) - hi) > step / 2:
                return "weierstrass: x range does not span the requested interval"
            self.csv_verified = text
        return None

    def info(self, ops):
        sizes = self.report_sizes
        return {"report_bytes": sum(sizes) / len(sizes) if sizes else 0.0}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def make_workload(name: str, seed: int) -> Workload:
    if name == "report-weierstrass":
        return ReportWorkload(seed, ("weierstrass",), trace_ops=2)
    if name == "report-smooth":
        return ReportWorkload(seed, ("tsallis", "power(0.5)", "negated"), trace_ops=6)
    if name == "entropy-sweep":
        return SweepWorkload(seed)
    if name == "cli-process":
        return CliWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


def run_ops(wl: Workload, *, count: int | None = None, seconds: float | None = None,
            tracer=None, first: int = 0) -> list[dict]:
    """Closed loop: the next op starts when the previous one and its check end.

    With ``seconds`` the loop stops at the rotation boundary nearest to that
    much op time, so every run measures whole rotations.  ``first`` is a
    multiple of the rotation length."""
    ops, busy, i, boundary = [], 0.0, first, 0.0
    while True:
        if count is not None:
            if i - first >= count:
                break
        elif i % wl.rotation == 0 and i > first:
            rotation_s, boundary = busy - boundary, busy
            if busy + rotation_s / 2 >= seconds:
                break
        inp = wl.make_input(i)
        out, err = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                out, root = tracer.run_op(i, wl.run, inp)
            dt = time.perf_counter() - t0
            if tracer is not None:
                wl.after_traced_op(tracer, root)
            err = wl.check(inp, out)
        except Exception as exc:  # a failed op is counted, the loop goes on
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
        busy += dt
        ops.append({"i": i, "t": dt, "out": out, "err": err})
        i += 1
    return ops


def _apply_finish(wl: Workload, ops: list) -> None:
    try:
        late = wl.finish(ops)
    except Exception as exc:
        late = [(op["i"], f"run-level check raised {type(exc).__name__}: {exc}") for op in ops]
    by_index = {op["i"]: op for op in ops}
    for i, err in late:
        by_index[i]["err"] = by_index[i]["err"] or err


def _summary(ops: list) -> dict:
    failures = [f"op {op['i']}: {op['err']}" for op in ops if op["err"] is not None]
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "times": [op["t"] for op in ops if op["err"] is None],
        "index": [op["i"] for op in ops if op["err"] is None],
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    part = int(argv[4]) if len(argv) > 4 else 0
    sys.path.insert(0, str(HERE))
    wl = make_workload(name, seed)
    try:
        wl.setup()
        first = part * 1000 * wl.rotation
        inp = wl.make_input(first)
        try:
            warm = wl.check(inp, wl.run(inp))
        except Exception as exc:  # the timed ops count it if it repeats
            warm = f"{type(exc).__name__}: {exc}"
        if warm is not None:
            print(f"warm-up op failed: {warm}", file=sys.stderr)
        print("READY", flush=True)
        if mode == "timed":
            ops = run_ops(wl, seconds=seconds, first=first)
        else:
            ops = run_ops(wl, count=wl.trace_ops)
        # Peak memory of the ops alone: read before the run-level checks,
        # whose oracle builds large reference objects of its own.
        who = resource.RUSAGE_CHILDREN if isinstance(wl, CliWorkload) else resource.RUSAGE_SELF
        peak_rss_kb = resource.getrusage(who).ru_maxrss
        _apply_finish(wl, ops)
        result = _summary(ops)
        result["info"] = wl.info(ops)
        result["peak_rss_kb"] = peak_rss_kb
        if mode == "trace":
            from tracing import Tracer, summarize

            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
            traced = run_ops(wl, count=wl.trace_ops, tracer=tracer)
            for a, b in zip(ops, traced):
                if b["err"] is None and b["out"] != a["out"]:
                    b["err"] = "traced output differs from the untraced output"
            t = _summary(traced)
            result["attempted"] += t["attempted"]
            result["failed"] += t["failed"]
            result["failures"] += t["failures"]
            result["traced_times"] = t["times"]
            result["layers"] = summarize(tracer.spans, len(traced))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{name}.csv")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
