"""Command-line front end.

Usage:
    qentropy eval --family tsallis.json --q 2 --dist "[0.5,0.5]"
    qentropy info-content --family tsallis.json --q 2 --p 0.5
    qentropy axioms --family tsallis.json --output report.json
    qentropy counterexample --a 0.5 --b 13 --k 1 --depth 8 --output probe.csv
    qentropy weierstrass --a 0.5 --b 13 --range=-2:2:0.001 --output w.csv

Family files are JSON documents such as

    {"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}
    {"phi": {"kind": "weierstrass_phi", "a": 0.5, "b": 13, "eps": 1e-12},
     "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}

Distributions are inline JSON arrays or paths to JSON files.  All numeric
output uses the decimal point regardless of locale.

Exit codes: 0 success (and all axiom checks passed), 1 at least one axiom
check failed, 2 input or validation error, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .axioms import CheckConfig, run_full_report
from .deformation import family_from_spec
from .entropy import generalized_entropy, information_content
from .errors import EvaluationError, InputError, QentropyError, _check_k, _check_q
from .simplex import make_distribution
from .weierstrass import (
    WeierstrassParams,
    difference_quotients,
    eval_phi_counterexample,
    eval_W,
    nondifferentiability_probe,
    quotient_spread,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_EVALUATION = 3


def _load_family(path: str):
    p = Path(path)
    if not p.is_file():
        raise InputError(f"family file not found: {path}")
    try:
        spec = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"family file {path} is not valid JSON: {exc}") from exc
    return family_from_spec(spec)


def _load_values(text: str) -> list[int | float]:
    """Inline JSON array, or a path to a JSON file holding one; the numbers
    are converted, and an integer beyond the float range refused, by
    make_distribution."""
    raw = text.strip()
    if not raw.startswith("["):
        p = Path(raw)
        if not p.is_file():
            raise InputError(f"distribution file not found: {raw}")
        raw = p.read_text(encoding="utf-8")
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"distribution is not valid JSON: {exc}") from exc
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise InputError("distribution must be a JSON array of numbers")
    return values


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def cmd_eval(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    _check_q(args.q, "--q", InputError)
    dist = make_distribution(_load_values(args.dist), args.mode)
    result = generalized_entropy(dist, family, args.q)
    if args.json:
        print(json.dumps({
            "q": args.q,
            "value": result.value,
            "family": family.to_spec(),
        }, sort_keys=True))
    else:
        print(_fmt(result.value, args.digits))
    return EXIT_OK


def cmd_info_content(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    _check_q(args.q, "--q", InputError)
    if not 0.0 < args.p <= 1.0:
        raise InputError(f"--p must be in (0, 1], got {args.p!r}")
    value = information_content(family, args.q, args.p)
    if args.json:
        print(json.dumps({
            "q": args.q,
            "p": args.p,
            "value": value,
            "family": family.to_spec(),
        }, sort_keys=True))
    else:
        print(_fmt(value, args.digits))
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"{flag} must be a comma-separated number list") from exc


def cmd_axioms(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    cfg_kwargs = {"seed": args.seed}
    if args.q_list:
        cfg_kwargs["q_grid"] = _parse_float_list(args.q_list, "--q-list")
        for q in cfg_kwargs["q_grid"]:
            _check_q(q, "--q-list", InputError)
    if args.dims:
        dims = _parse_float_list(args.dims, "--dims")
        if not all(d.is_integer() and d >= 1 for d in dims):
            raise InputError("--dims must be positive integers")
        cfg_kwargs["dims"] = tuple(int(d) for d in dims)
    if args.samples is not None:
        if args.samples < 1:
            raise InputError("--samples must be >= 1")
        cfg_kwargs["maximality_samples"] = args.samples
        cfg_kwargs["pseudo_samples"] = args.samples
    config = CheckConfig(**cfg_kwargs)
    report = run_full_report(family, config)
    Path(args.output).write_text(report.to_json(), encoding="utf-8")
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for rec in report.checks:
            residual = "-" if rec.max_residual is None else f"{rec.max_residual:.3e}"
            print(f"{rec.name:<26} {rec.verdict.upper():<14} "
                  f"residual={residual:<12} threshold={rec.threshold:.1e}")
        print(f"report written to {args.output}")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_counterexample(args: argparse.Namespace) -> int:
    _check_k(args.k, "--k", InputError)
    if args.depth < 2:
        raise InputError("--depth must be >= 2")
    params = WeierstrassParams(args.a, args.b, args.eps)
    quotients_at_1 = difference_quotients(
        lambda q: eval_phi_counterexample(params, args.k, q), 1.0, args.b, args.depth
    )
    probe = nondifferentiability_probe(params, args.off_q - 1.0, args.depth)

    lines = ["m,scale,quotient_at_1,quotient_at_off1"]
    for m, ((h, q1), (_, qoff)) in enumerate(zip(quotients_at_1, probe.quotients), 1):
        lines.append(f"{m},{h!r},{q1!r},{qoff!r}")
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")

    control = difference_quotients(lambda t: t * t, 0.0, args.b, args.depth)
    control_spread = quotient_spread(control)
    estimate = quotients_at_1[-1][1]
    print(f"phi'(1) ~ {_fmt(estimate, args.digits)} (target {_fmt(1.0 / args.k, args.digits)})")
    print(f"off-1 spread at q={args.off_q!r}: {_fmt(probe.spread, 6)} "
          f"(smooth control {_fmt(control_spread, 6)})")
    print(f"wrote {args.output}")
    return EXIT_OK


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--range must look like lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError("--range must contain numbers") from exc
    if step <= 0 or hi < lo:
        raise InputError("--range needs step > 0 and hi >= lo")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise InputError("--range must give a finite number of points")
    if not math.isfinite(step):  # the only point would be lo + 0 * inf = nan
        raise InputError(f"--range needs a finite step, got {step!r}")
    count = int(math.floor(steps + 0.5)) + 1
    # The nearest count may add one point past hi; it stays only within the
    # rounding of lo, hi and step.
    if lo + (count - 1) * step > hi + 8 * sys.float_info.epsilon * max(abs(lo), abs(hi)):
        count -= 1
    return [lo + i * step for i in range(count)]


def cmd_weierstrass(args: argparse.Namespace) -> int:
    params = WeierstrassParams(args.a, args.b, args.eps)
    if args.x:
        xs = list(_parse_float_list(args.x, "--x"))
    elif args.range:
        xs = _parse_range(args.range)
    else:
        raise InputError("provide --x or --range")
    lines = ["x,W"]
    for x, w in zip(xs, eval_W(params, xs).tolist()):
        lines.append(f"{x!r},{w!r}")
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(xs)} rows to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="machine-readable JSON output")
    digits_flag = argparse.ArgumentParser(add_help=False)
    digits_flag.add_argument("--digits", type=int, default=15,
                             help="significant digits for printed numbers (default 15)")

    parser = argparse.ArgumentParser(
        prog="qentropy",
        description="Deformed entropies and generalized Shannon-Khinchin axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[json_flag, digits_flag],
                            help="evaluate a family's entropy at q")
    p_eval.add_argument("--family", required=True, help="family spec JSON file")
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--dist", required=True,
                        help="inline JSON array or path to a JSON file")
    p_eval.add_argument("--mode", choices=("strict", "normalize"), default="strict")
    p_eval.set_defaults(func=cmd_eval)

    p_info = sub.add_parser("info-content", parents=[json_flag, digits_flag],
                            help="pseudoadditive information content I_q(p)")
    p_info.add_argument("--family", required=True)
    p_info.add_argument("--q", type=float, required=True)
    p_info.add_argument("--p", type=float, required=True)
    p_info.set_defaults(func=cmd_info_content)

    p_ax = sub.add_parser("axioms", parents=[json_flag],
                          help="run the axiom report for a family")
    p_ax.add_argument("--family", required=True)
    p_ax.add_argument("--seed", type=int, default=0,
                      help="seed for randomized checks (default 0)")
    p_ax.add_argument("--q-list", default=None,
                      help="comma-separated q grid override")
    p_ax.add_argument("--dims", default=None,
                      help="comma-separated simplex dimensions")
    p_ax.add_argument("--samples", type=int, default=None,
                      help="samples per randomized check")
    p_ax.add_argument("--output", default="axiom_report.json",
                      help="report JSON path (default axiom_report.json)")
    p_ax.set_defaults(func=cmd_axioms)

    p_ce = sub.add_parser("counterexample", parents=[digits_flag],
                          help="difference-quotient data for the Weierstrass deformation")
    p_ce.add_argument("--a", type=float, default=0.5)
    p_ce.add_argument("--b", type=int, default=13)
    p_ce.add_argument("--k", type=float, default=1.0)
    p_ce.add_argument("--eps", type=float, default=1e-12)
    p_ce.add_argument("--depth", type=int, default=8)
    p_ce.add_argument("--off-q", type=float, default=1.3,
                      help="probe point away from 1 (default 1.3)")
    p_ce.add_argument("--output", default="counterexample.csv")
    p_ce.set_defaults(func=cmd_counterexample)

    p_w = sub.add_parser("weierstrass", help="tabulate W(x) to CSV")
    p_w.add_argument("--a", type=float, default=0.5)
    p_w.add_argument("--b", type=int, default=13)
    p_w.add_argument("--eps", type=float, default=1e-12)
    points = p_w.add_mutually_exclusive_group()
    points.add_argument("--x", default=None, help="comma-separated x values")
    points.add_argument("--range", default=None, help="lo:hi:step")
    p_w.add_argument("--output", default="weierstrass.csv")
    p_w.set_defaults(func=cmd_weierstrass)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "digits", 0) < 0:
            raise InputError(f"--digits must be >= 0, got {args.digits}")
        return args.func(args)
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except QentropyError as exc:  # InputError and any other package error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
