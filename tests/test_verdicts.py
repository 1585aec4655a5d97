"""Per-check verdicts of the full report on thirteen reference families.

The first six are valid families: Suyari's class (Tsallis, power) and the
Weierstrass counterexample, which passes every check although it lies
outside that class.  The other seven are deliberately broken and fail or
come back not_applicable.  The verdicts do not depend on the seed, nor on
the SIMD target numpy dispatches its log and expm1 loops to: the report
values may differ by ulps between targets, the verdicts may not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qentropy
from qentropy.axioms import CHECK_NAMES, CheckConfig, run_full_report
from qentropy.deformation import (
    EntropyFamily,
    negated_phi,
    one_minus_q_alpha,
    power_alpha,
    power_family,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
)


def _unvalidated(phi, alpha) -> EntropyFamily:
    return EntropyFamily(phi, alpha, 1.0, validated=False)


def _verdicts(fail=(), not_applicable=()) -> dict:
    table = dict.fromkeys(CHECK_NAMES, "pass")
    table.update(dict.fromkeys(fail, "fail"))
    table.update(dict.fromkeys(not_applicable, "not_applicable"))
    return table


# The constant-alpha tables break alpha(1) = 0; the narrow table stops at
# [0.5, 2]; the crossing table has phi = 0 at q = 3; the flat table has phi = 0.
CASES = {
    "tsallis": (tsallis_family(), _verdicts()),
    "tsallis_k2": (tsallis_family(2.0), _verdicts()),
    "power_0.5": (power_family(0.5), _verdicts(not_applicable=["phi_derivative_at_1"])),
    "power_2_k3": (power_family(2.0, k=3.0),
                   _verdicts(not_applicable=["phi_derivative_at_1"])),
    "weierstrass": (weierstrass_family(),
                    _verdicts(not_applicable=["derivative_limit_probe"])),
    "weierstrass_k2": (weierstrass_family(k=2.0),
                       _verdicts(not_applicable=["derivative_limit_probe"])),
    "negated_phi": (
        _unvalidated(negated_phi(), one_minus_q_alpha()),
        _verdicts(fail=["maximality", "shannon_limit", "sign_condition",
                        "phi_derivative_at_1", "alpha_phi_limit", "constraint_region",
                        "convexity_of_I"]),
    ),
    "constant_alpha_0.5": (
        _unvalidated(tsallis_phi(1.0), tabulated([(0.01, 0.5), (10.0, 0.5)])),
        _verdicts(fail=["continuity_probe", "maximality", "generalized_additivity",
                        "shannon_limit", "alpha_phi_limit", "constraint_region",
                        "convexity_of_I"],
                  not_applicable=["phi_derivative_at_1"]),
    ),
    "narrow_table": (
        _unvalidated(tabulated([(0.5, -0.5), (2.0, 1.0)]), one_minus_q_alpha()),
        _verdicts(fail=["phi_derivative_at_1", "alpha_phi_limit"],
                  not_applicable=["continuity_probe", "maximality", "shannon_additivity",
                                  "generalized_additivity", "pseudoadditivity",
                                  "sign_condition", "constraint_region",
                                  "convexity_of_I"]),
    ),
    "phi_crossing_zero": (
        _unvalidated(tabulated([(0.01, -1.0), (1.0, 0.0), (2.0, 1.0), (3.0, -1.0),
                                (10.0, -1.0)]), one_minus_q_alpha()),
        _verdicts(fail=["continuity_probe", "maximality", "shannon_limit",
                        "sign_condition", "constraint_region", "convexity_of_I"]),
    ),
    "flat_phi": (
        _unvalidated(tabulated([(0.01, 0.0), (10.0, 0.0)]), one_minus_q_alpha()),
        _verdicts(fail=["sign_condition", "phi_derivative_at_1"],
                  not_applicable=["continuity_probe", "maximality", "shannon_additivity",
                                  "generalized_additivity", "pseudoadditivity",
                                  "shannon_limit", "alpha_phi_limit", "convexity_of_I"]),
    ),
    "constant_alpha_2": (
        _unvalidated(tsallis_phi(1.0), tabulated([(0.01, 2.0), (10.0, 2.0)])),
        _verdicts(fail=["continuity_probe", "maximality", "generalized_additivity",
                        "shannon_limit", "alpha_phi_limit", "constraint_region",
                        "convexity_of_I"],
                  not_applicable=["phi_derivative_at_1"]),
    ),
    "power_alpha_2": (
        _unvalidated(tsallis_phi(1.0), power_alpha(2.0)),
        _verdicts(fail=["shannon_limit", "alpha_phi_limit"],
                  not_applicable=["phi_derivative_at_1"]),
    ),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(CASES))
def test_report_verdicts(name, seed):
    family, expected = CASES[name]
    report = run_full_report(family, CheckConfig(seed=seed))
    assert {rec.name: rec.verdict for rec in report.checks} == expected


# numpy reads this at import and ignores names the host does not have, so
# on an AVX-512 host the subprocess runs the AVX2 (X86_V3) loops, and
# elsewhere the host's own.
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_VERDICTS_SCRIPT = """
import json
from qentropy.axioms import CheckConfig, run_full_report
from test_verdicts import CASES
print(json.dumps({f"{name} {seed}": {rec.name: rec.verdict for rec in
                  run_full_report(family, CheckConfig(seed=seed)).checks}
                  for name, (family, _) in CASES.items() for seed in (0, 7)}))
"""


def test_report_verdicts_without_avx512():
    paths = [str(Path(qentropy.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_NO_AVX512,
               PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", _VERDICTS_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    expected = {f"{name} {seed}": table
                for name, (_, table) in CASES.items() for seed in (0, 7)}
    assert json.loads(run.stdout) == expected
