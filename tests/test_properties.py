"""Property tests: every entropy route against an independent 30-digit reference.

The reference takes phi and alpha from ``perfbench/oracle.py`` (closed forms
in mpmath, the Weierstrass series with exact rational argument reduction;
it imports nothing from qentropy) and evaluates S_q, the exponent-q form and
I_q on the stored ``d.probs`` as given.  The property: each call either
raises an EvaluationError or lands within

    |v - ref| <= 1e-12 |ref| + 2^-1074 (1 + n s),

s = k at q = 1 and 1/|phi(q)| otherwise; the second term is the underflow
grid of n terms divided by phi.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, note, settings, strategies as st  # noqa: E402

from qentropy.deformation import (  # noqa: E402
    power_family,
    tsallis_family,
    weierstrass_family,
)
from qentropy.entropy import (  # noqa: E402
    generalized_entropy,
    information_content,
    suyari_entropy,
    trace_expectation,
)
from qentropy.errors import EvaluationError  # noqa: E402
from qentropy.simplex import Distribution, make_distribution  # noqa: E402

DPS = 30
REL_TOL = 1e-12
_TINIEST = mpmath.mpf(2) ** -1074


def _reference_family_class():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("_reference_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ReferenceFamily


ReferenceFamily = _reference_family_class()


def _family(kind: str, gamma: float, k: float):
    if kind == "tsallis":
        return tsallis_family(k)
    if kind == "power":
        return power_family(gamma, k)
    return weierstrass_family(k=k)


def _reference(kind: str, gamma: float, k: float, q: float, probs):
    """(S_q, exponent-q S_q, [I_q(p) for nonzero p], s) at DPS digits."""
    with mpmath.workdps(DPS):
        logs = [mpmath.log(p) for p in probs if p > 0.0]
        weights = [mpmath.mpf(p) for p in probs if p > 0.0]
        if q == 1.0:
            kk = mpmath.mpf(k)
            shannon = -kk * mpmath.fsum(p * lp for p, lp in zip(weights, logs))
            return shannon, shannon, [-kk * lp for lp in logs], kk
        phi, alpha = ReferenceFamily(kind, k=k, gamma=gamma).phi_alpha(q)
        h = Fraction(q) - 1
        h = mpmath.mpf(h.numerator) / h.denominator

        def quotient(offset):
            return -mpmath.fsum(
                p * mpmath.expm1(offset * lp) for p, lp in zip(weights, logs)) / phi

        info = [mpmath.expm1(alpha * lp) / phi for lp in logs]
        return quotient(-alpha), quotient(h), info, 1 / abs(phi)


def _agrees(call, ref, n: int, s) -> bool:
    """False when call() raised an EvaluationError; asserts the bound otherwise."""
    try:
        value = call()
    except EvaluationError as exc:
        note(f"{type(exc).__name__}: {exc}")
        return False
    value = getattr(value, "value", value)
    with mpmath.workdps(DPS):
        bound = REL_TOL * abs(ref) + _TINIEST * (1 + n * s)
        error = abs(mpmath.mpf(value) - ref)
        assert error <= bound, (
            f"value {value!r}, reference {mpmath.nstr(ref, 20)}, "
            f"error {mpmath.nstr(error, 5)} > bound {mpmath.nstr(bound, 5)}")
    return True


def _check_all(kind: str, gamma: float, k: float, q: float, d: Distribution) -> int:
    """Check the four routes at one point; return how many gave a value."""
    assert Fraction(q) - 1 == Fraction(q - 1.0), "q - 1.0 must be exact"
    f = _family(kind, gamma, k)
    s_ref, suyari_ref, info_ref, s = _reference(kind, gamma, k, q, d.probs)
    n = len(d.probs)
    ok = _agrees(lambda: generalized_entropy(d, f, q), s_ref, n, s)
    ok += _agrees(lambda: suyari_entropy(d, f, q), suyari_ref, n, s)
    ok += _agrees(lambda: trace_expectation(d, f, q), s_ref, n, s)
    nonzero = [p for p in d.probs if p > 0.0]
    for p, ref in zip(nonzero, info_ref):
        ok += _agrees(lambda: information_content(f, q, p), ref, 1, s)
    return ok


def _exact_offset(q: float) -> float:
    # 1 + (q - 1) is q itself on [0.5, 2] and otherwise the nearest double
    # whose offset from 1 is exact.  An inexact q - 1 would hand the
    # Weierstrass phi a different argument than the reference's.
    return 1.0 + (q - 1.0)


_ORDINARY = st.floats(min_value=1e-9, max_value=1.0)
_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.225073858507201e-308),  # subnormal
    st.floats(min_value=1e-300, max_value=1e-200),
    _ORDINARY,
)
# At least one ordinary entry keeps the normalized sum within 1e-12 of 1.
_VALUES = st.tuples(_ORDINARY, st.lists(_ENTRY, max_size=39)).map(
    lambda t: [t[0], *t[1]])
_Q = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-6, max_value=50.0, exclude_min=True, exclude_max=True),
    st.builds(lambda m, j, sign: 1.0 + sign * m * 10.0 ** -j,
              st.integers(1, 9), st.integers(1, 15), st.sampled_from((1.0, -1.0))),
).map(_exact_offset)


@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(
    values=_VALUES,
    q=_Q,
    kind=st.sampled_from(("tsallis", "power", "weierstrass")),
    gamma=st.floats(min_value=0.1, max_value=3.0),
    k_exp=st.integers(-300, 300),
)
def test_routes_agree_with_reference_or_raise(values, q, kind, gamma, k_exp):
    d = make_distribution(values, "normalize")
    _check_all(kind, gamma, 10.0**k_exp, q, d)


def _large_histogram(seed: int, n: int = 10_000) -> Distribution:
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=n)
    values[rng.random(n) < 0.1] = 0.0
    values[:3] = (5e-324, 1e-310, 1e-250)
    return make_distribution(values.tolist(), "normalize")


@pytest.mark.parametrize("kind,gamma,k,q", [
    ("tsallis", 1.0, 1.0, 1.0 - 5e-10),
    ("power", 0.5, 1e-3, 0.25),
    ("weierstrass", 1.0, 2.0, 1.0 + 5e-10),
])
def test_large_n_agrees_with_reference(kind, gamma, k, q):
    d = _large_histogram(seed=len(kind))
    assert _check_all(kind, gamma, k, q, d) == 3 + sum(p > 0.0 for p in d.probs)


@pytest.mark.parametrize("kind,gamma", [
    ("tsallis", 1.0), ("power", 0.5), ("weierstrass", 1.0)])
def test_no_jump_next_to_one(kind, gamma):
    """generalized and trace S_q within 1e-15 of the reference at q = 1 +- m 10^-j."""
    d = Distribution((0.5, 0.25, 0.25))
    f = _family(kind, gamma, 1.0)
    for j in range(6, 16):
        for m in (1.0, 0.9, 0.5):
            for sign in (1.0, -1.0):
                q = _exact_offset(1.0 + sign * m * 10.0 ** -j)
                ref = _reference(kind, gamma, 1.0, q, d.probs)[0]
                for route in (generalized_entropy, trace_expectation):
                    value = route(d, f, q).value
                    with mpmath.workdps(DPS):
                        assert abs(value - ref) <= 1e-15 * ref, (route.__name__, q)
