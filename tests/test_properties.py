"""Property tests: every entropy route against an independent 30-digit reference.

The reference takes phi and alpha from ``perfbench/oracle.py`` (closed forms
in mpmath, the Weierstrass series with exact rational argument reduction;
it imports nothing from qentropy) and evaluates S_q, the exponent-q form and
I_q on the stored ``d.probs`` as given.  The property: each call either
raises an EvaluationError or lands within

    |v - ref| <= 1e-12 |ref| + 2^-1074 (1 + n s),

s = k at q = 1 and 1/|phi(q)| otherwise; the second term is the underflow
grid of n terms divided by phi.

The kernel's exactly rounded row sums are held to math.fsum itself, bit
for bit, and an array call of information_content to its 1-element calls.
"""

import importlib.util
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, note, settings, strategies as st  # noqa: E402

from qentropy.deformation import (  # noqa: E402
    EntropyFamily,
    power_family,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
)
from qentropy.entropy import (  # noqa: E402
    _row_sums,
    _stack,
    entropies,
    generalized_entropy,
    information_content,
    suyari_entropy,
    trace_expectation,
)
from qentropy.errors import EvaluationError, ZeroWithNonpositiveExponent  # noqa: E402
from qentropy import simplex  # noqa: E402
from qentropy.simplex import _BLOCK, _LONG_ROW, Distribution, make_distribution  # noqa: E402

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
    if kind == "constant_alpha":  # alpha = gamma, unvalidated; the oracle has no such kind
        return EntropyFamily(tsallis_phi(k), tabulated([(1e-7, gamma), (60.0, gamma)]), k,
                             validated=False)
    return weierstrass_family(k=k)


def _reference(kind: str, gamma: float, k: float, q: float, probs, counts=None):
    """(S_q, exponent-q S_q, [I_q(p) for nonzero p], s) at DPS digits, where
    the entry probs[i] occurs counts[i] times (once each by default)."""
    counts = [1] * len(probs) if counts is None else counts
    with mpmath.workdps(DPS):
        logs = [mpmath.log(p) for p in probs if p > 0.0]
        weights = [mpmath.mpf(p) * c for p, c in zip(probs, counts) if p > 0.0]
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


def _agrees(call, ref, n: int, s) -> float | EvaluationError:
    """call()'s value, asserted within the bound, or the EvaluationError it raised."""
    try:
        value = call()
    except EvaluationError as exc:
        note(f"{type(exc).__name__}: {exc}")
        return exc
    value = getattr(value, "value", value)
    with mpmath.workdps(DPS):
        bound = REL_TOL * abs(ref) + _TINIEST * (1 + n * s)
        error = abs(mpmath.mpf(value) - ref)
        assert error <= bound, (
            f"value {value!r}, reference {mpmath.nstr(ref, 20)}, "
            f"error {mpmath.nstr(error, 5)} > bound {mpmath.nstr(bound, 5)}")
    return value


def _check_all(kind: str, gamma: float, k: float, q: float, d: Distribution) -> int:
    """Check the four routes at one point; return how many gave a value."""
    assert Fraction(q) - 1 == Fraction(q - 1.0), "q - 1.0 must be exact"
    f = _family(kind, gamma, k)
    s_ref, suyari_ref, info_ref, s = _reference(kind, gamma, k, q, d.probs)
    n = len(d.probs)
    results = [
        _agrees(lambda: generalized_entropy(d, f, q), s_ref, n, s),
        _agrees(lambda: suyari_entropy(d, f, q), suyari_ref, n, s),
        _agrees(lambda: trace_expectation(d, f, q), s_ref, n, s),
    ]
    nonzero = [p for p in d.probs if p > 0.0]
    singles = [_agrees(lambda: information_content(f, q, p), ref, 1, s)
               for p, ref in zip(nonzero, info_ref)]
    # One array call over the same entries gives the 1-element values bit
    # for bit (so it is within the same bound), or raises the error of the
    # first entry whose 1-element call raised.
    errors = [str(v) for v in singles if isinstance(v, EvaluationError)]
    try:
        batch = information_content(f, q, np.array(nonzero))
    except EvaluationError as exc:
        assert errors[:1] == [str(exc)]
    else:
        assert not errors
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in singles]
    return sum(not isinstance(v, EvaluationError) for v in results + singles)


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


def _long_row(n: int) -> list[float]:
    """A seeded histogram of n entries with zeros and subnormals."""
    rng = np.random.default_rng(n)
    values = rng.exponential(size=n)
    values[rng.random(n) < 0.1] = 0.0
    values[:3] = (5e-324, 1e-310, 1e-250)
    return values.tolist()


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(
    rows=st.lists(_VALUES, min_size=1, max_size=6),
    long_rows=st.lists(st.integers(9_000, 11_000), max_size=2),
    pad=st.integers(0, 3),
    q=_Q,
    kind=st.sampled_from(("tsallis", "power", "weierstrass")),
    gamma=st.floats(min_value=0.1, max_value=3.0),
    k_exp=st.integers(-300, 300),
)
def test_batched_rows_equal_one_row_calls(rows, long_rows, pad, q, kind, gamma, k_exp):
    """entropies() on NaN-padded ragged rows gives each row's 1-row value bit
    for bit, or raises an EvaluationError exactly when some row does.  With
    rows of ~10^4 entries the batch is summed by extraction levels while
    the short rows' 1-row calls use math.fsum.  The 1-row value is the same whether
    the distribution's cached kernel inputs are new or already used."""
    f = _family(kind, gamma, 10.0**k_exp)
    ds = [make_distribution(values, "normalize")
          for values in rows + [_long_row(n) for n in long_rows]]
    P = np.full((len(ds), max(map(len, ds)) + pad), np.nan)
    for i, d in enumerate(ds):
        P[i, :len(d)] = d.probs
    # Twins whose cached ln p and zero positions a trace call at another q
    # filled first: a 1-row call on one must give what it gives on a new one.
    warm = [Distribution(d.probs) for d in ds]
    for w in warm:
        _outcome(trace_expectation, w, f, 2.0 if q != 2.0 else 0.5)
    for form, route in (("generalized", generalized_entropy),
                        ("suyari", suyari_entropy), ("trace", trace_expectation)):
        singles = []
        for d, w in zip(ds, warm):
            fresh = _outcome(route, Distribution(d.probs), f, q)
            assert _outcome(route, w, f, q) == fresh, form
            singles.append(fresh if isinstance(fresh, str) else None)
        if None in singles:
            with pytest.raises(EvaluationError):
                entropies(P, f, q, form)
        else:
            assert [v.hex() for v in entropies(P, f, q, form)] == singles, form


def _row_just_below_cut(seed: int) -> list[float]:
    """_LONG_ROW - 1 seeded entries with zeros: math.fsum sums the row, and
    the extraction levels sum it once a zero is appended."""
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=_LONG_ROW - 1)
    values[rng.random(values.size) < 0.1] = 0.0
    values[0] = 1e-310
    return values.tolist()


def _outcome(route, d: Distribution, f, q: float):
    """route's value as hex, or the class of the EvaluationError it raised."""
    try:
        return route(d, f, q).value.hex()
    except EvaluationError as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    values=st.one_of(_VALUES, st.integers(0, 2**32 - 1).map(_row_just_below_cut)),
    zeros=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    q=_Q,
    kind=st.sampled_from(("tsallis", "power", "weierstrass", "constant_alpha")),
    gamma=st.floats(min_value=0.1, max_value=3.0),
    k_exp=st.integers(-300, 300),
)
def test_permuting_or_appending_zeros_keeps_every_bit(values, zeros, seed, q, kind, gamma,
                                                      k_exp):
    """The symmetry and expandability axioms hold bit for bit on every route
    at every q, on any SIMD target, because each row sum is exactly rounded.
    Appending a zero is an error only where it meets an exponent
    1 - alpha(q) <= 0 (constant alpha = gamma >= 1; never on the exponent-q
    route, whose exponent is q): then the padded row raises
    ZeroWithNonpositiveExponent, whatever the row without it gave."""
    f = _family(kind, gamma, 10.0**k_exp)
    d = make_distribution(values, "normalize")
    permuted = Distribution(tuple(np.random.default_rng(seed).permutation(d.probs).tolist()))
    padded = Distribution(d.probs + (0.0,) * zeros)
    for form, route in (("generalized", generalized_entropy),
                        ("suyari", suyari_entropy), ("trace", trace_expectation)):
        base = _outcome(route, d, f, q)
        assert _outcome(route, permuted, f, q) == base, form
        zero_raises = form != "suyari" and q != 1.0 and 1.0 - f.alpha(q) <= 0.0
        assert _outcome(route, padded, f, q) == (
            ZeroWithNonpositiveExponent if zero_raises else base), form


# Rows at alpha(q) < 0 with entries on both sides of the trace route's cut
# p = exp(1/alpha(q)), in a majority of either side, an entry at the cut
# itself, and zero entries.  Where |alpha(q)| < 1/745 (q = 1 + 1e-3 and
# 1 + 1e-6, but for power(0.5) only the latter), the cut is 0.0 and every
# entry takes the product.
_CUT_ROWS = (
    (0.5, 0.3, 0.2, 0.0),
    (0.6, 0.1, 0.1, 0.1, 0.1, 0.0),
    (0.3, 0.3, 0.39, 0.01, 0.0),
    (math.exp(-1.0), 0.3, 1.0 - math.exp(-1.0) - 0.3),
    (0.5, 0.5, 0.0, 0.0),
    (1.0, 0.0),
)


def _per_entry_trace(row, f: EntropyFamily, q: float) -> float:
    """(p - p^e) / phi below the cut, expm1(alpha ln p) / phi * p^e from it
    on, each p > 0 on its own and the terms summed by math.fsum.  The ufuncs
    are numpy's on a one-entry array: its log, expm1 and power may differ
    from libm's by an ulp."""
    alpha, phi = f.alpha(q), f.phi(q)
    e = 1.0 - alpha
    cut = math.exp(1.0 / alpha)
    terms = []
    for p in row:
        if p > 0.0:
            a = np.array([p])
            w = a ** e
            term = (a - w) / phi if p < cut else np.expm1(np.log(a) * alpha) / phi * w
            terms.append(term.item())
    return math.fsum(terms)


@pytest.mark.parametrize("kind", ["tsallis", "power", "weierstrass"])
@pytest.mark.parametrize("q", [1.25, 2.0, 4.75, 1.0 + 1e-3, 1.0 + 1e-6])
def test_trace_split_at_the_cut_is_per_entry(kind, q):
    """The trace route's two forms, each computed over the whole array or
    only at its own entries, give every entry the form its side of the cut
    takes, bit for bit: one distribution at a time and in a NaN-padded
    batch."""
    f = _family(kind, 0.5, 1.0)
    assert f.alpha(q) < 0.0
    want = [_per_entry_trace(row, f, q).hex() for row in _CUT_ROWS]
    assert [trace_expectation(Distribution(row), f, q).value.hex() for row in _CUT_ROWS] == want
    assert [v.hex() for v in entropies(_stack(_CUT_ROWS), f, q, "trace")] == want


# Row lengths on both sides of the length cut, and on both sides of the
# segment edges: a row of up to _BLOCK entries is one segment, a longer one
# is cut into 2 or 3.
_CUT_LENGTHS = (1, 7, _LONG_ROW - 1, _LONG_ROW, _LONG_ROW + 1, _BLOCK // 4,
                _BLOCK // 3, _BLOCK // 2, _BLOCK // 2 + 1, _BLOCK - 1, _BLOCK,
                _BLOCK + 1, 2 * _BLOCK + 5)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    rows=st.integers(1, 5),
    length=st.sampled_from(_CUT_LENGTHS),
    exponents=st.lists(st.integers(-1074, 1024), min_size=2, max_size=2).map(sorted),
    sign=st.sampled_from(("+", "-", "mixed", "cancel")),
    zero_share=st.sampled_from((0.0, 0.1, 0.9)),
    special=st.sampled_from((None, math.inf, math.nan)),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_equal_fsum(rows, length, exponents, sign, zero_share, special, seed):
    """_row_sums is math.fsum of each row's p > 0 entries, bit for bit, on
    both sides of the length cut, across segment edges within a row, in
    batches of up to 5 rows: terms m 2^e with e
    anywhere from the subnormals to the top of the range, exact zeros, and
    NaN in the entries outside the mask.  A cancelling row holds entries and
    their negations, shuffled, and one residual entry: 0, 5e-324 or the
    row's smallest scale.  An fsum that overflows reads inf; on a row of
    both signs the exact sum may not overflow, so such rows are not
    compared."""
    rng = np.random.default_rng(seed)
    shape = (rows, length)
    terms = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(*exponents, shape,
                                                                 endpoint=True))
    terms[rng.random(shape) < zero_share] = 0.0
    positive = rng.random(shape) >= 0.05
    if sign == "cancel":
        pairs = (length - 1) // 2
        terms[:, pairs:2 * pairs] = -terms[:, :pairs]
        positive[:, pairs:2 * pairs] = positive[:, :pairs]
        terms[:, 2 * pairs:] = 0.0
        terms[:, -1] = rng.choice((0.0, 5e-324, np.ldexp(0.5, exponents[0])))
        order = rng.permuted(np.broadcast_to(np.arange(length), shape), axis=1)
        terms = np.take_along_axis(terms, order, axis=1)
        positive = np.take_along_axis(positive, order, axis=1)
    elif sign != "+":
        terms *= -1.0 if sign == "-" else rng.choice((-1.0, 1.0), shape)
    if special is not None:
        at = rng.integers(length)
        terms[0, at], positive[0, at] = special, True
    terms[~positive] = np.nan
    want = []
    for row, mask in zip(terms, positive):
        try:
            want.append(math.fsum(row[mask].tolist()).hex())
        except OverflowError:
            want.append(None if sign in ("mixed", "cancel") else math.inf.hex())
    got = _row_sums(terms.copy(), ~positive)
    assert [None if w is None else g.hex() for g, w in zip(got, want)] == want


def _branch_rows() -> dict[str, tuple[np.ndarray, int]]:
    """Rows of 4,096 entries, one row of two segments, and one batch of
    short rows, each with the number of its rows that go to math.fsum."""
    n = 4096
    rng = np.random.default_rng(15)

    def row(*entries, length=n):
        values = np.zeros(length)
        values[:len(entries)] = entries
        return values[rng.permutation(length)]

    wide = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1001, n))
    wide[:2] = (5e-324, 2.0**1000)
    halves = np.ldexp(rng.uniform(0.5, 1.0, n // 2), rng.integers(-10, 11, n // 2))
    cancel = np.concatenate([halves, -halves])[rng.permutation(n)]
    wide_cancel = np.concatenate([wide[:n // 2], -wide[:n // 2]])[rng.permutation(n)]
    typical = rng.standard_exponential(n)
    p = typical / typical.sum()
    broken_tie = row(1.0, 2.0**-53, 5e-324)
    short = np.stack([typical[:7], row(1.7e308, 1.7e308, length=7), row(1.0, 2.0**-53, length=7)])
    return {
        "typical": (typical[None], 0),
        "past the level budget": (wide[None], 0),
        "kernel terms": (np.stack([p * np.expm1(0.25 * np.log(p)), p * np.log(p)]), 0),
        "no headroom, finite sum": (row(1.7e308, -1.6e308, 1.0, 3.0)[None], 1),
        "no headroom, overflowing sum": (row(1.7e308, 1.7e308)[None], 1),
        "tie to even, down": (row(1.0, 2.0**-53)[None], 1),
        "tie to even, up": (row(1.0 + 2.0**-52, 2.0**-53)[None], 1),
        "tie broken beyond the levels": (broken_tie[None], 1),
        "cancels to zero": (cancel[None], 1),
        "cancels below the levels": (wide_cancel[None], 1),
        "batch with one open row": (np.stack([typical, broken_tie, wide]), 1),
        "short rows, one overflowing": (short, 3),
        "largest entry subnormal": (row(1e-310, 5e-324, 3e-320, 2.5e-309)[None], 0),
        "an all-zero segment": (np.concatenate([typical, np.zeros(_BLOCK + 1 - n)])[None], 0),
    }


@pytest.mark.parametrize("name", list(_branch_rows()))
def test_exact_sum_branches_equal_fsum(name, monkeypatch):
    """Each branch of the row sum gives math.fsum's bits (inf where fsum
    overflows): long rows that the extraction level settles, with a zero
    remainder or one too small to move the rounding; rows that it leaves
    open, a near tie or a cancelling sum, or whose sigma would overflow,
    which go to math.fsum, the only way a long row reaches it; and short
    rows, which go to math.fsum row by row only when one of them overflows.
    A batch gives each row its 1-row value."""
    X, fallbacks = _branch_rows()[name]
    calls = []
    fsum = simplex._fsum
    monkeypatch.setattr(simplex, "_fsum", lambda row: calls.append(row) or fsum(row))
    want = []
    for row in X:
        try:
            want.append(math.fsum(row.tolist()).hex())
        except OverflowError:
            want.append(math.inf.hex())
    assert [v.hex() for v in simplex._exact_sums(X)] == want
    assert len(calls) == fallbacks
    monkeypatch.setattr(simplex, "_fsum", fsum)
    assert [simplex._exact_sums(row[None])[0].hex() for row in X] == want


@pytest.mark.parametrize("t,parts,bound,settled", [
    (1.0, [1.0], 2.0**-55, True),
    (1.0, [1.0], 2.0**-54, False),  # 1 - 2^-54 ties with 1 - 2^-53 below 1
    (1.0 + 2.0**-52, [1.0 + 2.0**-52], 2.0**-54, True),
    (1.0 + 2.0**-52, [1.0 + 2.0**-52], 2.0**-53, False),  # ties above and below
    (1.0, [1.0, 2.0**-60], 2.0**-55, True),
    (1.0, [1.0, 2.0**-54], 2.0**-54, False),
    (0.0, [1.0, -1.0], 5e-324, False),
    (sys.float_info.max, [sys.float_info.max, 2.0**969], 2.0**968, True),
    # T + bound reaches the overflow threshold, max + 2^970
    (sys.float_info.max, [sys.float_info.max, 2.0**969], 2.0**969, False),
    (-sys.float_info.max, [-sys.float_info.max], 2.0**970, False),
])
def test_settled_keeps_off_both_midpoints(t, parts, bound, settled):
    """A remainder within the bound leaves the rounding alone only if it
    cannot reach a midpoint to either neighbour, or the overflow threshold."""
    assert simplex._settled(t, parts, bound) is settled


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


@pytest.mark.parametrize("kind,gamma,k,q", [
    ("tsallis", 1.0, 1.0, 1.0 - 5e-10),
    ("power", 0.5, 1e-3, 0.25),
    ("weierstrass", 1.0, 2.0, 1.0 + 5e-10),
    ("tsallis", 1.0, 1.0, 1.0),
])
def test_million_entries_agree_with_reference(kind, gamma, k, q):
    """n > 10^6, with zeros and subnormals: a histogram of five distinct
    values, so the reference sums each distinct p times its count."""
    rng = np.random.default_rng(6)
    raw = np.repeat([3.0, 1.0, 1e-3, 1e-310, 0.0], [200_000, 500_000, 250_000, 50_000, 100_000])
    d = make_distribution(rng.permutation(raw), "normalize")
    probs, counts = np.unique(d.array, return_counts=True)
    f = _family(kind, gamma, k)
    s_ref, suyari_ref, _, s = _reference(kind, gamma, k, q, probs.tolist(), counts.tolist())
    n = len(d)
    for route, ref in ((generalized_entropy, s_ref), (suyari_entropy, suyari_ref),
                       (trace_expectation, s_ref)):
        assert not isinstance(_agrees(lambda: route(d, f, q), ref, n, s), EvaluationError)


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


# The kernel's long temporaries live in per-thread scratch arrays of up to
# simplex._SCRATCH entries; a longer row takes new arrays.  Each call must
# read only what it wrote itself, and no result may be a view of a slot.
_SWEEP_Q = (0.25, 0.5, 0.9, 1 - 5e-10, 1.0, 1 + 5e-10, 1 + 1e-6, 1.25, 2.0, 3.0, 4.75)
_ROUTES = (generalized_entropy, trace_expectation)


def _sweep(d: Distribution, f) -> list[str]:
    return [route(d, f, q).value.hex() for q in _SWEEP_Q for route in _ROUTES]


def test_interleaved_long_rows_keep_their_bits():
    """Calls on rows of 2,000, 10^5 and 2^17 + 1 entries (past the scratch
    bound), interleaved q by q, give each distribution's first values."""
    assert 100_000 < simplex._SCRATCH < 2**17 + 1
    ds = [_large_histogram(seed=n, n=n) for n in (2_000, 100_000, 2**17 + 1)]
    for f in (tsallis_family(), weierstrass_family()):
        first = [_sweep(d, f) for d in ds]
        for j, q in enumerate(_SWEEP_Q):
            for r, route in enumerate(_ROUTES):
                for i in (1, 0, 2, 1):
                    value = route(ds[i], f, q).value.hex()
                    assert value == first[i][2 * j + r], (len(ds[i]), q, route.__name__)


def test_two_threads_give_the_single_thread_bits():
    """Two threads sweeping the q grid at once, each over its own 10^5-entry
    distribution, give what each sweep gives alone."""
    f = power_family(0.5)
    ds = [_large_histogram(seed=seed, n=100_000) for seed in (1, 2)]
    alone = [_sweep(d, f) for d in ds]
    start = threading.Barrier(2)
    results = [[], []]

    def run(i: int) -> None:
        start.wait()
        for _ in range(3):
            results[i].append(_sweep(ds[i], f))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert results == [[alone[0]] * 3, [alone[1]] * 3]


def test_information_content_outlives_later_calls():
    """An array of I_q(p) is the caller's own: long-row kernel calls after
    it leave it unchanged."""
    f = tsallis_family()
    p = _large_histogram(seed=3, n=100_000).array
    p = p[p > 0.0]
    values = information_content(f, 0.5, p)
    kept = values.copy()
    d = _large_histogram(seed=4, n=100_000)
    for q in _SWEEP_Q:
        for route in _ROUTES:
            route(d, f, q)
    assert np.array_equal(values.view(np.int64), kept.view(np.int64))


def _support_cases():
    """Distributions of 1,023, 1,024, 1,025 and 10^5 entries, on both sides
    of _LONG_ROW: with no zero, with 10% zeros, with 10% zeros and
    subnormal entries, and with one nonzero entry."""
    rng = np.random.default_rng(25)
    for n in (_LONG_ROW - 1, _LONG_ROW, _LONG_ROW + 1, 100_000):
        values = rng.standard_exponential(n)
        yield f"no zero, n={n}", make_distribution(values, "normalize")
        values[rng.random(n) < 0.1] = 0.0
        d = make_distribution(values, "normalize")
        yield f"10% zeros, n={n}", d
        tiny = d.array.copy()
        tiny[np.flatnonzero(tiny == 0.0)[:3]] = (5e-324, 1e-310, 2.5e-320)
        yield f"subnormals, n={n}", Distribution(tiny)
        one = np.zeros(n)
        one[rng.integers(n)] = 1.0
        yield f"one nonzero, n={n}", Distribution(one)


def _value_or_error(call):
    try:
        return call()[0].hex()
    except EvaluationError as exc:
        return type(exc)


def test_support_route_equals_the_full_row_bit_for_bit():
    """A 1-row call runs over the distribution's support, its positive
    entries and one zero for all of its zeros; it gives what entropies()
    gives on the full row, bit for bit, on every route and at every q of
    the sweep.  Where the exponent is <= 0 (alpha = 1.5 or 1), a
    distribution with zeros raises ZeroWithNonpositiveExponent on both."""
    families = [(kind, _family(kind, 0.5, 1.0)) for kind in ("tsallis", "power", "weierstrass")]
    families += [(f"alpha={gamma}", _family("constant_alpha", gamma, 1.0))
                 for gamma in (1.5, 1.0)]
    forms = (("generalized", generalized_entropy), ("suyari", suyari_entropy),
             ("trace", trace_expectation))
    for case, d in _support_cases():
        zeros = bool((d.array == 0.0).any())
        for kind, f in families:
            for q in _SWEEP_Q:
                for form, route in forms:
                    single = _value_or_error(lambda: [route(d, f, q).value])
                    full = _value_or_error(lambda: entropies(d.array[None], f, q, form))
                    assert single == full, (case, kind, q, form)
                    if zeros and form != "suyari" and q != 1.0 and 1.0 - f.alpha(q) <= 0.0:
                        assert single is ZeroWithNonpositiveExponent, (case, kind, q, form)


def test_scratch_slot_grows_to_a_power_of_two():
    """Requests of 90,001, 90,050 and 10^5 entries in a new thread take one
    slot array of 2^17 entries; a request past _SCRATCH takes a new array,
    so a thread keeps at most 2.25 MiB: two slots of _SCRATCH entries and
    the extraction segment's slot of _BLOCK."""
    found = {}

    def run() -> None:
        slots = []
        for n in (90_001, 90_050, 100_000):
            assert simplex._scratch(0, (1, n)).shape == (1, n)
            slots.append(simplex._slots.arrays[0])
        found["slots"] = slots
        past = simplex._scratch(1, (1, simplex._SCRATCH + 1))
        found["shared"] = any(np.shares_memory(past, a) for a in simplex._slots.arrays)
        simplex._scratch(1, (1, simplex._SCRATCH))
        simplex._scratch(2, (1, _BLOCK))
        found["bytes"] = sum(a.nbytes for a in simplex._slots.arrays)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    slots = found["slots"]
    assert all(slot is slots[0] for slot in slots) and slots[0].size == 2**17
    assert found["shared"] is False
    assert found["bytes"] <= 2.25 * 2**20
