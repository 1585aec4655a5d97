"""Contract sweep of the public surface: a finite value or a typed error.

Every call either returns finite values or raises a QentropyError, and the
CLI exits 0 with one finite number, or 2 or 3 with a one-line message,
never with a traceback.  The inputs reach the edges that hand-written cases
missed: k and gamma across the float range (subnormals included), table
knots up to +/-1e308, q from the smallest subnormal to 1e300 with weight
towards 0, towards 1 +/- 2^-52 and towards large values, and distributions
with zeros and subnormal entries.

Accuracy against a high-precision reference is the property tests' job;
this sweep asserts only the contract.  Runs are derandomized with a fixed
number of examples, so every run draws the same inputs.
"""

import contextlib
import io
import json
import math
from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, note, settings, strategies as st  # noqa: E402

from qentropy.cli import main  # noqa: E402
from qentropy.deformation import _KINDS, EntropyFamily  # noqa: E402
from qentropy.entropy import (  # noqa: E402
    generalized_entropy,
    information_content,
    pseudoadditive_compose,
    trace_expectation,
)
from qentropy.errors import QentropyError  # noqa: E402
from qentropy.simplex import make_distribution  # noqa: E402

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                 suppress_health_check=[HealthCheck.too_slow])

_MAX = 1.7976931348623157e308
_EDGES = [5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 1.0, 1e12, 1e300, _MAX]

# q in (0, 1e300]: towards 0, a few ulps from 1, towards large values, and
# anywhere between.
_Q = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-3),
    st.integers(-64, 64).map(lambda n: 1.0 + n * 2.0 ** -53),
    st.floats(min_value=1e3, max_value=1e300),
    st.floats(min_value=5e-324, max_value=1e300),
)
# k and gamma across the whole positive float range.
_POSITIVE = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=5e-324, max_value=_MAX))
_VALUE = st.one_of(st.sampled_from([0.0, -5e-324, 5e-324, 1e308, -1e308]),
                   st.floats(min_value=-1e308, max_value=1e308))
_KNOTS = st.lists(st.one_of(st.floats(min_value=1e-3, max_value=10.0), _Q),
                  min_size=2, max_size=5, unique=True).map(sorted)
_FIELDS = {
    "gamma": _POSITIVE,
    "points": _KNOTS.flatmap(lambda qs: st.lists(
        _VALUE, min_size=len(qs), max_size=len(qs)).map(lambda vs: list(zip(qs, vs)))),
    # Series parameters up to and past the MAX_TERMS bound (a = 0.95 with
    # eps = 5e-324 needs 14,572 terms); invalid ones are refused.
    "a": st.one_of(st.floats(min_value=0.01, max_value=0.95), st.just(0.95)),
    "b": st.integers(1, 49).map(lambda n: 2 * n + 1),
    "eps": st.one_of(st.floats(min_value=5e-324, max_value=1e-3), st.just(5e-324)),
}


def _function(kind: str, k: st.SearchStrategy) -> st.SearchStrategy:
    """Partials that build a function of the kind from its spec fields, and
    from k if the kind is scaled."""
    row = _KINDS[kind]
    args = [_FIELDS[name] for name in row.fields] + ([k] if row.scaled else [])
    return st.tuples(*args).map(lambda values: partial(row.make, *values))


def _any_function(k: st.SearchStrategy) -> st.SearchStrategy:
    return st.sampled_from(sorted(_KINDS)).flatmap(lambda kind: _function(kind, k))


@st.composite
def _families(draw) -> partial:
    """Partials that build a family: a phi and an alpha of any kinds, one
    k, validated or not."""
    k = draw(_POSITIVE)
    phi, alpha = draw(_any_function(st.just(k))), draw(_any_function(st.just(k)))
    return partial(lambda validated: EntropyFamily(phi(), alpha(), k, validated),
                   draw(st.booleans()))


def _built(make):
    """make(), or None where construction refuses its arguments."""
    try:
        return make()
    except QentropyError:
        return None


def _outcome(call):
    """The call's value, asserted finite, or the QentropyError it raised."""
    try:
        value = call()
    except QentropyError as exc:
        return exc
    assert np.isfinite(value).all(), value
    return value


def _qs_for(func) -> st.SearchStrategy:
    """q anywhere, or inside a table's knots, where its segments are."""
    if func.kind != "tabulated":
        return _Q
    return st.one_of(_Q, st.floats(min_value=func.table[0][0], max_value=func.table[-1][0]))


@SWEEP
@given(make=_any_function(_POSITIVE), data=st.data())
def test_every_kind_gives_a_finite_value_or_a_typed_error(make, data):
    func = _built(make)
    if func is None:
        return
    qs = data.draw(st.lists(_qs_for(func), min_size=1, max_size=6), label="qs")
    outcomes = [_outcome(partial(func, q)) for q in qs]
    values = _outcome(partial(func.values, qs))
    errors = [o for o in outcomes if isinstance(o, Exception)]
    if errors:
        # values raises as the float call at the first q it cannot evaluate.
        assert (type(values), str(values)) == (type(errors[0]), str(errors[0]))
    else:
        assert values.tolist() == outcomes


_P = st.one_of(st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0]),
               st.floats(min_value=5e-324, max_value=1.0))
_SURPRISE = st.one_of(st.sampled_from([0.0, -1.0, 1.0, 1e300, -1e300]),
                      st.floats(min_value=-_MAX, max_value=_MAX))


@SWEEP
@given(make=_families(), q=_Q, ps=st.lists(_P, min_size=1, max_size=4),
       i1=_SURPRISE, i2=_SURPRISE)
def test_information_and_composition(make, q, ps, i1, i2):
    f = _built(make)
    if f is None:
        return
    _outcome(partial(information_content, f, q, ps[0]))
    _outcome(partial(information_content, f, q, ps))
    _outcome(partial(pseudoadditive_compose, f, q, i1, i2))
    _outcome(partial(pseudoadditive_compose, f, q, np.array([i1, i2]), i2))


_ENTRY = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0))


@SWEEP
@given(make=_families(), q=_Q, entries=st.lists(_ENTRY, min_size=1, max_size=6))
def test_entropies_of_short_distributions(make, q, entries):
    f = _built(make)
    d = _built(partial(make_distribution, entries, "normalize"))
    if f is None or d is None:
        return
    for entropy in (generalized_entropy, trace_expectation):
        _outcome(lambda: entropy(d, f, q).value)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contracts") / "family.json"


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@SWEEP
@given(make=_families(), q=_Q, entries=st.lists(_ENTRY, min_size=1, max_size=6), p=_P,
       command=st.sampled_from(["eval", "info-content"]))
def test_cli_exits_0_2_or_3_with_one_line(spec_path, make, q, entries, p, command):
    f = _built(make)
    if f is None:
        return
    spec_path.write_text(json.dumps(f.to_spec()))
    argv = [command, "--family", str(spec_path), f"--q={q!r}"]
    argv += (["--dist", json.dumps(entries), "--mode", "normalize"] if command == "eval"
             else [f"--p={p!r}"])
    note(argv)
    rc, out, err = _run(argv)
    if rc == 0:
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        assert math.isfinite(float(out))
    else:
        assert (rc, out) in ((2, ""), (3, "")), (rc, out, err)
        prefix = "error: " if rc == 2 else "evaluation error: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
