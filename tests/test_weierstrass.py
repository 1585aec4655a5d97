import dataclasses
import math
import sys

import numpy as np
import pytest

from qentropy.errors import InputError, InvalidWeierstrassParams
from qentropy.weierstrass import (
    AB_LOWER_BOUND,
    MAX_TERMS,
    WeierstrassParams,
    difference_quotients,
    eval_phi_counterexample,
    eval_W,
    nondifferentiability_probe,
    quotient_spread,
)

P_DEFAULT = WeierstrassParams(0.5, 13, 1e-12)


def reference_W(params: WeierstrassParams, x: float) -> float:
    """W_K(x) from the exact rational x = num / den in Python integers, one
    math.cos per term and math.fsum: the library's bits, by another route."""
    num, den = x.as_integer_ratio()
    r = num % (2 * den)
    terms, ak = [], 1.0
    for _ in range(params.term_count):
        terms.append(ak * math.cos(math.pi * (r / den)))
        r = r * params.b % (2 * den)
        ak *= params.a
    return math.fsum(terms)


def _edge_points() -> list[float]:
    """Points on every reduction route: tiny |x| with a full mantissa and
    subnormals (Python integers), odd and even integers, |x| >= 2^53 and
    the ends of the period."""
    rng = np.random.default_rng(17)
    tiny = [math.ldexp(1.0 + m, -e) for m, e in
            zip(rng.random(300).tolist(), rng.integers(11, 1023, 300).tolist())]
    subnormal = [math.ldexp(m, -1074) for m in rng.integers(1, 2**52, 100).tolist()]
    integers = [float(n) for n in range(-64, 65)]
    large = [2.0**53, 2.0**53 + 2.0, 3.0 * 2.0**60, 1e300, sys.float_info.max]
    ends = [0.0, 2.0 - 2.0**-52, 2.0**-11, 2.0**-11 * (1.0 + 2.0**-52), 2.0**-12 * 1.5,
            5e-324, 2.0**-1022]
    points = tiny + subnormal + integers + large + ends
    return points + [-x for x in points]


class TestParams:
    def test_default_term_count(self):
        # 0.5^41 / 0.5 = 9.1e-13 <= 1e-12, one term fewer is not enough.
        assert P_DEFAULT.term_count == 41

    @pytest.mark.parametrize("a,b", [(0.5, 3), (0.3, 19), (0.9, 5)])
    def test_rejects_small_ab(self, a, b):
        assert a * b <= AB_LOWER_BOUND
        with pytest.raises(InvalidWeierstrassParams):
            WeierstrassParams(a, b)

    def test_rejects_even_b(self):
        with pytest.raises(InvalidWeierstrassParams):
            WeierstrassParams(0.5, 14)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_a_outside_unit_interval(self, a):
        with pytest.raises(InvalidWeierstrassParams):
            WeierstrassParams(a, 13)

    def test_rejects_bad_eps(self):
        with pytest.raises(InvalidWeierstrassParams):
            WeierstrassParams(0.5, 13, 0.0)

    @pytest.mark.parametrize("a,b,eps", [
        (1.0, 13, 1e-12), (math.nan, 13, 1e-12), (0.5, 13, -1.0),
        (0.5, 13, math.nan), (0.5, 13.0, 1e-12),
    ])
    def test_invalid_params_raise_before_derived_fields(self, a, b, eps):
        # a >= 1 or eps <= 0 would never end the term-count loop.
        with pytest.raises(InvalidWeierstrassParams):
            WeierstrassParams(a, b, eps)

    def test_refuses_a_series_past_the_term_bound(self):
        # a^K/(1-a) <= 1e-300 needs 697,335 terms at a = 0.999; the count is
        # computed in closed form and refused before a term is built.
        with pytest.raises(InvalidWeierstrassParams,
                           match=r"a=0\.999 with eps=1e-300 needs 697335 series terms, "
                                 r"more than 4096"):
            WeierstrassParams(0.999, 13, 1e-300)

    @pytest.mark.parametrize("a,eps,count", [(0.9, 1e-180, 3956), (0.5, 5e-324, 1075)])
    def test_term_counts_under_the_bound_are_built(self, a, eps, count):
        assert WeierstrassParams(a, 13, eps).term_count == count <= MAX_TERMS

    def test_derived_fields(self):
        assert P_DEFAULT.w0 == eval_W(P_DEFAULT, 0.0)
        assert abs(P_DEFAULT.w0 - 2.0) <= P_DEFAULT.eps

    def test_identity_ignores_derived_fields(self):
        same = WeierstrassParams(0.5, 13)
        assert same == P_DEFAULT and hash(same) == hash(P_DEFAULT)
        assert repr(P_DEFAULT) == "WeierstrassParams(a=0.5, b=13, eps=1e-12)"
        assert WeierstrassParams(0.5, 13, 1e-10) != P_DEFAULT
        with pytest.raises(TypeError):
            WeierstrassParams(0.5, 13, 1e-12, 41)

    def test_replace_recomputes_derived_fields(self):
        assert dataclasses.replace(P_DEFAULT) == P_DEFAULT
        other = dataclasses.replace(P_DEFAULT, b=15, eps=1e-6)
        assert other == WeierstrassParams(0.5, 15, 1e-6)
        # 0.5^21 / 0.5 = 9.5e-7 <= 1e-6 < 0.5^20 / 0.5.
        assert other.term_count == 21
        assert other.w0 == eval_W(other, 0.0)
        with pytest.raises(InvalidWeierstrassParams):
            dataclasses.replace(P_DEFAULT, a=1.0)


class TestEvalW:
    @pytest.mark.parametrize("a,b", [(0.3, 21), (0.5, 13), (0.7, 9)])
    def test_value_at_zero(self, a, b):
        p = WeierstrassParams(a, b, 1e-12)
        assert abs(eval_W(p, 0.0) - 1.0 / (1.0 - a)) <= p.eps

    def test_value_at_one(self):
        # b^k is odd for all k, so every cosine is cos(pi) = -1.
        assert abs(eval_W(P_DEFAULT, 1.0) + 2.0) <= P_DEFAULT.eps

    def test_bounded_on_grid(self):
        bound = 1.0 / (1.0 - P_DEFAULT.a) + P_DEFAULT.eps
        for x in np.linspace(-2.0, 2.0, 10_000):
            assert abs(eval_W(P_DEFAULT, float(x))) <= bound

    def test_periodicity_period_two(self):
        # Dyadic x keeps x + 2 exactly representable, so the exact mod-2
        # argument reduction makes both evaluations identical.
        for x in np.arange(-2.0, 2.0, 0.125):
            x = float(x)
            assert abs(eval_W(P_DEFAULT, x + 2.0) - eval_W(P_DEFAULT, x)) <= 2 * P_DEFAULT.eps

    def test_even_function(self):
        # Equal up to per-term cosine rounding; the reduced angles differ
        # (t versus 2 - t) even though the cosines agree mathematically.
        for x in (0.125, 0.375, 1.5):
            assert abs(eval_W(P_DEFAULT, -x) - eval_W(P_DEFAULT, x)) <= 1e-13

    def test_truncation_self_consistency(self):
        fine = WeierstrassParams(0.5, 13, 1e-14)
        for x in (0.0, 0.3, 0.7, 1.9, -0.11):
            assert abs(eval_W(P_DEFAULT, x) - eval_W(fine, x)) <= P_DEFAULT.eps

    def test_rejects_nonfinite_x(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(InputError, match=f"x must be finite, got {x!r}"):
                eval_W(P_DEFAULT, x)
            # The array call names the first non-finite point.
            with pytest.raises(InputError, match=f"x must be finite, got {x!r}"):
                eval_W(P_DEFAULT, [0.5, x, math.inf])


class TestEvalWArray:
    """eval_W on an array reduces in uint64 where it can, and a float call is
    its one-element case; both must give reference_W's bits on every target."""

    @pytest.mark.parametrize("name", ["cli_grid", "random", "edges"])
    def test_bitwise_equal_to_reference(self, name):
        if name == "cli_grid":
            xs = [-2.0 + i * 0.001 for i in range(4001)]
        elif name == "random":
            xs = np.random.default_rng(5).uniform(-2.0, 2.0, 16_000).tolist()
        else:
            xs = _edge_points()
        want = np.array([reference_W(P_DEFAULT, x) for x in xs])
        assert eval_W(P_DEFAULT, xs).tobytes() == want.tobytes()
        scalar = np.array([eval_W(P_DEFAULT, x) for x in xs[::37]])
        assert scalar.tobytes() == want[::37].tobytes()

    @pytest.mark.parametrize("a,b", [(0.3, 21), (0.7, 9), (0.9, 255)])
    def test_other_params(self, a, b):
        params = WeierstrassParams(a, b, 1e-13)
        xs = np.random.default_rng(b).uniform(-3.0, 3.0, 500).tolist() + _edge_points()[:200]
        want = np.array([reference_W(params, x) for x in xs])
        assert eval_W(params, xs).tobytes() == want.tobytes()

    def test_empty_and_blocks(self):
        assert eval_W(P_DEFAULT, []).shape == (0,)
        # A range longer than one block equals its points evaluated one by one.
        xs = np.linspace(-1.0, 1.0, 1001)
        assert eval_W(P_DEFAULT, xs).tolist() == [eval_W(P_DEFAULT, x) for x in xs.tolist()]

    def test_float_gives_float_and_array_its_shape(self):
        grid = np.array([[0.25, -0.5], [1.0, 1.75]])
        phi = lambda params, q: eval_phi_counterexample(params, 2.0, q)  # noqa: E731
        for call, x in ((eval_W, grid), (phi, grid + 1.0)):
            got = call(P_DEFAULT, x)
            assert got.shape == (2, 2)
            assert got.ravel().tolist() == [call(P_DEFAULT, v) for v in x.ravel().tolist()]
            assert type(call(P_DEFAULT, 0.25)) is float
            assert type(call(P_DEFAULT, np.float64(1.25))) is float

    def test_phi_array_is_the_float_calls(self):
        qs = np.random.default_rng(3).uniform(0.05, 4.0, 300).tolist() + [1.0, 1.0 + 1e-15]
        for k in (1.0, 2.5):
            got = eval_phi_counterexample(P_DEFAULT, k, qs)
            assert got.tolist() == [eval_phi_counterexample(P_DEFAULT, k, q) for q in qs]

    @pytest.mark.parametrize("k,message", [
        (math.nan, "k must be positive, got nan"),
        (math.inf, "k must be finite, got inf"),
        (0.0, "k must be positive, got 0.0"),
        (-1.0, "k must be positive, got -1.0"),
    ])
    def test_phi_refuses_a_k_that_is_not_positive_and_finite(self, k, message):
        """NaN and inf are refused like a k <= 0, not evaluated to NaN or 0."""
        for call in (lambda: eval_phi_counterexample(P_DEFAULT, k, [1.5]),
                     lambda: eval_phi_counterexample(P_DEFAULT, k, 1.5)):
            with pytest.raises(InputError, match=message):
                call()


class TestPhiCounterexample:
    def test_zero_at_one_exactly(self):
        for k in (1.0, 2.0, 7.5):
            assert eval_phi_counterexample(P_DEFAULT, k, 1.0) == 0.0

    def test_hand_value_at_two(self):
        # W(1) = -W(0) makes the bracket (W(1) + 2 W(0)) / (3 W(0)) = 1/3.
        assert abs(eval_phi_counterexample(P_DEFAULT, 1.0, 2.0) - 1.0 / 3.0) <= 1e-12

    def test_bracket_positive_hence_sign_of_q_minus_1(self):
        for q in np.linspace(0.05, 4.0, 200):
            q = float(q)
            phi_q = eval_phi_counterexample(P_DEFAULT, 1.0, q)
            if q == 1.0:
                continue
            assert math.copysign(1.0, phi_q) == math.copysign(1.0, q - 1.0)

    def test_quotient_converges_to_one_over_k(self):
        # The quotient phi(1+h)/h equals (W(h) + 2 W(0)) / (3 k W(0)) and
        # approaches 1/k at the Hoelder rate h^(ln 2 / ln 13) under an
        # oscillating envelope.  Measured deviations: 3.8e-2 at h=1e-3,
        # 2.3e-3 at h=1e-8, 3.2e-5 at h=1e-15 (the deepest clean offset).
        for k in (1.0, 2.0):
            devs = []
            for j in (3, 8, 15):
                q = 1.0 + 10.0 ** (-j)
                h = q - 1.0
                devs.append(abs(
                    eval_phi_counterexample(P_DEFAULT, k, q) / h - 1.0 / k
                ) * k)
            assert devs[0] < 0.05
            assert devs[1] < 5e-3
            assert devs[2] <= 1e-4
            assert devs[2] < devs[1] < devs[0]


class TestProbe:
    def test_spread_at_zero_is_large(self):
        # Oracle (deterministic): spread ~ 1.29e7 at depth 8; the quotients
        # grow roughly like (a b)^m with no sign of settling.
        result = nondifferentiability_probe(P_DEFAULT, 0.0, 8)
        assert len(result.quotients) == 8
        assert result.spread > 1.0
        assert result.spread > 1e6

    def test_smooth_control_spread_shrinks(self):
        pairs = difference_quotients(lambda t: t * t, 0.0, 13, 8)
        assert quotient_spread(pairs) <= 2.0 * 13.0 ** -4

    def test_generic_point_not_monotone(self):
        result = nondifferentiability_probe(P_DEFAULT, 0.37, 8)
        quots = [d for _, d in result.quotients]
        assert result.spread > 1.0
        assert not all(abs(b) <= abs(a) for a, b in zip(quots, quots[1:]))

    def test_depth_validation(self):
        with pytest.raises(InputError):
            nondifferentiability_probe(P_DEFAULT, 0.0, 1)

    # Each was a bare ValueError, or, for base <= 1, steps that do not
    # shrink (1, 1, 1 or 2, 4, 8) returned as derivative estimates.
    @pytest.mark.parametrize("call,message", [
        (lambda: eval_W(P_DEFAULT, "a"), "x must be a number or an array of numbers, got 'a'"),
        (lambda: eval_W(P_DEFAULT, [0.5, "a"]),
         "x must be a number or an array of numbers, got [0.5, 'a']"),
        (lambda: quotient_spread([]), "quotient_spread needs at least 2 pairs, got 0"),
        (lambda: quotient_spread([(0.1, 1.0)]), "quotient_spread needs at least 2 pairs, got 1"),
        (lambda: difference_quotients(abs, 0.0, 1, 3), "base must be finite and > 1, got 1"),
        (lambda: difference_quotients(abs, 0.0, 0.5, 3), "base must be finite and > 1, got 0.5"),
        (lambda: difference_quotients(abs, 0.0, math.nan, 3),
         "base must be finite and > 1, got nan"),
        (lambda: difference_quotients(abs, 0.0, math.inf, 3),
         "base must be finite and > 1, got inf"),
        (lambda: difference_quotients(abs, 0.0, 13, 0), "depth must be >= 1"),
        (lambda: eval_phi_counterexample(P_DEFAULT, 1e-320, 1.5),
         "k must have a finite reciprocal, got 1e-320"),
        (lambda: eval_phi_counterexample(P_DEFAULT, 1.0, "a"),
         "q must be a number or an array of numbers, got 'a'"),
        (lambda: eval_phi_counterexample(P_DEFAULT, 1.0, [1.5, "a"]),
         "q must be a number or an array of numbers, got [1.5, 'a']"),
        # A numeric string was read as its number: W("0.25") gave 0.4714.
        (lambda: eval_W(P_DEFAULT, "0.25"),
         "x must be a number or an array of numbers, got '0.25'"),
        (lambda: eval_W(P_DEFAULT, [0.5, b"0.25"]),
         "x must be a number or an array of numbers, got [0.5, b'0.25']"),
        (lambda: eval_phi_counterexample(P_DEFAULT, 1.0, "1.5"),
         "q must be a number or an array of numbers, got '1.5'"),
    ])
    def test_refusals_are_input_errors(self, call, message):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message

    def test_vanishing_step_names_deepest_depth(self):
        # 1.0 + 13^-15 == 1.0: the step at depth 15 vanishes next to 1.
        assert 1.0 + 13.0 ** -15 == 1.0
        assert len(difference_quotients(lambda t: t, 1.0, 13, 14)) == 14
        with pytest.raises(InputError, match="deepest usable depth is 14"):
            difference_quotients(lambda t: t, 1.0, 13, 15)
