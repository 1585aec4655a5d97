import math
from fractions import Fraction

import pytest

from qentropy.deformation import (
    EntropyFamily,
    one_minus_q_alpha,
    power_family,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
)
from qentropy.entropy import (
    entropies,
    generalized_entropy,
    information_content,
    pseudoadditive_compose,
    shannon_entropy,
    suyari_entropy,
    trace_expectation,
)
from qentropy.errors import (
    DomainError,
    EvaluationError,
    InputError,
    NegativeEntropy,
    PhiVanishes,
    ZeroWithNonpositiveExponent,
)
from qentropy.simplex import Distribution, make_distribution, sample_simplex

TSALLIS = tsallis_family(1.0)
Q_GRID = (0.5, 0.9, 1.0, 1.1, 2.0, 3.0)


class TestShannon:
    def test_certainty(self):
        assert shannon_entropy(Distribution((1.0,))).value == 0.0

    def test_fair_coin(self):
        assert shannon_entropy(Distribution((0.5, 0.5))).value == pytest.approx(
            math.log(2), rel=1e-15
        )

    def test_uniform_four(self):
        d = Distribution((0.25,) * 4)
        assert shannon_entropy(d).value == pytest.approx(math.log(4), rel=1e-15)

    def test_k_scales_linearly(self):
        d = Distribution((0.5, 0.5))
        assert shannon_entropy(d, k=3.0).value == pytest.approx(
            3.0 * math.log(2), rel=1e-15
        )

    def test_zero_probability_drops_out(self):
        assert shannon_entropy(Distribution((0.5, 0.5, 0.0))).value == pytest.approx(
            math.log(2), rel=1e-15
        )


class TestSuyari:
    def test_hand_value_q2_coin(self):
        d = Distribution((0.5, 0.5))
        assert abs(suyari_entropy(d, TSALLIS, 2.0).value - 0.5) <= 1e-15

    def test_hand_value_q2_three_outcomes(self):
        d = Distribution((0.5, 0.25, 0.25))
        assert abs(suyari_entropy(d, TSALLIS, 2.0).value - 0.625) <= 1e-15

    def test_certainty_is_zero_for_all_q(self):
        d = Distribution((1.0,))
        for q in Q_GRID:
            assert suyari_entropy(d, TSALLIS, q).value == 0.0

    def test_phi_vanishes_off_one(self):
        f = EntropyFamily(
            tabulated([(0.5, -0.5), (1.0, 0.0), (2.0, 1.0), (4.0, -1.0)]),
            one_minus_q_alpha(),
            1.0,
            validated=False,
        )
        with pytest.raises(PhiVanishes):
            suyari_entropy(Distribution((0.5, 0.5)), f, 3.0)

    def test_subnormal_phi_vanishes(self):
        # phi = 1e-10 / 1e300 is subnormal: the quotient would lose precision.
        f = tsallis_family(1e300)
        with pytest.raises(PhiVanishes, match="subnormal"):
            suyari_entropy(Distribution((0.5, 0.5)), f, 1.0 + 1e-10)


class TestGeneralized:
    def test_reduces_to_suyari_bitwise(self):
        dists = [Distribution(p) for p in
                 [(0.5, 0.5), (0.5, 0.25, 0.25), (0.9, 0.1), (0.2,) * 5]]
        dists += sample_simplex(2, 100, seed=21)
        dists += sample_simplex(3, 100, seed=22)
        dists += sample_simplex(5, 100, seed=23)
        for d in dists:
            for q in Q_GRID:
                assert (
                    generalized_entropy(d, TSALLIS, q).value
                    == suyari_entropy(d, TSALLIS, q).value
                )

    def test_hand_value_q_half(self):
        d = Distribution((0.5, 0.5))
        expect = (1.0 - math.sqrt(2.0)) / (-0.5)
        assert generalized_entropy(d, TSALLIS, 0.5).value == pytest.approx(
            expect, rel=1e-14
        )

    def test_certainty(self):
        for q in Q_GRID:
            assert generalized_entropy(Distribution((1.0,)), TSALLIS, q).value == 0.0

    def test_zero_prob_allowed_for_positive_exponent(self):
        d = Distribution((0.5, 0.5, 0.0))
        assert generalized_entropy(d, TSALLIS, 2.0).value == pytest.approx(0.5)

    def test_zero_prob_with_nonpositive_exponent_raises(self):
        f = EntropyFamily(
            tsallis_phi(1.0), tabulated([(0.1, 1.5), (4.0, 1.5)]), 1.0,
            validated=False,
        )
        with pytest.raises(ZeroWithNonpositiveExponent):
            generalized_entropy(Distribution((0.5, 0.5, 0.0)), f, 2.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            generalized_entropy(Distribution((0.5, 0.5)), TSALLIS, 0.0)

    def test_negative_entropy_raises_for_validated_family(self):
        # phi(1) = 0 so the family passes construction, but the sign is
        # wrong for q > 1 and the entropy comes out negative.
        f = EntropyFamily(
            tabulated([(0.5, 0.5), (1.0, 0.0), (2.0, -1.0)]),
            one_minus_q_alpha(),
            1.0,
        )
        with pytest.raises(NegativeEntropy):
            generalized_entropy(Distribution((0.5, 0.5)), f, 2.0)

    def test_negative_allowed_when_unvalidated(self):
        f = EntropyFamily(
            tsallis_phi(1.0), tabulated([(0.01, 0.5), (10.0, 0.5)]), 1.0,
            validated=False,
        )
        value = generalized_entropy(Distribution((0.5, 0.5)), f, 2.0).value
        assert value == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-14)

    def test_crossover_returns_shannon_limit(self):
        # Only q == 1.0 returns the Shannon value; next to it the quotient
        # holds the true S_q, checked against a 30-digit reference.
        d = Distribution((0.5, 0.25, 0.25))
        assert generalized_entropy(d, TSALLIS, 1.0).value == shannon_entropy(d).value
        mpmath = pytest.importorskip("mpmath")
        for q in (1.0 + 1e-10, 1.0 - 1e-10):
            with mpmath.workdps(30):
                h = mpmath.mpf(q - 1.0)
                ref = -mpmath.fsum(
                    p * mpmath.expm1(h * mpmath.log(p)) for p in d.probs) / h
                value = generalized_entropy(d, TSALLIS, q).value
                assert abs(value - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("entropy", [generalized_entropy, suyari_entropy])
    def test_overflowing_expm1_with_finite_term(self, entropy):
        # expm1(-0.99 ln 5e-324) overflows, yet p^q - p is finite.
        d = make_distribution([1.0, 5e-324], "normalize")
        value = entropy(d, TSALLIS, 0.01).value
        trace = trace_expectation(d, TSALLIS, 0.01).value
        assert value == pytest.approx(5e-324**0.01 / 0.99, rel=1e-14, abs=0.0)
        assert value == pytest.approx(trace, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("family", [TSALLIS, tsallis_family(2.0),
                                        power_family(2.0), weierstrass_family()])
    def test_nonnegative_on_random_points(self, family):
        for n, seed in ((2, 31), (3, 32), (5, 33)):
            for d in sample_simplex(n, 50, seed):
                for q in Q_GRID:
                    assert generalized_entropy(d, family, q).value >= 0.0


def test_entropies_rejects_unknown_form():
    with pytest.raises(InputError, match="unknown form 'tsallis'"):
        entropies(Distribution((0.5, 0.5)).array[None], TSALLIS, 2.0, "tsallis")


class TestShannonLimit:
    def test_gap_shrinks_linearly_for_tsallis(self):
        # Gap ~ h * sum p ln^2 p / 2; measure the constant at j=3 and allow
        # 30 percent slack at the deeper scales.
        d = Distribution((0.5, 0.25, 0.25))
        s1 = shannon_entropy(d).value
        gap3 = abs(generalized_entropy(d, TSALLIS, 1.0 + 1e-3).value - s1)
        c = gap3 / 1e-3
        for j in (4, 5, 6):
            h = 10.0 ** (-j)
            gap = abs(generalized_entropy(d, TSALLIS, 1.0 + h).value - s1)
            assert gap <= 1.3 * c * h
            gap = abs(generalized_entropy(d, TSALLIS, 1.0 - h).value - s1)
            assert gap <= 1.3 * c * h


class TestInformationContent:
    def test_certain_outcome_carries_no_information(self):
        for q in Q_GRID:
            assert information_content(TSALLIS, q, 1.0) == 0.0

    def test_hand_value_q2(self):
        # (0.5^-1 - 1) / 1
        assert information_content(TSALLIS, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_shannon_point(self):
        assert information_content(TSALLIS, 1.0, math.exp(-1.0)) == pytest.approx(
            1.0, rel=1e-15
        )

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            information_content(TSALLIS, 2.0, p)

    @pytest.mark.parametrize("family,q,p", [
        # p^alpha(q) = 0.1^-799 is beyond the float range.
        (TSALLIS, 800.0, 0.1),
        (TSALLIS, 1e308, 0.5),
        # p^alpha(q) - 1 = 2^799 is finite; dividing by phi = 799e-300 is not.
        (tsallis_family(1e300), 800.0, 0.5),
    ])
    def test_overflow_is_evaluation_error(self, family, q, p):
        with pytest.raises(EvaluationError) as info:
            information_content(family, q, p)
        assert f"q={q!r}" in str(info.value) and f"p={p!r}" in str(info.value)

    def test_overflowing_numerator_with_finite_quotient(self):
        # p^alpha = 2^1074 overflows expm1, but phi = 1e300 brings the
        # quotient (2^1074 - 1) / phi back to about 2e23.
        family = tsallis_family(1e-300)
        exact = (Fraction(2) ** 1074 - 1) / Fraction(family.phi(2.0))
        value = information_content(family, 2.0, 5e-324)
        assert value == pytest.approx(float(exact), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("entropy", [generalized_entropy, trace_expectation])
def test_overflowing_term_is_evaluation_error(entropy):
    # alpha = 2 makes the term p^(1 - alpha) = 1/p overflow for p = 1e-310.
    family = EntropyFamily(tsallis_phi(1.0), tabulated([(0.01, 2.0), (10.0, 2.0)]), 1.0,
                           validated=False)
    d = make_distribution([1.0, 1e-310], "normalize")
    with pytest.raises(EvaluationError, match=r"p\^-1\.0 of S_q at q=2\.0 overflows"):
        entropy(d, family, 2.0)


@pytest.mark.parametrize("call", [
    lambda q: generalized_entropy(Distribution((0.5, 0.5)), TSALLIS, q),
    lambda q: suyari_entropy(Distribution((0.5, 0.5)), TSALLIS, q),
    lambda q: trace_expectation(Distribution((0.5, 0.5)), TSALLIS, q),
    lambda q: information_content(TSALLIS, q, 0.5),
    lambda q: pseudoadditive_compose(TSALLIS, q, 1.0, 1.0),
])
def test_infinite_q_is_domain_error(call):
    with pytest.raises(DomainError, match="finite"):
        call(math.inf)


class TestPseudoadditiveCompose:
    def test_zero_is_identity(self):
        for x in (0.0, 1.0, -2.5, 17.0):
            assert pseudoadditive_compose(TSALLIS, 2.0, 0.0, x) == x

    def test_hand_value_q2(self):
        # I(0.5) = 1 composes with itself to I(0.25) = 3.
        assert pseudoadditive_compose(TSALLIS, 2.0, 1.0, 1.0) == 3.0
        assert information_content(TSALLIS, 2.0, 0.25) == pytest.approx(3.0, rel=1e-15)

    def test_overflow_is_evaluation_error(self):
        with pytest.raises(EvaluationError, match="q=2.0"):
            pseudoadditive_compose(TSALLIS, 2.0, 1e200, 1e200)

    def test_plain_additivity_at_q1(self):
        assert pseudoadditive_compose(TSALLIS, 1.0, 2.0, 3.0) == 5.0

    def test_closure_property(self):
        # I(p1 p2) must equal the composition for random pairs in (0, 1].
        import numpy as np
        rng = np.random.default_rng(7)
        pairs = 1.0 - rng.random((1000, 2))
        for q in Q_GRID:
            for p1, p2 in pairs:
                p1, p2 = float(p1), float(p2)
                joint = information_content(TSALLIS, q, p1 * p2)
                composed = pseudoadditive_compose(
                    TSALLIS, q,
                    information_content(TSALLIS, q, p1),
                    information_content(TSALLIS, q, p2),
                )
                assert abs(joint - composed) <= 1e-10 * (1.0 + abs(joint))


class TestTraceExpectation:
    def test_certainty(self):
        for q in Q_GRID:
            assert trace_expectation(Distribution((1.0,)), TSALLIS, q).value == 0.0

    def test_hand_values_match_generalized(self):
        d = Distribution((0.5, 0.5))
        assert trace_expectation(d, TSALLIS, 2.0).value == pytest.approx(0.5, abs=1e-15)
        d3 = Distribution((0.5, 0.25, 0.25))
        assert trace_expectation(d3, TSALLIS, 2.0).value == pytest.approx(0.625, abs=1e-15)

    @pytest.mark.parametrize("family", [TSALLIS, tsallis_family(2.0),
                                        power_family(2.0), weierstrass_family()])
    def test_identity_with_generalized(self, family):
        dists = [Distribution(p) for p in [(0.5, 0.5), (0.5, 0.25, 0.25)]]
        dists += sample_simplex(3, 50, seed=41)
        dists += sample_simplex(5, 50, seed=42)
        for d in dists:
            for q in Q_GRID:
                assert abs(
                    trace_expectation(d, family, q).value
                    - generalized_entropy(d, family, q).value
                ) <= 1e-12

    def test_zero_prob_terms_contribute_nothing(self):
        d = Distribution((0.5, 0.5, 0.0))
        assert trace_expectation(d, TSALLIS, 2.0).value == pytest.approx(0.5, abs=1e-15)

    def test_tiny_weight_with_huge_information(self):
        # p^2 = 1e-600 underflows while I_2(p) = 1e300 - 1; S_2 = 1e-300.
        d = Distribution((1.0, 1e-300))
        value = trace_expectation(d, TSALLIS, 2.0).value
        assert value == pytest.approx(1e-300, rel=1e-14, abs=0.0)

    def test_identity_through_crossover_window(self):
        d = Distribution((0.5, 0.25, 0.25))
        for q in (1.0, 1.0 + 5e-10, 1.0 - 5e-10):
            assert (
                trace_expectation(d, TSALLIS, q).value
                == generalized_entropy(d, TSALLIS, q).value
            )
