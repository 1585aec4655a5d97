import json
import math
import re
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from test_weierstrass import reference_W

from qentropy.deformation import (
    _KINDS,
    DeformationFunction,
    EntropyFamily,
    family_from_spec,
    negated_phi,
    one_minus_q_alpha,
    power_alpha,
    power_family,
    power_phi,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
    weierstrass_phi,
)
from qentropy.errors import (
    DomainError,
    EvaluationError,
    InputError,
    InvalidFamilySpec,
    InvalidWeierstrassParams,
    NonPositiveK,
    OutOfTableRange,
)
from qentropy.weierstrass import WeierstrassParams


class TestKinds:
    def test_tsallis_phi_values(self):
        phi = tsallis_phi(1.0)
        assert phi(2.0) == 1.0
        assert phi(1.0) == 0.0

    def test_negated_phi(self):
        assert negated_phi()(2.0) == -1.0

    def test_one_minus_q_alpha(self):
        alpha = one_minus_q_alpha()
        assert alpha(2.0) == -1.0
        assert alpha(1.0) == 0.0

    def test_power_alpha_hand_value(self):
        # (1 - 0.5) * |0.5 - 1|^(2-1) = 0.5 * 0.5
        assert power_alpha(2.0)(0.5) == 0.25

    def test_power_alpha_defined_at_one_for_small_gamma(self):
        assert power_alpha(0.5)(1.0) == 0.0

    def test_power_phi_is_sign_correct(self):
        phi = power_phi(2.0, k=1.0)
        assert phi(2.0) == 1.0
        assert phi(0.5) == -0.25
        assert phi(1.0) == 0.0

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            tsallis_phi(1.0)(0.0)

    @pytest.mark.parametrize("func", [
        tsallis_phi(2.0), negated_phi(), one_minus_q_alpha(), power_alpha(0.5),
        power_phi(0.5, k=2.0), weierstrass_phi(WeierstrassParams(0.5, 13), k=2.0),
        tabulated([(0.25, -1.0), (1.0, 0.0), (4.0, 2.5)]),
    ], ids=lambda func: func.kind)
    def test_every_kind_rejects_bad_q(self, func):
        for q, message in ((0.0, "positive"), (-1.0, "positive"),
                           (math.nan, "positive"), (math.inf, "finite")):
            with pytest.raises(DomainError, match=f"q must be {message}, got {q!r}"):
                func(q)
            # An array call names its first q that is not positive and finite.
            with pytest.raises(DomainError, match=f"q must be {message}, got {q!r}"):
                func.values([1.0, q, -2.0])

    @pytest.mark.parametrize("func", [tsallis_phi(1.0), one_minus_q_alpha(),
                                      weierstrass_phi(WeierstrassParams(0.5, 13), k=2.0)],
                             ids=lambda func: func.kind)
    def test_a_q_that_is_no_number_is_an_input_error(self, func):
        # Each was numpy's ValueError or a TypeError from the comparison with 0.
        with pytest.raises(InputError) as err:
            func("a")
        assert str(err.value) == "q must be a number, got 'a'"
        for qs in (["a"], [1.5, None, "a"], ["1.5"], [Fraction(3, 2), "1.5"], [b"1.5"],
                   np.array(["1.5"]), [1.5j], [None]):
            with pytest.raises(InputError) as err:
                func.values(qs)
            assert str(err.value) == f"q must be a number or an array of numbers, got {qs!r}"

    @pytest.mark.parametrize("func", [tsallis_phi(1.0), power_phi(3.0),
                                      weierstrass_phi(WeierstrassParams(0.5, 13))],
                             ids=lambda func: func.kind)
    def test_numeric_strings_are_refused_and_real_numbers_taken(self, func):
        # values(["1.5"]) read the string as a number; the float call refused it.
        for q in ("1.5", b"1.5"):
            with pytest.raises(InputError, match="^q must be a number"):
                func(q)
            with pytest.raises(InputError, match="^q must be a number or an array"):
                func.values([q])
        reals = [Fraction(3, 2), Decimal("1.5"), np.float32(1.5), np.int64(3), 3]
        expected = [func(float(q)) for q in reals]
        assert [func(q) for q in reals] == expected
        assert func.values(reals).tolist() == expected

    # Every way of building a deformation checks gamma, NaN and inf too, and
    # the parameters its kind needs.
    @pytest.mark.parametrize("build,message", [
        (lambda: power_alpha(0.0), "gamma must be positive, got 0.0"),
        (lambda: DeformationFunction("power_alpha", gamma=-1.0),
         "gamma must be positive, got -1.0"),
        (lambda: power_alpha(math.nan), "gamma must be positive, got nan"),
        (lambda: power_phi(math.nan), "gamma must be positive, got nan"),
        (lambda: power_phi(math.inf), "gamma must be finite, got inf"),
        (lambda: family_from_spec(json.loads(
            '{"phi": {"kind": "power_phi", "gamma": Infinity},'
            ' "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}')),
         "field 'phi': 'gamma' must be a positive number, got inf"),
        (lambda: DeformationFunction("weierstrass_phi"), "weierstrass_phi needs params"),
        (lambda: DeformationFunction("tabulated"), "needs at least 2 points"),
    ])
    def test_rejects_bad_gamma(self, build, message):
        with pytest.raises(InvalidFamilySpec, match=message):
            build()

    def test_weierstrass_phi_vanishes_at_one(self):
        phi = weierstrass_phi(WeierstrassParams(0.5, 13), k=1.0)
        assert phi(1.0) == 0.0


# The float formula of each kind, as the kinds computed it one q at a time
# with Python floats: the reference for their array evaluators.
def _reference_interpolate(f, q):
    i = bisect_right(f.table, q, key=itemgetter(0))
    if i == len(f.table):
        return f.table[-1][1]
    (q0, v0), (q1, v1) = f.table[i - 1], f.table[i]
    return v0 + (v1 - v0) * (q - q0) / (q1 - q0)


REFERENCE = {
    "tsallis_phi": lambda f, q: (q - 1.0) / f.k,
    "negated_phi": lambda f, q: -(q - 1.0),
    "one_minus_q_alpha": lambda f, q: -(q - 1.0),
    "power_alpha": lambda f, q: -math.copysign(abs(q - 1.0) ** f.gamma, q - 1.0),
    "power_phi": lambda f, q: math.copysign(abs(q - 1.0) ** f.gamma, q - 1.0) / f.k,
    "weierstrass_phi": lambda f, q: ((q - 1.0) / f.k) * (
        (reference_W(f.wparams, q - 1.0) + 2.0 * f.wparams.w0) / (3.0 * f.wparams.w0)),
    "tabulated": _reference_interpolate,
}
ARRAY_CASES = [
    tsallis_phi(3.0), negated_phi(), one_minus_q_alpha(),
    # numpy's SIMD power differs from libm pow in the last bit at these gammas.
    *(power_alpha(g) for g in (0.25, 0.5, 1.7, 2.0, 3.0)),
    *(power_phi(g, k=2.0) for g in (0.25, 0.5, 1.7, 2.0, 3.0)),
    weierstrass_phi(WeierstrassParams(0.5, 13), k=2.0),
    tabulated([(0.01, -1.0), (0.5, -0.25), (1.0, 0.0), (2.0, 1.0), (3.0, -1.0), (8.0, 5.5)]),
]


class TestArrayEvaluators:
    def test_cases_cover_every_kind(self):
        assert {f.kind for f in ARRAY_CASES} == set(_KINDS) == set(REFERENCE)

    @pytest.mark.parametrize("func", ARRAY_CASES, ids=lambda f: f"{f.kind}-{f.gamma}")
    def test_values_are_the_float_calls_bitwise(self, func):
        rng = np.random.default_rng(11)
        qs = rng.uniform(0.01, 8.0, 4000).tolist() + rng.uniform(0.99, 1.01, 500).tolist()
        qs += [1.0, 1.0 + 1e-15, 1.0 - 1e-15, 0.01, 8.0, 0.5, 3.0, 2.0 - 2.0**-52]
        if func.kind == "weierstrass_phi":
            qs = qs[::4]  # the reference is slow
        want = np.array([REFERENCE[func.kind](func, q) for q in qs])
        assert func.values(qs).tobytes() == want.tobytes()
        floats = [func(q) for q in qs[::7]]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == want[::7].tobytes()

    def test_tabulated_knots_ends_and_outside(self):
        f = tabulated([(0.25, -1.0), (1.0, 0.0), (4.0, 2.5)])
        assert f.values([0.25, 1.0, 4.0, 0.625, 2.5]).tolist() == [-1.0, 0.0, 2.5, -0.5, 1.25]
        for qs, first in (([1.0, 4.5, 0.1], "4.5"), ([1.0, 0.1, 4.5], "0.1")):
            with pytest.raises(OutOfTableRange,
                               match=rf"^q={first} outside tabulated range \[0.25, 4.0\]$"):
                f.values(qs)

    def test_power_overflow_raises_as_the_float_call(self):
        f = power_phi(3.0)
        message = r"^power_phi\(1e\+200\) = inf is not finite$"
        with pytest.raises(EvaluationError, match=message):
            f(1e200)
        with pytest.raises(EvaluationError, match=message):
            f.values([2.0, 1e200, 1e300])


class TestTabulated:
    def test_interpolates_linearly(self):
        f = tabulated([(0.5, 0.0), (1.5, 1.0)])
        assert f(1.0) == pytest.approx(0.5, abs=1e-15)
        assert f(0.5) == 0.0
        assert f(1.5) == 1.0

    def test_refuses_extrapolation(self):
        f = tabulated([(0.5, 0.0), (1.5, 1.0)])
        with pytest.raises(OutOfTableRange):
            f(2.0)
        with pytest.raises(OutOfTableRange):
            f(0.25)

    def test_needs_two_points(self):
        with pytest.raises(InvalidFamilySpec):
            tabulated([(1.0, 0.0)])

    def test_needs_increasing_grid(self):
        with pytest.raises(InvalidFamilySpec):
            tabulated([(1.0, 0.0), (1.0, 1.0)])

    # A NaN or infinite knot would evaluate to nan, or to 0 through an
    # infinite phi, without an error.
    @pytest.mark.parametrize("build,point", [
        (lambda: tabulated([(0.01, math.nan), (1.0, 0.0), (10.0, 1.0)]), "(0.01, nan)"),
        (lambda: tabulated([(0.01, -1.0), (1.0, 0.0), (math.inf, 1.0)]), "(inf, 1.0)"),
        (lambda: DeformationFunction("tabulated", table=((math.nan, -1.0), (1.0, 0.0))),
         "(nan, -1.0)"),
        (lambda: family_from_spec(json.loads(
            '{"phi": {"kind": "tabulated", "points": [[0.01, NaN], [1.0, 0.0], [10.0, 1.0]]},'
            ' "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0, "validate": false}')),
         "(0.01, nan)"),
        (lambda: family_from_spec(json.loads(
            '{"phi": {"kind": "tabulated",'
            ' "points": [[0.01, -1.0], [1.0, 0.0], [10.0, Infinity]]},'
            ' "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0, "validate": false}')),
         "(10.0, inf)"),
    ])
    def test_refuses_nonfinite_points(self, build, point):
        with pytest.raises(InvalidFamilySpec,
                           match=re.escape(f"tabulated points must be finite, got {point}")):
            build()

    # (v1 - v0) * (q - q0) overflowed: q = 5 read inf, where the true value is
    # 4.99e307, and an infinite alpha(1.2) made I_q(0.5) read -5.0.
    @pytest.mark.parametrize("points,segment", [
        ([(0.01, 0.0), (10.0, 1e308)], "(0.01, 0.0) to (10.0, 1e+308)"),
        ([(0.5, -1e308), (2.0, 1e308)], "(0.5, -1e+308) to (2.0, 1e+308)"),
        ([(0.5, 0.0), (1.0, 0.0), (3.0, 1e308), (4.0, 0.0)], "(1.0, 0.0) to (3.0, 1e+308)"),
    ])
    def test_refuses_segments_that_overflow(self, points, segment):
        with pytest.raises(InvalidFamilySpec, match=re.escape(
                f"tabulated segment from {segment} overflows the float range")):
            tabulated(points)

    def test_steep_segments_within_the_float_range(self):
        # The product bounds every intermediate, so a table just inside it
        # interpolates to a finite value at every q.
        f = tabulated([(0.5, 0.0), (1.0, 1e308), (1.25, -0.7e308), (1.5, 0.0)])
        qs = np.linspace(0.5, 1.5, 101)
        assert np.isfinite(f.values(qs)).all()
        assert f(0.75) == 5e307


class TestTsallisFamily:
    def test_definitional_values(self):
        f = tsallis_family(1.0)
        assert f.phi(2.0) == 1.0
        assert f.alpha(2.0) == -1.0

    def test_k_scaling(self):
        assert tsallis_family(2.0).phi(2.0) == 0.5

    # Every way of building a deformation or a family checks k: NaN and inf too.
    @pytest.mark.parametrize("build,message", [
        (lambda: tsallis_family(0.0), "k must be positive, got 0.0"),
        (lambda: DeformationFunction("tsallis_phi", k=-1.0), "k must be positive, got -1.0"),
        (lambda: tsallis_phi(math.nan), "k must be positive, got nan"),
        (lambda: tsallis_phi(math.inf), "k must be finite, got inf"),
        (lambda: power_phi(0.5, k=math.nan), "k must be positive, got nan"),
        (lambda: weierstrass_phi(WeierstrassParams(0.5, 13), k=math.inf),
         "k must be finite, got inf"),
        (lambda: EntropyFamily(negated_phi(), one_minus_q_alpha(), math.nan),
         "k must be positive, got nan"),
        (lambda: EntropyFamily(negated_phi(), one_minus_q_alpha(), math.inf),
         "k must be finite, got inf"),
        # phi'(1) = 1/k would be inf: a report on tsallis_family(1e-320)
        # failed phi_derivative_at_1 with residual 1e300.
        (lambda: tsallis_family(1e-310), "k must have a finite reciprocal, got 1e-310"),
        (lambda: tsallis_phi(1e-320), "k must have a finite reciprocal, got 1e-320"),
        (lambda: power_phi(0.5, k=5e-324), "k must have a finite reciprocal, got 5e-324"),
        (lambda: weierstrass_phi(WeierstrassParams(0.5, 13), k=1e-320),
         "k must have a finite reciprocal, got 1e-320"),
        (lambda: EntropyFamily(negated_phi(), one_minus_q_alpha(), 1e-320),
         "k must have a finite reciprocal, got 1e-320"),
    ])
    def test_rejects_k_zero(self, build, message):
        with pytest.raises(NonPositiveK, match=message):
            build()

    def test_alpha_phi_ratio_near_one(self):
        # alpha/phi must approach -k; for this family it is -k identically.
        for k in (1.0, 2.0):
            f = tsallis_family(k)
            for j in range(3, 9):
                for q in (1.0 + 10.0 ** (-j), 1.0 - 10.0 ** (-j)):
                    assert abs(f.alpha(q) / f.phi(q) + k) <= 1e-9


@pytest.mark.parametrize("family", [
    tsallis_family(1.0),
    tsallis_family(2.0),
    weierstrass_family(),
    power_family(2.0),
])
def test_sign_condition_on_grid(family):
    for q in np.linspace(0.05, 4.0, 80):
        q = float(q)
        if abs(q - 1.0) < 1e-9:
            continue
        phi_q = family.phi(q)
        assert phi_q != 0.0
        assert math.copysign(1.0, phi_q) == math.copysign(1.0, q - 1.0)


@pytest.mark.parametrize("family", [tsallis_family(1.0), power_family(2.0)])
def test_constraint_region_on_grid(family):
    # alpha <= 0 where phi > 0, alpha in [0, 1] where phi < 0.
    for q in np.linspace(0.05, 4.0, 80):
        q = float(q)
        if abs(q - 1.0) < 1e-9:
            continue
        phi_q, alpha_q = family.phi(q), family.alpha(q)
        if phi_q > 0:
            assert alpha_q <= 0.0
        else:
            assert 0.0 <= alpha_q <= 1.0


class TestEntropyFamilyValidation:
    def test_requires_vanishing_at_one(self):
        with pytest.raises(InvalidFamilySpec):
            EntropyFamily(tsallis_phi(1.0), tabulated([(0.1, 0.5), (4.0, 0.5)]), 1.0)

    def test_validate_false_skips_checks(self):
        f = EntropyFamily(
            tsallis_phi(1.0), tabulated([(0.1, 0.5), (4.0, 0.5)]), 1.0,
            validated=False,
        )
        assert f.alpha(2.0) == 0.5

    def test_table_not_covering_one_is_a_spec_error(self):
        with pytest.raises(InvalidFamilySpec):
            EntropyFamily(tabulated([(2.0, 1.0), (4.0, 3.0)]), one_minus_q_alpha(), 1.0)

    def test_k_must_be_positive(self):
        with pytest.raises(NonPositiveK):
            EntropyFamily(tsallis_phi(1.0), one_minus_q_alpha(), -1.0)


class TestFamilySpec:
    def test_parse_minimal_tsallis(self):
        f = family_from_spec({
            "phi": {"kind": "tsallis_phi"},
            "alpha": {"kind": "one_minus_q_alpha"},
            "k": 2.0,
        })
        assert f.phi(2.0) == 0.5

    def test_parse_weierstrass(self):
        f = family_from_spec({
            "phi": {"kind": "weierstrass_phi", "a": 0.5, "b": 13, "eps": 1e-12},
            "alpha": {"kind": "one_minus_q_alpha"},
            "k": 1.0,
        })
        assert f.phi(1.0) == 0.0

    def test_round_trip(self):
        for family in (tsallis_family(2.0), weierstrass_family(), power_family(2.0)):
            again = family_from_spec(family.to_spec())
            assert again == family
        # One instance per kind, in the phi slot of a k = 2 family so that
        # the scaled kinds carry the family k.
        examples = {
            "tsallis_phi": tsallis_phi(2.0),
            "negated_phi": negated_phi(),
            "one_minus_q_alpha": one_minus_q_alpha(),
            "power_alpha": power_alpha(0.5),
            "power_phi": power_phi(0.5, k=2.0),
            "weierstrass_phi": weierstrass_phi(WeierstrassParams(0.5, 13, 1e-10), k=2.0),
            "tabulated": tabulated([(0.25, -1.0), (1.0, 0.0), (4.0, 2.5)]),
        }
        assert set(examples) == set(_KINDS)
        for kind, func in examples.items():
            family = EntropyFamily(func, one_minus_q_alpha(), 2.0, validated=False)
            again = family_from_spec(family.to_spec())
            assert again == family, kind
            for q in (0.5, 1.0, 1.3, 3.0):
                assert again.phi(q) == family.phi(q), (kind, q)
        # The spec holds the family k only, so a scaled kind with another k,
        # in either slot, would read back as another family: it is refused.
        for kind in ("tsallis_phi", "power_phi", "weierstrass_phi"):
            with pytest.raises(InvalidFamilySpec, match="phi has k = 2.0, the family 1.0"):
                EntropyFamily(examples[kind], one_minus_q_alpha(), 1.0)
            with pytest.raises(InvalidFamilySpec, match="alpha has k = 2.0"):
                EntropyFamily(one_minus_q_alpha(), examples[kind], 1.0, validated=False)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(InvalidFamilySpec):
            DeformationFunction("nope")

    @pytest.mark.parametrize("spec,field", [
        ({"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 0}, "k"),
        ({"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": math.inf},
         "field 'k'"),
        ({"alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "phi"),
        ({"phi": {"kind": "nope"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "phi"),
        ({"phi": {"kind": "power_phi"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "gamma"),
        ({"phi": {"kind": "weierstrass_phi", "a": 0.5}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "b"),
        # JSON booleans are not numbers, in any numeric field.
        ({"phi": {"kind": "power_phi", "gamma": True}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "'gamma'"),
        ({"phi": {"kind": "weierstrass_phi", "a": True, "b": 13}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "'a'"),
        ({"phi": {"kind": "weierstrass_phi", "a": 0.5, "b": 13, "eps": True}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "'eps'"),
        ({"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "tabulated", "points": [[0.5, "x"], [2.0, -1.0]]}, "k": 1.0}, "'points'"),
        ({"phi": {"kind": ["tsallis_phi"]}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}, "phi"),
        ([], "family spec must be a JSON object"),
        ({"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"}},
         "field 'k': missing"),
        ({"phi": {"kind": "tsallis_phi"}, "k": 1.0}, "field 'alpha': missing"),
        ({"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0,
          "validate": 1}, "field 'validate': must be a boolean, got 1"),
        ({"phi": {"kind": "tsallis_phi"}, "alpha": [1], "k": 1.0},
         "field 'alpha' must be an object"),
    ])
    def test_diagnostics_name_offending_field(self, spec, field):
        with pytest.raises(InvalidFamilySpec) as err:
            family_from_spec(spec)
        assert field in str(err.value)

    # Unknown fields were dropped: "validat" gave a validated family, and a
    # gamma on tsallis_phi was accepted and not echoed.  A constructor's
    # refusal did not name its field.
    @pytest.mark.parametrize("change,error,message", [
        ({"validat": False}, InvalidFamilySpec,
         "unknown field 'validat', expected one of ('phi', 'alpha', 'k', 'validate')"),
        ({"phi": {"kind": "tsallis_phi", "gamma": 3}}, InvalidFamilySpec,
         "field 'phi': unknown field 'gamma', expected one of ('kind',)"),
        ({"alpha": {"kind": "power_alpha", "gamma": 2.0, "k": 1.0}}, InvalidFamilySpec,
         "field 'alpha': unknown field 'k', expected one of ('kind', 'gamma')"),
        ({"phi": {"kind": "tabulated", "points": [[0.01, -1.0], [1.0, 0.0], [1.0, 1.0]]},
          "validate": False}, InvalidFamilySpec,
         "field 'phi': tabulated q grid must be strictly increasing"),
        ({"phi": {"kind": "weierstrass_phi", "a": 2.0, "b": 13}}, InvalidWeierstrassParams,
         "field 'phi': a must be in (0,1), got 2.0"),
        ({"k": 1e-320}, InvalidFamilySpec, "field 'k': must have a finite reciprocal, got 1e-320"),
    ])
    def test_refusal_names_field(self, change, error, message):
        spec = {"phi": {"kind": "tsallis_phi"}, "alpha": {"kind": "one_minus_q_alpha"},
                "k": 1.0, **change}
        with pytest.raises(error) as err:
            family_from_spec(spec)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_unvalidated_round_trip(self):
        f = EntropyFamily(
            tsallis_phi(1.0), tabulated([(0.01, 0.5), (10.0, 0.5)]), 1.0,
            validated=False,
        )
        again = family_from_spec(f.to_spec())
        assert again == f
        assert not again.validated
