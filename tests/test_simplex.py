import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qentropy.errors import (
    InputError,
    NegativeEntry,
    NotNormalized,
    ZeroMarginal,
    ZeroSum,
)
from qentropy.simplex import (
    Distribution,
    Refinement,
    _simplex_rows,
    make_distribution,
    sample_refinement,
    sample_simplex,
    uniform_distribution,
)


class TestMakeDistribution:
    def test_normalize_scales_proportionally(self):
        d = make_distribution([2, 1, 1], mode="normalize")
        assert d.probs == (0.5, 0.25, 0.25)

    def test_strict_accepts_degenerate_certainty(self):
        assert make_distribution([1], mode="strict").probs == (1.0,)

    def test_strict_rejects_bad_sum(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.3, 0.8], mode="strict")

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            make_distribution([0.5, -0.5, 1.0], mode="normalize")

    def test_zero_sum(self):
        with pytest.raises(ZeroSum):
            make_distribution([0.0, 0.0], mode="normalize")

    def test_empty(self):
        with pytest.raises(InputError):
            make_distribution([], mode="strict")

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            make_distribution([1.0], mode="fuzzy")

    def test_near_one_sum_renormalized_exactly(self):
        # 1/3 three times misses 1 by ~5.6e-17; construction divides it out.
        d = make_distribution([1 / 3] * 3, mode="strict")
        assert math.fsum(d.probs) == 1.0

    def test_overflowing_sum_is_input_error(self):
        # Each entry is finite but their sum is not; that is bad input,
        # not an arithmetic failure.
        with pytest.raises(InputError, match="float range"):
            make_distribution([1e308, 1e308], mode="normalize")
        with pytest.raises(InputError, match="float range"):
            Distribution((1e308, 1e308))
        with pytest.raises(InputError, match="float range"):
            Refinement(((1e308,), (1e308,)))

    def test_uniform(self):
        u = uniform_distribution(4)
        assert u.probs == (0.25, 0.25, 0.25, 0.25)


NAN, INF = math.nan, math.inf

# One case per way an input can be refused: the first offending entry is
# named, a non-finite entry before a negative one wins, and an overflowing
# sum is reported only when no entry is at fault.
_REFUSED = [
    ([0.5, NAN, 0.5], InputError, "distribution entry 1 is not finite: nan"),
    ([0.5, 0.5, INF], InputError, "distribution entry 2 is not finite: inf"),
    ([-INF, 1.0], InputError, "distribution entry 0 is not finite: -inf"),
    ([NAN, -1.0], InputError, "distribution entry 0 is not finite: nan"),
    ([1.0, NAN, -1.0], InputError, "distribution entry 1 is not finite: nan"),
    ([1.0, -1.0, NAN], NegativeEntry, "distribution entry 1 is negative: -1.0"),
    ([1.0, INF, -INF], InputError, "distribution entry 1 is not finite: inf"),
    ([0.5, -0.0, -5e-324], NegativeEntry, "distribution entry 2 is negative: -5e-324"),
    ([1e308, 1e308, -1.0], NegativeEntry, "distribution entry 2 is negative: -1.0"),
    ([1e308, 1e308, NAN], InputError, "distribution entry 2 is not finite: nan"),
    ([1e308, 1e308, 1.0], InputError, "distribution entries sum beyond the float range"),
    ([], InputError, "distribution must have at least one entry"),
]


# Inputs that are not a sequence of real numbers, each refused as an
# InputError that names the entry where there is one.  numpy alone would
# read None as NaN, a nested list as a 2-D array and a string as a 0-d
# array, so each case is decided before the array is trusted.
_MALFORMED = [
    ([0.5, None], InputError, "distribution entry 1 is not a real number: None"),
    ([[0.5, 0.5]], InputError, "distribution entry 0 is not a real number: [0.5, 0.5]"),
    ([0.5, [0.25, 0.25]], InputError,
     "distribution entry 1 is not a real number: [0.25, 0.25]"),
    ([1j, 1.0], InputError, "distribution entry 0 is not a real number: 1j"),
    ([0.5, np.complex128(0.5)], InputError,
     f"distribution entry 1 is not a real number: {np.complex128(0.5)!r}"),
    ([0.5, "abc"], InputError, "distribution entry 1 is not a real number: 'abc'"),
    # A numeric string was read as its number.
    (["0.5", "0.5"], InputError, "distribution entry 0 is not a real number: '0.5'"),
    ([0.5, b"0.5"], InputError, "distribution entry 1 is not a real number: b'0.5'"),
    (np.array(["0.5", "0.5"]), InputError,
     f"distribution entry 0 is not a real number: {np.str_('0.5')!r}"),
    ([10**401, 1], InputError, "distribution entry 0 is beyond the float range"),
    ([NAN, None], InputError, "distribution entry 0 is not finite: nan"),
    ([-1.0, None], NegativeEntry, "distribution entry 0 is negative: -1.0"),
    ("11", InputError, "distribution must be a sequence of numbers, not '11'"),
    (0.5, InputError, "distribution must be a sequence of numbers, got float"),
    (np.array([[0.5, 0.5]]), InputError,
     "distribution must be one-dimensional, got shape (1, 2)"),
    (np.array(1.0), InputError, "distribution must be one-dimensional, got shape ()"),
    (np.array([0.5, 0.5j]), InputError,
     f"distribution entry 0 is not a real number: {np.complex128(0.5)!r}"),
    (np.array([0.5, None], dtype=object), InputError,
     "distribution entry 1 is not a real number: None"),
]


def _refusal(call) -> tuple[type, str]:
    with pytest.raises(InputError) as info:
        call()
    return type(info.value), str(info.value)


class TestValidationErrors:
    @pytest.mark.parametrize("mode", ["normalize", "strict"])
    @pytest.mark.parametrize("values,cls,message", _REFUSED)
    def test_list_input(self, values, cls, message, mode):
        assert _refusal(lambda: make_distribution(values, mode)) == (cls, message)
        assert _refusal(lambda: Distribution(tuple(values))) == (cls, message)

    @pytest.mark.parametrize("values,cls,message", _REFUSED)
    def test_array_and_generator_input(self, values, cls, message):
        array = np.array(values, dtype=np.float64)
        assert _refusal(lambda: make_distribution(array, "normalize")) == (cls, message)
        assert _refusal(
            lambda: make_distribution((v for v in values), "normalize")) == (cls, message)

    @pytest.mark.parametrize("values,cls,message", _MALFORMED)
    def test_malformed_input(self, values, cls, message):
        for mode in ("normalize", "strict"):
            assert _refusal(lambda: make_distribution(values, mode)) == (cls, message)
        assert _refusal(lambda: Distribution(values)) == (cls, message)
        if isinstance(values, list):
            assert _refusal(
                lambda: make_distribution((v for v in values), "normalize")) == (cls, message)
        row_message = message.replace("distribution", "refinement row 1", 1)
        assert _refusal(lambda: Refinement(((0.5,), values))) == (cls, row_message)

    def test_array_and_generator_input_accepted(self):
        for values in (np.array([2.0, 1.0, 1.0]), (v for v in (2, 1, 1))):
            assert make_distribution(values, "normalize").probs == (0.5, 0.25, 0.25)

    def test_fraction_decimal_and_numpy_reals_accepted(self):
        values = [Fraction(1, 2), Decimal("0.25"), np.float32(0.25)]
        assert Distribution(values).probs == (0.5, 0.25, 0.25)
        assert Refinement(((0.5,), values[1:])).rows == ((0.5,), (0.25, 0.25))

    def test_sum_checks_after_entry_checks(self):
        assert _refusal(lambda: make_distribution([0.0, 0.0], "normalize")) == (
            ZeroSum, "cannot normalize an all-zero vector")
        assert _refusal(lambda: make_distribution([0.25, 0.5], "strict")) == (
            NotNormalized, "entries sum to 0.75, not 1 within 1e-12")

    def test_refinement_names_the_row(self):
        assert _refusal(lambda: Refinement(((0.5,), (0.5, -0.0, NAN)))) == (
            InputError, "refinement row 1 entry 2 is not finite: nan")
        assert _refusal(lambda: Refinement(((1e308, 1e308), (-1.0,)))) == (
            NegativeEntry, "refinement row 1 entry 0 is negative: -1.0")

    @pytest.mark.parametrize("rows,message", [
        (None, "refinement must be a sequence of rows, got NoneType"),
        (5, "refinement must be a sequence of rows, got int"),
        (3.0, "refinement must be a sequence of rows, got float"),
        (object(), "refinement must be a sequence of rows, got object"),
        ("ab", "refinement must be a sequence of rows, not 'ab'"),
        ((), "refinement must have at least one row"),
    ])
    def test_refinement_refuses_a_non_sequence(self, rows, message):
        assert _refusal(lambda: Refinement(rows)) == (InputError, message)

    def test_array_is_the_divided_entries(self):
        values = [3.0, 1e-310, 0.0, 7.0]
        d = make_distribution(values, "normalize")
        total = math.fsum(values)
        assert d.probs == tuple(v / total for v in values)
        assert d.array.tolist() == list(d.probs)
        assert not d.array.flags.writeable


class TestStorage:
    """A Distribution holds one read-only float64 array; the tuple probs and
    the kernel inputs ln p and the zero positions derive from it."""

    def test_probs_is_the_array_as_a_tuple(self):
        d = make_distribution([3.0, 1e-310, 0.0, 7.0], "normalize")
        assert type(d.probs) is tuple
        assert d.probs == tuple(d.array.tolist())
        assert all(type(p) is float for p in d.probs)
        assert len(d) == 4

    def test_equality_and_hash_are_the_tuple_s(self):
        a, b = Distribution((1.0, -0.0)), Distribution((1.0, 0.0))
        assert a == b and hash(a) == hash(b)
        assert a != Distribution((0.0, 1.0))
        assert make_distribution([2, 1, 1], "normalize") == Distribution((0.5, 0.25, 0.25))
        assert len({a, b, Distribution((0.0, 1.0))}) == 2

    def test_caller_array_is_copied(self):
        values = np.array([0.5, 0.25, 0.25])
        d, m = Distribution(values), make_distribution(values, "strict")
        values[0] = 0.75
        for e in (d, m):
            assert e.probs == (0.5, 0.25, 0.25)
            assert e.array.tolist() == [0.5, 0.25, 0.25]
            assert not np.shares_memory(e.array, values)

    def test_arrays_are_read_only(self):
        d = make_distribution([2.0, 0.0, 1.0, 1.0, 0.0], "normalize")
        P, log, m = d.support
        # The positive entries in order, then one zero for both zeros.
        assert P.tolist() == [[0.5, 0.25, 0.25, 0.0]] and m == 3
        with np.errstate(divide="ignore"):
            assert log.tolist() == np.log(P).tolist()
        assert log[0, 3] == -math.inf
        for array in (d.array, P, log):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(AttributeError):
            d.probs = (1.0,)
        with pytest.raises(AttributeError):
            d.array = np.ones(1)
        for name in ("array", "probs", "support"):
            with pytest.raises(AttributeError):
                delattr(d, name)
        assert d.probs == (0.5, 0.0, 0.25, 0.25, 0.0)

    def test_support_without_a_zero_is_the_array_itself(self):
        d = make_distribution([2.0, 1.0, 1.0], "normalize")
        P, log, m = d.support
        assert m == 3 and P.base is d.array
        assert log.tolist() == np.log(P).tolist() and not log.flags.writeable
        assert d.support is d.support


class TestRefinement:
    def test_marginals_hand_sum(self):
        r = Refinement(((0.5,), (0.25, 0.25)))
        assert r.marginals().probs == (0.5, 0.5)

    def test_marginals_single_cell(self):
        assert Refinement(((1.0,),)).marginals().probs == (1.0,)

    def test_marginals_zero_row_permitted(self):
        r = Refinement(((0.0, 0.0), (0.6, 0.4)))
        assert r.marginals().probs == (0.0, 1.0)

    def test_conditional_hand_division(self):
        r = Refinement(((0.5,), (0.25, 0.25)))
        assert r.conditional(1).probs == (0.5, 0.5)
        assert r.conditional(0).probs == (1.0,)

    def test_conditional_zero_marginal(self):
        r = Refinement(((0.0, 0.0), (0.6, 0.4)))
        with pytest.raises(ZeroMarginal):
            r.conditional(0)

    def test_conditional_index_out_of_range(self):
        r = Refinement(((0.5,), (0.5,)))
        with pytest.raises(InputError):
            r.conditional(2)

    def test_flatten_is_distribution(self):
        r = Refinement(((0.5,), (0.25, 0.25)))
        assert r.flatten().probs == (0.5, 0.25, 0.25)

    def test_rejects_unnormalized_cells(self):
        with pytest.raises(NotNormalized):
            Refinement(((0.5,), (0.25, 0.35)))

    def test_rejects_negative_cell(self):
        with pytest.raises(NegativeEntry):
            Refinement(((1.1,), (-0.1,)))

    def test_array_rows(self):
        """A 2-D array is the sequence of its rows, as a list of 1-D arrays
        is; a 3-D array's rows are refused as not one-dimensional."""
        cells = np.array([[0.25, 0.25], [0.5, 0.0]])
        r = Refinement(cells)
        assert r == Refinement(list(cells)) == Refinement(((0.25, 0.25), (0.5, 0.0)))
        assert all(type(c) is float for row in r.rows for c in row)
        assert _refusal(lambda: Refinement(cells[None])) == (
            InputError, "refinement row 0 must be one-dimensional, got shape (2, 2)")


class TestSampleSimplex:
    def test_dimension_one_is_a_point(self):
        for d in sample_simplex(1, 3, seed=7):
            assert d.probs == (1.0,)

    def test_all_samples_valid(self):
        for d in sample_simplex(3, 1000, seed=42):
            assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
            assert all(p >= 0.0 for p in d.probs)

    def test_flat_dirichlet_mean(self):
        # Mean of the first coordinate on Delta_2 is 1/2; 10000 draws keep
        # the sample mean within a few binomial standard deviations.
        samples = sample_simplex(2, 10000, seed=1)
        mean = math.fsum(d.probs[0] for d in samples) / len(samples)
        assert 0.49 <= mean <= 0.51

    def test_bit_reproducible(self):
        a = sample_simplex(4, 20, seed=99)
        b = sample_simplex(4, 20, seed=99)
        assert a == b
        # The array twin the axiom checks use draws the same points, bit for bit.
        rows = _simplex_rows(4, 20, seed=99)
        assert rows.shape == (20, 4)
        assert [[x.hex() for x in row] for row in rows.tolist()] == \
            [[x.hex() for x in d.probs] for d in a]

    def test_validates_arguments(self):
        with pytest.raises(InputError):
            sample_simplex(0, 1, seed=0)
        with pytest.raises(InputError):
            sample_simplex(2, 0, seed=0)


class TestSampleRefinement:
    def test_forced_normalization(self):
        for seed in (0, 1, 17):
            (r,) = sample_refinement(1, 1, 1, seed=seed)
            assert r.rows == ((1.0,),)

    def test_invariants_hold(self):
        for r in sample_refinement(2, 3, 50, seed=9):
            total = math.fsum(c for row in r.rows for c in row)
            assert abs(total - 1.0) <= 1e-12
            assert all(1 <= len(row) <= 3 for row in r.rows)
            assert len(r.rows) == 2

    def test_marginals_are_valid(self):
        (r,) = sample_refinement(3, 2, 1, seed=5)
        m = r.marginals()
        assert abs(math.fsum(m.probs) - 1.0) <= 1e-12

    def test_conditionals_sum_to_one(self):
        for r in sample_refinement(4, 4, 25, seed=11):
            for i, p_i in enumerate(r.marginals().probs):
                if p_i > 0:
                    assert abs(math.fsum(r.conditional(i).probs) - 1.0) <= 1e-12

    def test_reconstruction(self):
        # p_ij recovers as marginal times conditional.
        for r in sample_refinement(3, 4, 25, seed=23):
            m = r.marginals()
            for i, row in enumerate(r.rows):
                if m.probs[i] == 0.0:
                    continue
                c = r.conditional(i)
                for j, p_ij in enumerate(row):
                    assert abs(p_ij - m.probs[i] * c.probs[j]) <= 1e-12

    def test_bit_reproducible(self):
        assert sample_refinement(3, 3, 10, seed=4) == sample_refinement(3, 3, 10, seed=4)

    @pytest.mark.parametrize("args,message", [
        ((0, 2, 1), "n must be >= 1"),
        ((2, 0, 1), "max_m must be >= 1"),
        ((2, 2, 0), "count must be >= 1"),
    ])
    def test_validates_arguments(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            sample_refinement(*args, seed=0)
