import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

import qentropy.axioms
import qentropy.deformation
import qentropy.weierstrass
from qentropy.axioms import (
    CHECK_NAMES,
    REGION_Q_GRID,
    CheckConfig,
    _check_seed,
    _Residuals,
    check_alpha_phi_limit,
    check_constraint_region,
    check_continuity,
    check_convexity_of_I,
    check_expandability,
    check_generalized_additivity,
    check_maximality,
    check_phi_derivative_at_1,
    check_pseudoadditivity,
    check_shannon_limit,
    check_sign_condition,
    derivative_limit_probe,
    run_full_report,
    _Memo,
)
from qentropy.deformation import (
    DeformationFunction,
    EntropyFamily,
    negated_phi,
    one_minus_q_alpha,
    power_family,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
    weierstrass_phi,
)
from qentropy.entropy import generalized_entropy
from qentropy.errors import DomainError, EvaluationError, InputError, OutOfTableRange
from qentropy.simplex import Distribution, Refinement, sample_refinement
from qentropy.weierstrass import WeierstrassParams, eval_W

TSALLIS = tsallis_family(1.0)
WEIERSTRASS = weierstrass_family()
Q_GRID = (0.5, 0.9, 1.0, 1.1, 2.0, 3.0)


def _count_entropies_calls(monkeypatch) -> list[float]:
    """The q of every entropies() call the checks make from now on."""
    qs, entropies = [], qentropy.axioms.entropies

    def counted(P, f, q, *args):
        qs.append(q)
        return entropies(P, f, q, *args)

    monkeypatch.setattr(qentropy.axioms, "entropies", counted)
    return qs


def constant_alpha_family(value: float = 0.5) -> EntropyFamily:
    """Deliberately invalid family: alpha constant, so alpha(1) != 0."""
    return EntropyFamily(
        tsallis_phi(1.0), tabulated([(0.01, value), (10.0, value)]), 1.0,
        validated=False,
    )


def _scalar_fold(acc, residuals, witness_at):
    """The one-sample-at-a-time fold that _Residuals.add replaced."""
    for i, residual in enumerate(residuals):
        acc.count += 1
        if residual > acc.max_residual:
            acc.max_residual = residual
        if residual > acc.threshold:
            acc.witnesses.append((residual, witness_at(i)))


NAN, INF = math.nan, math.inf


class TestResidualsAdd:
    # Each case is a sequence of add() calls: NaNs, 0.0/-0.0 ties within and
    # across calls, repeated maxima, infinities and empty inputs.
    CALLS = [
        [[]],
        [[NAN, 1.0, NAN, 0.5]],
        [[NAN, NAN], [], [-0.0], [0.0]],
        [[0.0, -0.0], [-0.0, 0.0]],
        [[-0.0, 0.0, -0.0]],
        [[2.0, 3.0, 3.0, 1.0, 3.0], [3.0, 2.0, NAN]],
        [[-INF, -INF], [-1e300]],
        [[INF, NAN, INF], [1e300]],
    ]

    @pytest.mark.parametrize("calls", CALLS)
    @pytest.mark.parametrize("start", [0.0, -0.0, -INF])
    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 2.0])
    def test_matches_scalar_fold(self, calls, start, threshold):
        results = []
        for fold in (_scalar_fold, _Residuals.add):
            acc = _Residuals("probe", (), threshold, start=start)
            asked = []

            def witness_at(call, i):
                asked.append((call, i))
                return {"call": call, "i": i}

            for call, residuals in enumerate(calls):
                fold(acc, residuals, lambda i, call=call: witness_at(call, i))
            results.append((repr(acc.max_residual), acc.count, acc.witnesses, asked))
        assert results[1] == results[0]

    def test_takes_arrays(self):
        acc = _Residuals("probe", (), 0.5)
        acc.add(np.array([0.25, 1.0, 0.75]), lambda i: {"i": i})
        assert (acc.max_residual, acc.count) == (1.0, 3)
        assert acc.witnesses == [(1.0, {"i": 1}), (0.75, {"i": 2})]


class TestMaximality:
    def test_tsallis_passes(self):
        rec = check_maximality(TSALLIS, Q_GRID, (2, 3), samples=100, seed=0)
        assert rec.verdict == "pass"
        assert rec.max_residual <= 1e-10

    def test_uniform_input_zero_residual(self):
        u = Distribution((0.5, 0.5))
        s = generalized_entropy(u, TSALLIS, 2.0).value
        assert s == 0.5
        # Residual of the uniform point against itself is exactly zero.
        assert s - generalized_entropy(u, TSALLIS, 2.0).value == 0.0

    def test_hand_point_below_uniform(self):
        lop = generalized_entropy(Distribution((0.9, 0.1)), TSALLIS, 2.0).value
        assert lop == pytest.approx(0.18, abs=1e-15)
        assert lop < 0.5

    def test_invalid_family_fails_with_witness(self):
        rec = check_maximality(constant_alpha_family(), (2.0,), (2,),
                               samples=200, seed=0)
        assert rec.verdict == "fail"
        assert len(rec.witnesses) >= 1
        assert rec.witnesses[0]["residual"] > 1e-10

    def test_invalid_family_oracle_grid_search(self):
        # Independent confirmation: scan Delta_2 at q=2 for a point beating
        # the uniform value of S(p) = 1 - sum sqrt(p).
        fam = constant_alpha_family()
        uniform = generalized_entropy(Distribution((0.5, 0.5)), fam, 2.0).value
        best = max(
            generalized_entropy(Distribution((p, 1.0 - p)), fam, 2.0).value
            for p in [i / 200 for i in range(1, 200)]
        )
        assert best > uniform


class TestExpandability:
    def test_zero_outcome_is_free_at_q1(self):
        dists = [Distribution((0.5, 0.5)), Distribution((1.0,))]
        rec = check_expandability(TSALLIS, dists, Q_GRID)
        assert rec.verdict == "pass"
        assert rec.max_residual == 0.0

    def test_off_shannon_gaps_reported_informationally(self):
        rec = check_expandability(TSALLIS, [Distribution((0.5, 0.5))], (2.0,))
        gaps = rec.details["off_shannon_gaps_informational"]
        assert gaps[repr(2.0)] == [0.0]

    def test_one_entropies_call_per_q(self, monkeypatch):
        qs = _count_entropies_calls(monkeypatch)
        dists = [Distribution((1.0,)), Distribution((0.5, 0.5)),
                 Distribution((0.5, 0.25, 0.25))]
        check_expandability(TSALLIS, dists, Q_GRID)
        assert qs == [1.0] + [q for q in Q_GRID if q != 1.0]

    def test_error_at_a_q_leaves_all_its_gaps_none(self):
        # S_q < 0 off q = 1 for negated_phi, an error for a validated family.
        # The distributions share one entropies() call per q, so the gap of
        # the certain distribution, S_q = 0, is not read either.
        family = EntropyFamily(negated_phi(), one_minus_q_alpha(), 1.0)
        rec = check_expandability(family, [Distribution((1.0,)), Distribution((0.5, 0.5))],
                                  Q_GRID)
        assert rec.verdict == "pass"
        assert rec.details["off_shannon_gaps_informational"] == {
            repr(q): [None, None] for q in Q_GRID if q != 1.0}

    def test_no_distributions_pass_with_no_samples(self):
        rec = check_expandability(TSALLIS, [], (1.0, 2.0))
        assert (rec.verdict, rec.sample_count) == ("pass", 0)
        assert rec.details["off_shannon_gaps_informational"] == {repr(2.0): []}


class TestGeneralizedAdditivity:
    def test_hand_refinement(self):
        r = Refinement(((0.5,), (0.25, 0.25)))
        rec = check_generalized_additivity(TSALLIS, (2.0,), [r], mode="suyari")
        assert rec.verdict == "pass"
        assert rec.max_residual <= 1e-15

    def test_single_cell_rows_trivial(self):
        r = Refinement(((0.3,), (0.6,), (0.1,)))
        rec = check_generalized_additivity(TSALLIS, Q_GRID, [r], mode="generalized")
        assert rec.max_residual <= 1e-12

    def test_shannon_chain_rule_at_q1(self):
        refs = sample_refinement(3, 3, 20, seed=2)
        rec = check_generalized_additivity(TSALLIS, (1.0,), refs, mode="generalized")
        assert rec.max_residual <= 1e-12

    def test_modes_agree_bitwise_for_tsallis(self):
        refs = sample_refinement(4, 4, 50, seed=3)
        a = check_generalized_additivity(TSALLIS, Q_GRID, refs, mode="suyari")
        b = check_generalized_additivity(TSALLIS, Q_GRID, refs, mode="generalized")
        assert a.max_residual == b.max_residual

    def test_zero_marginal_rows_skipped(self):
        r = Refinement(((0.0, 0.0), (0.6, 0.4)))
        rec = check_generalized_additivity(TSALLIS, (2.0, 3.0), [r], mode="generalized")
        assert rec.verdict == "pass"

    def test_weierstrass_family_satisfies_additivity(self):
        refs = sample_refinement(3, 3, 10, seed=5)
        rec = check_generalized_additivity(WEIERSTRASS, Q_GRID, refs, mode="generalized")
        assert rec.verdict == "pass"

    def test_unknown_mode_refused(self):
        refs = sample_refinement(2, 2, 1, seed=5)
        with pytest.raises(InputError, match="^unknown mode 'renyi'$"):
            check_generalized_additivity(TSALLIS, Q_GRID, refs, mode="renyi")


class TestPseudoadditivity:
    def test_tsallis(self):
        rec = check_pseudoadditivity(TSALLIS, Q_GRID, samples=300, seed=0)
        assert rec.verdict == "pass"

    def test_q1_reduces_to_log_additivity(self):
        rec = check_pseudoadditivity(TSALLIS, (1.0,), samples=300, seed=0)
        assert rec.max_residual <= 1e-12


class TestOverflowingInformationContent:
    # At q = 800, p^alpha(q) leaves the float range for small p.
    def test_pseudoadditivity_not_applicable(self):
        rec = check_pseudoadditivity(TSALLIS, (2.0, 800.0), 20, 0)
        assert rec.verdict == "not_applicable"
        assert "q=800.0" in rec.details["reason"]

    def test_convexity_not_applicable(self):
        rec = check_convexity_of_I(TSALLIS, (2.0, 800.0))
        assert rec.verdict == "not_applicable"
        assert "q=800.0" in rec.details["reason"]


class TestShannonLimit:
    def test_tsallis_gaps_monotone(self):
        dists = [Distribution((0.5, 0.5)), Distribution((0.5, 0.25, 0.25))]
        rec = check_shannon_limit(TSALLIS, dists)
        assert rec.verdict == "pass"
        for info in rec.details["gaps"].values():
            assert info["strictly_decreasing"]

    def test_degenerate_distribution_all_gaps_zero(self):
        rec = check_shannon_limit(TSALLIS, [Distribution((1.0,))])
        (info,) = rec.details["gaps"].values()
        assert info["gaps"] == [0.0] * 5

    def test_weierstrass_gaps_shrink(self):
        # Convergence is Hoelder, so the envelope oscillates; the check
        # demands net decrease plus a small final gap, both of which hold.
        rec = check_shannon_limit(WEIERSTRASS, [Distribution((0.5, 0.5))])
        assert rec.verdict == "pass"
        (info,) = rec.details["gaps"].values()
        assert info["gaps"][-1] < info["gaps"][0]

    def test_invalid_family_diverges(self):
        rec = check_shannon_limit(constant_alpha_family(), [Distribution((0.5, 0.5))])
        assert rec.verdict == "fail"
        assert len(rec.witnesses) >= 1

    def test_not_applicable_lists_the_same_q_values(self):
        # phi vanishes everywhere, so no S_q with q != 1 can be evaluated.
        flat = EntropyFamily(tabulated([(0.01, 0.0), (10.0, 0.0)]),
                             one_minus_q_alpha(), 1.0, validated=False)
        dists = [Distribution((0.5, 0.5))]
        na = check_shannon_limit(flat, dists)
        assert na.verdict == "not_applicable"
        assert na.q_values == check_shannon_limit(TSALLIS, dists).q_values
        assert na.q_values == tuple(1.0 + 10.0 ** -j for j in range(2, 7))

    def test_no_distributions_pass_with_no_samples(self):
        rec = check_shannon_limit(TSALLIS, [])
        assert (rec.verdict, rec.sample_count, rec.details) == ("pass", 0, {"gaps": {}})

    def test_one_entropies_call_per_q(self, monkeypatch):
        qs = _count_entropies_calls(monkeypatch)
        check_shannon_limit(TSALLIS, [Distribution((0.5, 0.5)), Distribution((0.5, 0.25, 0.25))])
        hs = [10.0 ** -j for j in range(2, 7)]
        assert qs == [1.0] + [q for h in hs for q in (1.0 + h, 1.0 - h)]

    def test_not_applicable_names_the_first_error(self):
        # The first distribution at the first q != 1, as when each
        # distribution was evaluated on its own.
        family = EntropyFamily(negated_phi(), one_minus_q_alpha(), 1.0)
        rec = check_shannon_limit(family, [Distribution((0.5, 0.5)),
                                           Distribution((0.5, 0.25, 0.25))])
        assert rec.details == {"reason": "evaluation failed: entropy -0.6907504562964099 "
                               "at q=1.01; a valid family cannot go negative"}


class TestAlphaPhiLimit:
    def test_tsallis_ratio_exact(self):
        rec = check_alpha_phi_limit(TSALLIS)
        assert rec.verdict == "pass"
        assert rec.max_residual == 0.0

    def test_tsallis_k2(self):
        f = tsallis_family(2.0)
        assert f.alpha(2.0) / f.phi(2.0) == -2.0
        rec = check_alpha_phi_limit(f)
        assert rec.verdict == "pass"

    def test_weierstrass_ratio_converges(self):
        rec = check_alpha_phi_limit(WEIERSTRASS)
        assert rec.verdict == "pass"
        assert rec.max_residual <= 1e-4
        # Deviation at the shallowest scale is percent level; conditions
        # only force convergence, not a rate.
        assert rec.details["deviations_above"][0] > 1e-3

    def test_zero_phi_is_not_applicable(self):
        # A zero phi raises PhiVanishes with the entropy routes' message.
        flat = EntropyFamily(tabulated([(0.01, 0.0), (10.0, 0.0)]), one_minus_q_alpha(),
                             1.0, validated=False)
        rec = check_alpha_phi_limit(flat)
        assert rec.verdict == "not_applicable"
        assert rec.q_values == ()
        assert rec.details == {
            "reason": "evaluation failed: phi(1.001) = 0 away from q = 1"}


class TestPhiDerivativeAtOne:
    def test_phi_outside_its_table_at_1_is_not_applicable(self):
        # phi(1.0) itself raises: that check is n/a and the report completes.
        family = EntropyFamily(tabulated([(1.5, 0.5), (3.0, 2.0)]), one_minus_q_alpha(),
                               1.0, validated=False)
        rec = run_full_report(family).check("phi_derivative_at_1")
        assert rec.verdict == "not_applicable"
        assert rec.details == {
            "reason": "evaluation failed: q=1.0 outside tabulated range [1.5, 3.0]"}

    def test_linear_phi_quotient_exact(self):
        rec = check_phi_derivative_at_1(tsallis_phi(1.0), 1.0)
        assert rec.verdict == "pass"
        assert rec.max_residual == 0.0

    def test_weierstrass_quotient_converges(self):
        rec = check_phi_derivative_at_1(
            weierstrass_phi(WeierstrassParams(0.5, 13), 1.0), 1.0
        )
        assert rec.verdict == "pass"
        assert rec.max_residual <= 1e-4

    def test_quadratic_phi_fails(self):
        rec = check_phi_derivative_at_1(lambda q: (q - 1.0) ** 2, 1.0)
        assert rec.verdict == "fail"
        assert len(rec.witnesses) >= 1

    def test_nonvanishing_phi_not_applicable(self):
        rec = check_phi_derivative_at_1(lambda q: q, 1.0)
        assert rec.verdict == "not_applicable"


class TestSignCondition:
    def test_tsallis(self):
        rec = check_sign_condition(TSALLIS, REGION_Q_GRID)
        assert rec.verdict == "pass"

    def test_negated_phi_fails_everywhere(self):
        fam = EntropyFamily(negated_phi(), one_minus_q_alpha(), 1.0, validated=False)
        rec = check_sign_condition(fam, REGION_Q_GRID)
        assert rec.verdict == "fail"
        assert rec.max_residual == float(len(REGION_Q_GRID))


class TestConstraintRegion:
    def test_tsallis_hand_points(self):
        rec = check_constraint_region(TSALLIS, (0.5, 2.0))
        assert rec.verdict == "pass"
        per_q = {r["q"]: r["comply"] for r in rec.details["per_q"]}
        assert per_q == {0.5: True, 2.0: True}

    def test_constant_alpha_violates_above_one(self):
        rec = check_constraint_region(constant_alpha_family(), (0.5, 2.0))
        assert rec.verdict == "fail"
        per_q = {r["q"]: r["comply"] for r in rec.details["per_q"]}
        assert per_q == {0.5: True, 2.0: False}
        assert rec.max_residual == 0.5


class TestConvexity:
    def test_tsallis_q2(self):
        rec = check_convexity_of_I(TSALLIS, (2.0,))
        assert rec.verdict == "pass"

    def test_shannon_point_convex(self):
        rec = check_convexity_of_I(TSALLIS, (1.0,))
        assert rec.verdict == "pass"

    def test_constant_alpha_concave_above_one(self):
        rec = check_convexity_of_I(constant_alpha_family(), (2.0,))
        assert rec.verdict == "fail"
        assert len(rec.witnesses) >= 1

    def test_agreement_with_region_check(self):
        grid = REGION_Q_GRID
        for fam in (TSALLIS, tsallis_family(2.0), power_family(2.0),
                    constant_alpha_family()):
            region = check_constraint_region(fam, grid)
            convexity = check_convexity_of_I(fam, grid)
            region_by_q = {r["q"]: r["comply"] for r in region.details["per_q"]}
            convexity_by_q = {r["q"]: r["comply"] for r in convexity.details["per_q"]}
            assert region_by_q == convexity_by_q


class TestDerivativeLimitProbe:
    def test_linear(self):
        rec = derivative_limit_probe(lambda q: q - 1.0, 1.0)
        assert rec.verdict == "pass"
        assert rec.details["direct_estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_signed_square_at_one(self):
        # g(q) = (q-1)|q-1| has derivative 0 at 1 with one-sided derivative
        # estimates +-2|delta| -> 0, so both routes agree on 0.  The direct
        # symmetric quotient equals the step h exactly, hence the bound.
        rec = derivative_limit_probe(lambda q: (q - 1.0) * abs(q - 1.0), 1.0)
        assert rec.verdict == "pass"
        assert abs(rec.details["direct_estimate"]) <= 1e-3

    def test_weierstrass_away_from_one_not_applicable(self):
        rec = derivative_limit_probe(WEIERSTRASS.phi, 1.3)
        assert rec.verdict == "not_applicable"
        assert "reason" in rec.details
        assert rec.details["spreads"]["nearby_above"] > 1.0

    def test_input_error_propagates(self):
        # eval_W rejects x = inf as a malformed call; only an
        # EvaluationError makes a check not_applicable.
        params = WeierstrassParams(0.5, 13)
        with pytest.raises(InputError, match="finite"):
            derivative_limit_probe(lambda x: eval_W(params, x), math.inf)


class TestFullReport:
    def test_tsallis_all_pass(self):
        report = run_full_report(TSALLIS)
        assert report.all_pass
        assert [c.name for c in report.checks] == [
            "continuity_probe", "maximality", "expandability",
            "shannon_additivity", "generalized_additivity", "pseudoadditivity",
            "shannon_limit", "sign_condition", "phi_derivative_at_1",
            "alpha_phi_limit", "constraint_region", "convexity_of_I",
            "derivative_limit_probe",
        ]

    def test_constant_alpha_fails_expected_checks(self):
        report = run_full_report(constant_alpha_family())
        failed = set(report.failed_names)
        assert {"maximality", "constraint_region", "convexity_of_I"} <= failed
        for name in ("maximality", "constraint_region", "convexity_of_I"):
            assert len(report.check(name).witnesses) >= 1

    def test_weierstrass_reproduces_counterexample(self):
        report = run_full_report(WEIERSTRASS)
        # Valid in every testable sense, including the derivative at 1 ...
        assert report.check("sign_condition").verdict == "pass"
        assert report.check("shannon_limit").verdict == "pass"
        assert report.check("phi_derivative_at_1").verdict == "pass"
        assert report.all_pass
        # ... yet no derivative limit exists away from 1.
        assert report.check("derivative_limit_probe").verdict == "not_applicable"

    def test_power_family_report(self):
        report = run_full_report(power_family(2.0))
        assert report.all_pass
        # phi'(1) = 1/k characterizes alpha = 1 - q only.
        assert report.check("phi_derivative_at_1").verdict == "not_applicable"
        assert report.check("convexity_of_I").details[
            "agrees_with_constraint_region"
        ] is True

    def test_verdict_matches_residual_rule(self):
        for fam in (TSALLIS, constant_alpha_family()):
            for rec in run_full_report(fam).checks:
                if rec.verdict == "not_applicable":
                    assert rec.max_residual is None
                else:
                    assert (rec.verdict == "pass") == (rec.max_residual <= rec.threshold)

    def test_failing_checks_carry_witnesses(self):
        report = run_full_report(constant_alpha_family())
        for rec in report.checks:
            if rec.verdict == "fail":
                assert len(rec.witnesses) >= 1, rec.name

    def test_deterministic_serialization(self):
        a = run_full_report(TSALLIS).to_json()
        b = run_full_report(tsallis_family(1.0)).to_json()
        assert a == b
        assert a.endswith("\n")
        json.loads(a)  # valid JSON

    def test_seed_changes_stream(self):
        a = run_full_report(TSALLIS, CheckConfig(seed=0))
        b = run_full_report(TSALLIS, CheckConfig(seed=1))
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize("field", ["q_grid", "dims"])
    def test_empty_grid_is_refused(self, field):
        # An empty grid would pass every check vacuously, and maximality's
        # max_residual would be -inf, which is not valid JSON.
        with pytest.raises(InputError, match=f"{field} must not be empty"):
            CheckConfig(**{field: ()})

    @pytest.mark.parametrize("field,value,message", [
        ("q_grid", (0.5, -1.0), "q_grid must be positive, got -1.0"),
        ("q_grid", (math.nan,), "q_grid must be positive, got nan"),
        ("q_grid", (2.0, math.inf), "q_grid must be finite, got inf"),
        ("dims", (0,), "dims: 0 is not an integer >= 1"),
        ("dims", (2, 2.5), "dims: 2.5 is not an integer >= 1"),
        ("maximality_samples", 0, "maximality_samples: 0 is not an integer >= 1"),
        ("pseudo_samples", 0, "pseudo_samples: 0 is not an integer >= 1"),
        ("pseudo_samples", -1, "pseudo_samples: -1 is not an integer >= 1"),
        ("pseudo_samples", 2.0, "pseudo_samples: 2.0 is not an integer >= 1"),
    ])
    def test_config_the_checks_cannot_run_is_refused(self, field, value, message):
        # Unrefused, these passed checks on no samples, gave an all_pass
        # report of not_applicable checks, or raised ZeroDivisionError,
        # TypeError or numpy's ValueError from inside a check.
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            CheckConfig(**{field: value})

    def test_every_config_field_changes_the_checks(self):
        base = CheckConfig(q_grid=(0.5, 2.0), dims=(2, 3),
                           maximality_samples=20, pseudo_samples=20)
        changed = {
            "seed": 1,
            "q_grid": (0.5, 3.0),
            "dims": (2, 3, 4),
            "maximality_samples": 30,
            "pseudo_samples": 30,
        }
        assert set(changed) == {f.name for f in dataclasses.fields(CheckConfig)}
        checks = run_full_report(TSALLIS, base).to_dict()["checks"]
        for name, value in changed.items():
            other = run_full_report(TSALLIS, dataclasses.replace(base, **{name: value}))
            assert other.to_dict()["checks"] != checks, name

    def test_family_spec_round_trips_through_report(self):
        from qentropy.deformation import family_from_spec
        report = run_full_report(WEIERSTRASS)
        again = family_from_spec(report.family)
        report2 = run_full_report(again)
        assert report.to_json() == report2.to_json()

    def test_to_dict_is_a_copy(self):
        report = run_full_report(TSALLIS)
        before = report.to_json()
        checks = report.to_dict()["checks"]
        checks[0]["verdict"] = "fail"
        checks[0]["details"]["edited"] = True
        assert report.to_json() == before
        assert report.all_pass


def _direct_records(f: EntropyFamily, cfg: CheckConfig) -> list:
    """The report's checks called one by one on f itself, as asdict()."""
    dists = [Distribution(p) for p in
             ((1.0,), (0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25))]
    refinements = sample_refinement(4, 4, 60, _check_seed(cfg.seed, "additivity"))
    records = [
        check_continuity(f),
        check_maximality(f, cfg.q_grid, cfg.dims, cfg.maximality_samples, cfg.seed),
        check_expandability(f, dists, cfg.q_grid),
        check_generalized_additivity(f, cfg.q_grid, refinements, mode="suyari"),
        check_generalized_additivity(f, cfg.q_grid, refinements, mode="generalized"),
        check_pseudoadditivity(f, cfg.q_grid, cfg.pseudo_samples, cfg.seed),
        check_shannon_limit(f, dists[1:]),
        check_sign_condition(f, REGION_Q_GRID),
        # Every family below has alpha(q) = 1 - q.
        check_phi_derivative_at_1(f.phi, f.k),
        check_alpha_phi_limit(f),
        check_constraint_region(f, REGION_Q_GRID),
        check_convexity_of_I(f, REGION_Q_GRID),
        derivative_limit_probe(f.phi, 1.3),
    ]
    return [dataclasses.asdict(rec) for rec in records]


class TestReportMemo:
    """run_full_report evaluates phi and alpha once per q for its checks."""

    @pytest.mark.parametrize("family", [
        WEIERSTRASS,
        # phi tabulated on [0.5, 2]: OutOfTableRange -> not_applicable.
        EntropyFamily(tabulated([(0.5, -0.5), (2.0, 1.0)]), one_minus_q_alpha(), 1.0,
                      validated=False),
        # phi = 0 everywhere: PhiVanishes.
        EntropyFamily(tabulated([(0.01, 0.0), (10.0, 0.0)]), one_minus_q_alpha(), 1.0,
                      validated=False),
        EntropyFamily(negated_phi(), one_minus_q_alpha(), 1.0, validated=False),
        # phi = 0 at q = 3: PhiVanishes where a check reaches it.
        EntropyFamily(tabulated([(0.01, -1.0), (1.0, 0.0), (2.0, 1.0), (3.0, -1.0),
                                 (10.0, -1.0)]), one_minus_q_alpha(), 1.0, validated=False),
    ], ids=["weierstrass", "narrow_table", "flat_phi", "negated_phi", "phi_crossing_zero"])
    def test_records_equal_direct_checks(self, family):
        cfg = CheckConfig(seed=3)
        report = run_full_report(family, cfg).to_dict()
        assert report["family"] == family.to_spec()
        convexity = report["checks"][CHECK_NAMES.index("convexity_of_I")]
        convexity["details"].pop("agrees_with_constraint_region")
        assert report["checks"] == _direct_records(family, cfg)

    def test_weierstrass_phi_once_per_distinct_q(self, monkeypatch):
        family = weierstrass_family()
        evaluated = {"phi": [], "alpha": []}
        float_calls = {"phi": [], "alpha": []}
        w_calls = []
        evaluate, W_sums = DeformationFunction._evaluate, qentropy.weierstrass._W_sums
        call = DeformationFunction.__call__

        def counted(func, qs):
            evaluated["alpha" if func is family.alpha else "phi"].extend(qs.tolist())
            return evaluate(func, qs)

        def counted_call(func, q):
            float_calls["alpha" if func is family.alpha else "phi"].append(q)
            return call(func, q)

        def counted_W(params, xs):
            w_calls.append(len(xs))
            return W_sums(params, xs)

        monkeypatch.setattr(DeformationFunction, "_evaluate", counted)
        monkeypatch.setattr(DeformationFunction, "__call__", counted_call)
        monkeypatch.setattr(qentropy.weierstrass, "_W_sums", counted_W)
        # A second report evaluates again: the memo lives for one call only.
        for _ in range(2):
            for qs in (*evaluated.values(), *float_calls.values(), w_calls):
                qs.clear()
            run_full_report(family, CheckConfig(seed=3))
            for qs in evaluated.values():
                assert len(qs) == len(set(qs))
            # The family's validation is the only float call; a check whose
            # q set the report does not fill would evaluate q by q here.
            assert float_calls == {"phi": [1.0], "alpha": [1.0]}
            # Validation, then one W call per q set: the continuity sweeps,
            # the grid, the Shannon offsets, the region grid, the limit q
            # and the derivative-limit probe's points.
            assert len(evaluated["phi"]) == sum(w_calls) == 343
            assert len(w_calls) == 7 and w_calls[0] == 1

    def test_fill_stores_python_floats_under_float_keys(self):
        memo = _Memo(weierstrass_family().phi)
        memo.fill([0.5, np.float64(0.75), 2, 0.5, 1.25])
        # Only Python float q are filled; the others are left to float calls.
        assert list(memo.values) == [0.5, 1.25]
        assert all(type(v) is float for v in memo.values.values())
        value = memo.values[0.5]
        memo.func = None  # a stored q is not evaluated again
        assert memo(0.5) is value

    def test_fill_leaves_out_what_cannot_be_evaluated(self):
        # A set with a q the function cannot evaluate is stored not at all:
        # each float call evaluates its q, and raises as it would unfilled.
        invalid = _Memo(weierstrass_family().phi)
        invalid.fill([0.5, math.nan, -1.0, 1.25])
        assert invalid.values == {}
        assert invalid(0.5) == invalid.func(0.5)
        with pytest.raises(DomainError, match=r"^q must be positive, got nan$"):
            invalid(math.nan)
        narrow = _Memo(tabulated([(0.5, -0.5), (2.0, 1.0)]))
        narrow.fill([0.1, 1.0, 3.0])
        assert narrow.values == {}
        assert narrow(1.0) == narrow.func(1.0)
        with pytest.raises(OutOfTableRange, match=r"^q=3.0 outside tabulated range"):
            narrow(3.0)
        overflowing = _Memo(power_family(3.0).phi)
        overflowing.fill([2.0, 1e200])
        assert overflowing.values == {}
        with pytest.raises(EvaluationError, match=r"^power_phi\(1e\+200\) = inf is not finite$"):
            overflowing(1e200)

    def test_power_overflow_is_not_applicable(self):
        # |q - 1|^3 at q = 1e200 is past the float range: the report raised.
        report = run_full_report(power_family(3.0), CheckConfig(q_grid=(0.5, 1e200)))
        reasons = {c.name: c.details["reason"] for c in report.checks
                   if c.verdict == "not_applicable" and c.name != "phi_derivative_at_1"}
        phi, alpha = (f"evaluation failed: power_{name}(1e+200) = {sign}inf is not finite"
                      for name, sign in (("phi", ""), ("alpha", "-")))
        assert reasons == {"maximality": alpha, "shannon_additivity": phi,
                           "generalized_additivity": alpha, "pseudoadditivity": alpha}
        assert report.check("expandability").details["off_shannon_gaps_informational"][
            "1e+200"] == [None] * 4

    def test_narrow_table_reasons(self):
        narrow = EntropyFamily(tabulated([(0.5, -0.5), (2.0, 1.0)]), one_minus_q_alpha(),
                               1.0, validated=False)
        report = run_full_report(narrow, CheckConfig(seed=0))
        reasons = {c.name: c.details["reason"] for c in report.checks
                   if c.verdict == "not_applicable"}
        below, above = (f"evaluation failed: q={q} outside tabulated range [0.5, 2.0]"
                        for q in (0.1, 3.0))
        assert reasons == {
            "continuity_probe": below, "maximality": above, "shannon_additivity": above,
            "generalized_additivity": above, "pseudoadditivity": above,
            "sign_condition": below, "constraint_region": below, "convexity_of_I": below,
        }

    def test_failing_evaluation_is_not_stored(self, monkeypatch):
        narrow = EntropyFamily(tabulated([(0.5, -0.5), (2.0, 1.0)]), one_minus_q_alpha(),
                               1.0, validated=False)
        calls, failed = Counter(), Counter()
        call = DeformationFunction.__call__

        def counted(func, q):
            if func is narrow.phi:
                calls[q] += 1
                try:
                    return call(func, q)
                except EvaluationError:
                    failed[q] += 1
                    raise
            return call(func, q)

        monkeypatch.setattr(DeformationFunction, "__call__", counted)
        run_full_report(narrow, CheckConfig(seed=3))
        # q = 3 lies outside the table: every check that asks raises again.
        assert failed[3.0] == calls[3.0] > 1
        assert all(calls[q] == 1 for q in calls if q not in failed)


class TestContinuity:
    def test_three_sweeps_of_200_points(self, monkeypatch):
        calls = []
        kernel = qentropy.axioms.entropies

        def counted(P, f, q, form="generalized"):
            calls.append((P, q))
            return kernel(P, f, q, form)

        monkeypatch.setattr(qentropy.axioms, "entropies", counted)
        rec = check_continuity(TSALLIS)
        assert sum(len(P) for P, _ in calls) == 600
        assert rec.sample_count == 597
        # The q sweep is 200 one-row calls; each segment sweep is one batch
        # of 200 rows that starts at the uniform.
        assert [len(P) for P, _ in calls] == [1] * 200 + [200, 200]
        uniform = (1 / 3, 1 / 3, 1 / 3)
        assert [(tuple(P[0]), q) for P, q in calls[200:]] == [(uniform, 0.5), (uniform, 2.0)]

    def test_evaluation_error_is_not_applicable(self):
        flat = EntropyFamily(tabulated([(0.01, 0.0), (10.0, 0.0)]), one_minus_q_alpha(),
                             1.0, validated=False)
        rec = check_continuity(flat)
        assert rec.verdict == "not_applicable"
        assert rec.details == {"reason": "evaluation failed: phi(0.1) = 0 away from q = 1"}
