"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; without -s pytest's own PASSED/FAILED per test carries the same
information.  Everything runs in well under a minute on one core.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qentropy.axioms import (
    check_constraint_region,
    check_convexity_of_I,
    check_maximality,
    run_full_report,
)
from qentropy.cli import main
from qentropy.deformation import (
    EntropyFamily,
    power_family,
    tabulated,
    tsallis_family,
    tsallis_phi,
    weierstrass_family,
)
from qentropy.entropy import (
    generalized_entropy,
    information_content,
    pseudoadditive_compose,
    suyari_entropy,
    trace_expectation,
)
from qentropy.simplex import Distribution, sample_refinement, sample_simplex
from qentropy.weierstrass import (
    WeierstrassParams,
    difference_quotients,
    eval_W,
    eval_phi_counterexample,
    nondifferentiability_probe,
    quotient_spread,
)

TSALLIS = tsallis_family(1.0)
Q_SET = (0.5, 0.9, 1.0, 1.1, 2.0, 3.0)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_tsallis_reduction():
    d2 = suyari_entropy(Distribution((0.5, 0.5)), TSALLIS, 2.0).value
    d3 = suyari_entropy(Distribution((0.5, 0.25, 0.25)), TSALLIS, 2.0).value
    _report(
        "1 tsallis reduction", abs(d2 - 0.5) <= 1e-15 and abs(d3 - 0.625) <= 1e-15,
        f"S_2(0.5,0.5)={d2!r}, S_2(0.5,0.25,0.25)={d3!r}",
    )


def test_criterion_2_shannon_limit():
    worst_rel = 0.0
    monotone = True
    for n, seed in ((2, 201), (3, 202), (5, 203)):
        for d in sample_simplex(n, 100, seed):
            s1 = generalized_entropy(d, TSALLIS, 1.0).value
            gap4 = max(
                abs(generalized_entropy(d, TSALLIS, 1.0 + 1e-4).value - s1),
                abs(generalized_entropy(d, TSALLIS, 1.0 - 1e-4).value - s1),
            )
            worst_rel = max(worst_rel, gap4 / (1.0 + s1))
            gaps = [
                max(
                    abs(generalized_entropy(d, TSALLIS, 1.0 + 10.0 ** (-j)).value - s1),
                    abs(generalized_entropy(d, TSALLIS, 1.0 - 10.0 ** (-j)).value - s1),
                )
                for j in (2, 3, 4, 5)
            ]
            monotone = monotone and all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(
        "2 shannon limit", worst_rel <= 1e-3 and monotone,
        f"max relative gap at h=1e-4: {worst_rel:.3e}, monotone: {monotone}",
    )


def test_criterion_3_generalized_additivity():
    from qentropy.axioms import _additivity_residuals, _chain_parts

    refinements = []
    for n, seed in ((1, 301), (2, 302), (3, 303), (4, 304)):
        refinements += sample_refinement(n, 4, 125, seed)
    assert len(refinements) == 500
    max_residual = 0.0
    bitwise = True
    parts = _chain_parts(refinements)
    for q in Q_SET:
        rs = _additivity_residuals(TSALLIS, parts, q, "suyari")
        rg = _additivity_residuals(TSALLIS, parts, q, "generalized")
        bitwise = bitwise and (rs == rg)
        max_residual = max(max_residual, *rs)
    _report(
        "3 generalized additivity", max_residual <= 1e-10 and bitwise,
        f"max residual {max_residual:.3e} over 500 refinements x 6 q, "
        f"modes bitwise equal: {bitwise}",
    )


def test_criterion_4_pseudoadditivity():
    rng = np.random.default_rng(401)
    p1, p2 = (1.0 - rng.random((1000, 2))).T
    worst = 0.0
    for q in Q_SET:
        joint = information_content(TSALLIS, q, p1 * p2)
        composed = pseudoadditive_compose(
            TSALLIS, q,
            information_content(TSALLIS, q, p1),
            information_content(TSALLIS, q, p2),
        )
        worst = max(worst, float(np.max(np.abs(joint - composed) / (1.0 + np.abs(joint)))))
    _report("4 pseudoadditivity", worst <= 1e-10,
            f"max relative residual {worst:.3e} over 1000 pairs x 6 q")


def test_criterion_5_expectation_identity():
    families = (TSALLIS, tsallis_family(2.0), power_family(2.0), weierstrass_family())
    dists = [Distribution(p) for p in [(0.5, 0.5), (0.5, 0.25, 0.25), (1.0,)]]
    dists += sample_simplex(3, 100, seed=501)
    dists += sample_simplex(5, 100, seed=502)
    worst = 0.0
    for fam in families:
        for d in dists:
            for q in Q_SET:
                worst = max(worst, abs(
                    trace_expectation(d, fam, q).value
                    - generalized_entropy(d, fam, q).value
                ))
    _report("5 expectation identity", worst <= 1e-12,
            f"max |trace - quotient form| = {worst:.3e}")


def test_criterion_6_weierstrass_values():
    ok = True
    details = []
    for a, b in ((0.3, 21), (0.5, 13), (0.7, 9)):
        p = WeierstrassParams(a, b, 1e-12)
        w0_gap = abs(eval_W(p, 0.0) - 1.0 / (1.0 - a))
        ok = ok and w0_gap <= p.eps
        details.append(f"a={a}: |W(0)-1/(1-a)|={w0_gap:.2e}")
    p = WeierstrassParams(0.5, 13, 1e-12)
    bound = 1.0 / (1.0 - p.a) + p.eps
    worst = max(abs(eval_W(p, float(x))) for x in np.linspace(-2.0, 2.0, 10_000))
    ok = ok and worst <= bound
    details.append(f"max |W| on grid = {worst:.12f} <= {bound}")
    _report("6 weierstrass values", ok, "; ".join(details))


def _7a_envelope(a: float, b: int, h: float) -> tuple[float, float]:
    """Bounds L <= W(0) - W(h) <= U on sum_n a^n (1 - cos(b^n pi h)), h > 0.

    L is the largest single term, its angle b^n h reduced mod 2 exactly with
    Fraction.  U bounds each term by a^n min(2, (b^n pi h)^2 / 2); every term
    of U is nondecreasing in h, and so is U.
    """
    upper, n = 0.0, 0
    while (b**n * math.pi * h) ** 2 / 2 < 2:
        upper += a**n * (b**n * math.pi * h) ** 2 / 2
        n += 1
    upper += 2 * a**n / (1 - a)  # every later term is capped at 2 a^n
    lower, n = 0.0, 0
    while 2 * a**n > lower:  # no later term can exceed 2 a^n
        angle = float(Fraction(h) * b**n % 2)
        lower = max(lower, 2 * a**n * math.sin(math.pi * angle / 2) ** 2)
        n += 1
    return lower, upper


def _7a_reference(a: float, b: int, k: float, h: float):
    """(W(0) - W(h)) / (3 k W(0)) of the untruncated series, to 50 digits.

    b^n h is formed exactly (fmul with exact=True) and reduced mod 2 by
    mpmath's exact fmod; the reduced angle has at most 103 bits for
    h >= 1e-15, so it is held exactly at 50 digits (166 bits).  Terms are summed until the remaining tail
    sum_{m>=n} 2 a^m = 2 a^n W(0) is below 1e-50.
    """
    import mpmath

    with mpmath.workdps(50):
        a, k, h = mpmath.mpf(a), mpmath.mpf(k), mpmath.mpf(h)
        w0 = 1 / (1 - a)
        total, an, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while 2 * an * w0 > mpmath.mpf(10) ** -50:
            angle = mpmath.fmod(mpmath.fmul(b**n, h, exact=True), 2)
            total += 2 * an * mpmath.sinpi(angle / 2) ** 2
            an *= a
            n += 1
        return total / (3 * k * w0)


def test_criterion_7a_quotient_at_fixed_h():
    # phi'(1) = 1/k for the counterexample phi, and the quotient deviation
    # has the closed form
    #     dev(h) = 1/k - phi(1+h)/h = (W(0) - W(h)) / (3 k W(0)),
    #     W(0) - W(h) = sum_n a^n (1 - cos(b^n pi h)) >= 0,  W(0) = 1/(1-a).
    # That is a limit with no promised rate: dev decays at the Hoelder rate
    # under an oscillating envelope, and at h = 1e-6 (a = 0.5, b = 13) the
    # term n = 6 alone puts dev above 4.8e-3/k, so "within 1e-3 at h = 1e-6"
    # is false for any correct implementation.  On the decade offsets
    # h = (1 + 10^-j) - 1, j = 6..15, and k in {1, 2} the test asserts:
    #   * the envelope L(h) <= 3kW(0) dev(h) <= U(h) (see _7a_envelope);
    #   * |dev| <= 1e-3 at every offset h <= h*, where h* is the largest
    #     offset with U(h*)/(3kW(0)) <= 1e-3.  U is nondecreasing, so the
    #     bound is guaranteed there; dev itself is not monotone (it rises
    #     from h = 1e-13 to h = 1e-14);
    #   * dev equals the 50-digit mpmath reference within the truncation
    #     guarantee 2 eps/(3kW(0)) (each truncated W is within eps of W)
    #     plus 16 ulps of 1/k for rounding.
    # That same tolerance pads the envelope, since it bounds the distance
    # between the library's dev and the exact one.
    p = WeierstrassParams(0.5, 13, 1e-12)
    w0 = 1.0 / (1.0 - p.a)
    hs = [(1.0 + 10.0**-j) - 1.0 for j in range(6, 16)]
    bounds = [_7a_envelope(p.a, p.b, h) for h in hs]
    criterion = "7a phi'(1)=1/k: Hoelder envelope, within 1e-3 for h<=h*, mpmath reference"
    ok = True
    details = []
    devs, tols = {}, {}
    for k in (1.0, 2.0):
        scale = 3.0 * k * w0
        tols[k] = 2.0 * p.eps / scale + 16 * math.ulp(1.0 / k)
        devs[k] = [1.0 / k - eval_phi_counterexample(p, k, 1.0 + h) / h for h in hs]
        in_envelope = all(
            lower / scale - tols[k] <= dev <= upper / scale + tols[k]
            for dev, (lower, upper) in zip(devs[k], bounds)
        )
        h_star = max(
            (h for h, (_, upper) in zip(hs, bounds) if upper / scale <= 1e-3),
            default=0.0,
        )
        within = h_star > 0.0 and all(
            abs(dev) <= 1e-3 for h, dev in zip(hs, devs[k]) if h <= h_star
        )
        ok = ok and in_envelope and within
        worst = max(dev / (upper / scale) for dev, (_, upper) in zip(devs[k], bounds))
        details.append(
            f"k={k}: in envelope={in_envelope}, h*={h_star:.0e}, "
            f"|dev|<=1e-3 for h<=h*: {within}, max dev/(U/3kW0)={worst:.3f}"
        )
    if not ok:
        _report(criterion, ok, "; ".join(details))
    pytest.importorskip("mpmath")
    for k in (1.0, 2.0):
        gap = max(
            abs(dev - float(_7a_reference(p.a, p.b, k, h)))
            for h, dev in zip(hs, devs[k])
        )
        ok = ok and gap <= tols[k]
        details.append(f"k={k}: max |dev - mpmath| = {gap:.2e} <= {tols[k]:.2e}")
    _report(criterion, ok, "; ".join(details))


def test_criterion_7b_off_one_spread():
    p = WeierstrassParams(0.5, 13, 1e-12)
    threshold = 1.0  # calibrated against the smooth control below
    ok = True
    details = []
    for q0 in (1.3,):
        probe = nondifferentiability_probe(p, q0 - 1.0, 8)
        ok = ok and probe.spread > threshold
        details.append(f"W spread at x={q0 - 1.0}: {probe.spread:.4g}")
    control = quotient_spread(difference_quotients(lambda t: t * t, 0.0, 13, 8))
    ok = ok and control < 1e-3
    details.append(f"smooth control spread: {control:.4g}")
    _report("7b off-1 spread", ok, "; ".join(details))


def test_criterion_7c_axiom_report_for_weierstrass():
    ok = True
    details = []
    for k in (1.0, 2.0):
        report = run_full_report(weierstrass_family(k=k))
        passes = all(
            report.check(name).verdict == "pass"
            for name in ("sign_condition", "shannon_limit", "phi_derivative_at_1")
        )
        probe_na = report.check("derivative_limit_probe").verdict == "not_applicable"
        ok = ok and passes and probe_na and report.all_pass
        details.append(
            f"k={k}: sign/limit/derivative pass={passes}, "
            f"probe non-convergent={probe_na}"
        )
    _report("7c counterexample report", ok, "; ".join(details))


def test_criterion_8_region_convexity_agreement():
    grid = tuple(float(q) for q in np.linspace(0.1, 3.9, 50) if abs(q - 1.0) > 1e-9)
    invalid = EntropyFamily(
        tsallis_phi(1.0), tabulated([(0.01, 0.5), (10.0, 0.5)]), 1.0,
        validated=False,
    )
    families = {
        "tsallis k=1": TSALLIS,
        "tsallis k=2": tsallis_family(2.0),
        "power composite": power_family(2.0),
        "constant alpha=0.5": invalid,
    }
    ok = True
    details = []
    for label, fam in families.items():
        region = check_constraint_region(fam, grid)
        convexity = check_convexity_of_I(fam, grid)
        by_q_region = {r["q"]: r["comply"] for r in region.details["per_q"]}
        by_q_convex = {r["q"]: r["comply"] for r in convexity.details["per_q"]}
        agree = by_q_region == by_q_convex
        ok = ok and agree
        details.append(f"{label}: agree={agree}")
        if fam is invalid:
            maximality = check_maximality(fam, (2.0,), (2, 3), 200, seed=0)
            failing = (
                region.verdict == "fail"
                and convexity.verdict == "fail"
                and maximality.verdict == "fail"
                and len(maximality.witnesses) >= 1
            )
            ok = ok and failing
            details.append(f"invalid family fails all three with witness: {failing}")
    _report("8 region/convexity agreement", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    spec = {"phi": {"kind": "tsallis_phi"},
            "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0}
    fam = tmp_path / "tsallis.json"
    fam.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        rc = main(["axioms", "--family", str(fam), "--seed", "11",
                   "--samples", "100", "--output", str(out)])
        assert rc == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report("9 determinism", identical,
            f"two seeded runs byte-identical: {identical}")
