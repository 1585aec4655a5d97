"""Numerical checks of the generalized Shannon-Khinchin axioms.

Each check evaluates one axiom or validity condition for a given entropy
family and returns a CheckRecord (q values, sample count, max residual,
threshold, verdict, worst witnesses).  run_full_report runs them all and
aggregates into an AxiomReport whose JSON serialization is byte-identical
for identical (family, config, seed).

Thresholds fall in two classes: algebraic identities are held to 1e-10
(machine precision with headroom) while genuine limits get looser
tolerances, because a family built on a nowhere differentiable deformation
converges to its q -> 1 limits at a Hoelder rate rather than linearly.
Each threshold is a constant of its check, recorded in the report.

Randomized checks derive an independent stream from (seed, check name) so
checks can run in any order, or concurrently, without perturbing results.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .deformation import EntropyFamily
from .entropy import (
    _stack,
    _vanishing_phi,
    entropies,
    generalized_entropy,
    information_content,
    pseudoadditive_compose,
)
from .errors import EvaluationError, InputError, QentropyError
from .simplex import (
    Distribution,
    Refinement,
    sample_refinement,
    sample_simplex,
    uniform_distribution,
)

CHECK_NAMES = (
    "continuity_probe",
    "maximality",
    "expandability",
    "shannon_additivity",
    "generalized_additivity",
    "pseudoadditivity",
    "shannon_limit",
    "sign_condition",
    "phi_derivative_at_1",
    "alpha_phi_limit",
    "constraint_region",
    "convexity_of_I",
    "derivative_limit_probe",
)

# 50 points over (0, 4) avoiding q = 1 exactly; shared by the region,
# convexity, and sign checks so their per-q verdicts are comparable.
REGION_Q_GRID = tuple(
    float(q) for q in np.linspace(0.1, 3.9, 50) if abs(q - 1.0) > 1e-9
)
# The q -> 1 limit checks probe |q - 1| = 10^-j down to 1e-15, the smallest
# offset from 1.0 that doubles resolve cleanly; quotients always divide by
# the representable offset.
_LIMIT_SCALES = tuple(range(3, 16))
_LIMIT_TOL = 1e-4


@dataclass(frozen=True)
class CheckConfig:
    """The report's sample sizes and seed; defaults run in seconds on one core."""

    q_grid: tuple[float, ...] = (0.5, 0.9, 1.0, 1.1, 2.0, 3.0)
    dims: tuple[int, ...] = (2, 3, 5)
    seed: int = 0
    maximality_samples: int = 200
    pseudo_samples: int = 400


@dataclass
class CheckRecord:
    """Outcome of one check.  verdict is pass, fail, or not_applicable;
    pass holds exactly when max_residual <= threshold."""

    name: str
    q_values: tuple[float, ...]
    sample_count: int
    max_residual: float | None
    threshold: float
    verdict: str
    witnesses: tuple[dict, ...] = ()
    details: dict = field(default_factory=dict)


def _not_applicable(
    name: str,
    q_values: Sequence[float],
    threshold: float,
    reason: str,
    details: dict | None = None,
) -> CheckRecord:
    merged = {"reason": reason}
    merged.update(details or {})
    return CheckRecord(
        name=name,
        q_values=tuple(float(q) for q in q_values),
        sample_count=0,
        max_residual=None,
        threshold=threshold,
        verdict="not_applicable",
        witnesses=(),
        details=merged,
    )


def _check_seed(seed: int, name: str) -> int:
    """Independent deterministic seed per (seed, check name)."""
    return int.from_bytes(f"{seed}:{name}".encode(), "big")


def _worst(witnesses: list[tuple[float, dict]], keep: int = 3) -> tuple[dict, ...]:
    witnesses.sort(key=lambda t: t[0], reverse=True)
    return tuple(w for _, w in witnesses[:keep])


class _Residuals:
    """Running max residual, sample count and over-threshold witnesses of
    every check.  Used as a context manager around the check's evaluations:
    an EvaluationError ends them and record() then reports not_applicable.
    """

    def __init__(self, name: str, q_values: Sequence[float], threshold: float,
                 start: float = 0.0) -> None:
        self.name = name
        self.q_values = q_values
        self.threshold = threshold
        self.max_residual = start
        self.count = 0
        self.witnesses: list[tuple[float, dict]] = []
        self.error: Exception | None = None

    def __enter__(self) -> "_Residuals":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, EvaluationError):
            self.error = exc
            return True
        return False

    def add(self, residual: float, witness: Callable[[], dict]) -> None:
        """Count one sample; witness() is built only over the threshold."""
        self.count += 1
        if residual > self.max_residual:
            self.max_residual = residual
        if residual > self.threshold:
            self.witnesses.append((residual, witness()))

    def record(self, q_values: Sequence[float] | None = None,
               sample_count: int | None = None,
               details: dict | None = None) -> CheckRecord:
        """pass when max_residual <= threshold, else fail; not_applicable
        after an evaluation error."""
        if self.error is not None:
            return _not_applicable(self.name, self.q_values, self.threshold,
                                   f"evaluation failed: {self.error}")
        return CheckRecord(
            name=self.name,
            q_values=tuple(float(q) for q in
                           (self.q_values if q_values is None else q_values)),
            sample_count=self.count if sample_count is None else sample_count,
            max_residual=self.max_residual,
            threshold=self.threshold,
            verdict="pass" if self.max_residual <= self.threshold else "fail",
            witnesses=_worst(self.witnesses),
            details=details or {},
        )


class _Memo:
    """A deformation function evaluated at most once per q.  Only values are
    stored: a q that raised raises again, from the function itself.  The key
    holds the type of q, because a numpy q can give a numpy result."""

    def __init__(self, func: Callable[[float], float]) -> None:
        self.func = func
        self.values: dict = {}

    def __call__(self, q: float) -> float:
        key = (type(q), q)
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = self.func(q)
        return value


def _is_tsallis_alpha(f: EntropyFamily, q_grid: Sequence[float]) -> bool:
    """True when alpha(q) coincides with 1 - q on the grid."""
    try:
        return all(abs(f.alpha(q) - (1.0 - q)) <= 1e-9 for q in q_grid)
    except QentropyError:
        return False


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_maximality(
    f: EntropyFamily,
    q_grid: Sequence[float],
    n_set: Sequence[int],
    samples: int,
    seed: int,
) -> CheckRecord:
    """Entropy of random simplex points never exceeds the uniform value."""
    name = "maximality"
    with _Residuals(name, q_grid, 1e-10, start=-math.inf) as acc:
        for n in n_set:
            points = sample_simplex(n, samples, _check_seed(seed, name) + n)
            # The uniform is row 0, so it is evaluated first at every q.
            P = np.array([uniform_distribution(n).probs] + [d.probs for d in points])
            for q in q_grid:
                s_uniform, *values = entropies(P, f, q)
                for d, entropy in zip(points, values):
                    residual = entropy - s_uniform
                    acc.add(residual, lambda: {
                        "q": q,
                        "n": n,
                        "probs": list(d.probs),
                        "entropy": entropy,
                        "uniform_entropy": s_uniform,
                        "residual": residual,
                    })
    return acc.record()


def check_expandability(
    f: EntropyFamily,
    dists: Sequence[Distribution],
    q_grid: Sequence[float] = (),
) -> CheckRecord:
    """Appending a zero-probability outcome leaves S_1 unchanged.

    The same comparison at q != 1 is reported informationally in details,
    since the axiom is only stated at q = 1.
    """
    acc = _Residuals("expandability", (1.0,), 1e-12)
    for d in dists:
        gap = abs(
            generalized_entropy(d.append_zero(), f, 1.0).value
            - generalized_entropy(d, f, 1.0).value
        )
        acc.add(gap, lambda: {"probs": list(d.probs), "gap": gap})
    off_shannon = {}
    for q in q_grid:
        if q == 1.0:
            continue
        gaps = []
        for d in dists:
            try:
                gaps.append(abs(
                    generalized_entropy(d.append_zero(), f, q).value
                    - generalized_entropy(d, f, q).value
                ))
            except EvaluationError:
                gaps.append(None)
        off_shannon[repr(q)] = gaps
    return acc.record(details={"off_shannon_gaps_informational": off_shannon})


def _chain_parts(refinements: Sequence[Refinement]) -> tuple:
    """The q-independent pieces of the chain rule for a set of refinements,
    stacked for entropies(): the flattened joints, the marginals, and the
    conditionals of the nonzero rows with their p_i and the index of their
    refinement."""
    flats, margs, conds, weights, owners = [], [], [], [], []
    for j, r in enumerate(refinements):
        marg = r.marginals().probs
        flats.append(r.flatten().probs)
        margs.append(marg)
        for i, p_i in enumerate(marg):
            if p_i != 0.0:
                conds.append(r.conditional(i).probs)
                weights.append(p_i)
                owners.append(j)
    return _stack(flats), _stack(margs), _stack(conds), weights, owners


def _additivity_residuals(f: EntropyFamily, parts: tuple, q: float,
                          mode: str) -> list[float]:
    """|LHS - RHS| of the generalized Shannon additivity for each refinement
    of a _chain_parts set.

    mode selects the weight exponent: "suyari" uses p_i^q with the
    exponent-q entropy, "generalized" uses p_i^(1 - alpha(q)) with the
    generalized entropy.  Zero-marginal rows are skipped: their weight is 0
    whenever the exponent is positive, matching the limit of the sum.
    """
    flats, margs, conds, weights, owners = parts
    exponent = q if mode == "suyari" else 1.0 - f.alpha(q)
    if exponent <= 0.0 and (margs == 0.0).any():
        raise EvaluationError(
            f"zero marginal with weight exponent {exponent!r} <= 0"
        )
    lhs = entropies(flats, f, q, mode)
    terms = [[s] for s in entropies(margs, f, q, mode)]
    for p_i, j, s in zip(weights, owners, entropies(conds, f, q, mode)):
        terms[j].append(p_i**exponent * s)
    return [abs(s - math.fsum(t)) for s, t in zip(lhs, terms)]


def check_generalized_additivity(
    f: EntropyFamily,
    q_grid: Sequence[float],
    refinements: Sequence[Refinement],
    mode: str = "generalized",
) -> CheckRecord:
    """Chain rule over refinements: S(joint) = S(marginals) + weighted
    conditional entropies."""
    if mode not in ("suyari", "generalized"):
        raise InputError(f"unknown mode {mode!r}")
    name = "shannon_additivity" if mode == "suyari" else "generalized_additivity"
    with _Residuals(name, q_grid, 1e-10) as acc:
        parts = _chain_parts(refinements)
        for q in q_grid:
            for r, residual in zip(refinements, _additivity_residuals(f, parts, q, mode)):
                acc.add(residual, lambda: {
                    "q": q,
                    "rows": [list(row) for row in r.rows],
                    "residual": residual,
                })
    return acc.record(details={"mode": mode})


def check_pseudoadditivity(
    f: EntropyFamily,
    q_grid: Sequence[float],
    samples: int,
    seed: int,
) -> CheckRecord:
    """I(p1 p2) equals the pseudoadditive composition of I(p1) and I(p2),
    relative to 1 + |I(p1 p2)|."""
    name = "pseudoadditivity"
    rng = np.random.default_rng(_check_seed(seed, name))
    pairs = 1.0 - rng.random((samples, 2))  # values in (0, 1]
    with _Residuals(name, q_grid, 1e-10) as acc:
        for q in q_grid:
            for p1, p2 in pairs:
                p1, p2 = float(p1), float(p2)
                joint = information_content(f, q, p1 * p2)
                composed = pseudoadditive_compose(
                    f, q,
                    information_content(f, q, p1),
                    information_content(f, q, p2),
                )
                residual = abs(joint - composed) / (1.0 + abs(joint))
                acc.add(residual, lambda: {
                    "q": q, "p1": p1, "p2": p2, "residual": residual,
                })
    return acc.record()


def check_shannon_limit(
    f: EntropyFamily,
    dists: Sequence[Distribution],
) -> CheckRecord:
    """S_q approaches S_1 as q -> 1 from both sides.

    For each distribution, gap_j = max(|S_{1+h_j} - S_1|, |S_{1-h_j} - S_1|)
    at h_j = 10^-j.  Pass requires the gaps to decrease overall (last <=
    first) and the final gap to be below tol * (1 + S_1).  Strict per-step
    monotonicity is reported in details but not required: deformations that
    are merely Hoelder continuous approach the limit under an oscillating
    envelope.  The scales stop at 1e-6.  That floor is a choice of this
    check, not a limit of the entropy code, which evaluates the plain
    quotient for every q != 1.
    """
    scales = (2, 3, 4, 5, 6)
    tol = 1e-2
    gap_detail = {}
    with _Residuals("shannon_limit", [1.0 + 10.0 ** (-j) for j in scales],
                    tol) as acc:
        for d in dists:
            s1 = generalized_entropy(d, f, 1.0).value
            gaps = []
            for j in scales:
                h = 10.0 ** (-j)
                gap = max(
                    abs(generalized_entropy(d, f, 1.0 + h).value - s1),
                    abs(generalized_entropy(d, f, 1.0 - h).value - s1),
                )
                gaps.append(gap)
            monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
            gap_detail[repr(list(d.probs))] = {
                "gaps": gaps,
                "strictly_decreasing": monotone,
            }
            final_rel = gaps[-1] / (1.0 + s1)
            decreasing = gaps[-1] <= gaps[0] or gaps[-1] == 0.0
            # A gap sequence that grows fails with 1e300, not inf, which
            # would not be valid JSON.
            residual = final_rel if decreasing else 1e300
            acc.add(residual, lambda: {
                "probs": list(d.probs),
                "gaps": gaps,
                "final_relative_gap": final_rel,
            })
    return acc.record(sample_count=len(dists) * len(scales),
                      details={"gaps": gap_detail})


def _limit_at_1(
    name: str,
    func: Callable[[float], float],
    target: float,
    value_name: str,
    detail_name: str,
) -> CheckRecord:
    """func at q = 1 +/- 10^-j, j in _LIMIT_SCALES, approaches target from
    both sides.

    Pass requires the deviation at the deepest scale below _LIMIT_TOL on both
    sides, without net growth from the first scale.  The witness names the
    deepest values value_name + "_above"/"_below"; details hold, per scale
    and side, the deviations when detail_name is "deviations", else the
    values.
    """
    hs = [10.0 ** (-j) for j in _LIMIT_SCALES]
    details = {}
    with _Residuals(name, [], _LIMIT_TOL) as acc:
        pairs = [(func(1.0 + h), func(1.0 - h)) for h in hs]
        above = [a for a, _ in pairs]
        below = [b for _, b in pairs]
        dev_above = [abs(v - target) for v in above]
        dev_below = [abs(v - target) for v in below]
        converged = (
            dev_above[-1] <= dev_above[0] and dev_below[-1] <= dev_below[0]
        ) or (dev_above[-1] == 0.0 and dev_below[-1] == 0.0)
        residual = max(dev_above[-1], dev_below[-1]) if converged else 1e300
        acc.add(residual, lambda: {
            "target": target,
            f"{value_name}_above": above[-1],
            f"{value_name}_below": below[-1],
        })
        shown = (dev_above, dev_below) if detail_name == "deviations" else (above, below)
        details[f"{detail_name}_above"], details[f"{detail_name}_below"] = shown
    return acc.record([1.0 + h for h in hs], 2 * len(hs), details)


def check_alpha_phi_limit(f: EntropyFamily) -> CheckRecord:
    """alpha(q)/phi(q) -> -k as q -> 1, from both sides.

    Pass requires the deviation |ratio + k| at the deepest scale to be below
    _LIMIT_TOL on both sides and not to exceed the first-scale deviation.
    """

    def ratio(q: float) -> float:
        alpha_q = f.alpha(q)
        phi_q = f.phi(q)
        if phi_q == 0.0:
            raise _vanishing_phi(q)
        return alpha_q / phi_q

    return _limit_at_1("alpha_phi_limit", ratio, -f.k, "ratio", "deviations")


def check_phi_derivative_at_1(
    phi: Callable[[float], float],
    k: float,
) -> CheckRecord:
    """One-sided difference quotients of phi at q = 1 converge to 1/k.

    Quotients divide by the representable offset (1 + h) - 1, which is exact
    near 1, so deep scales stay meaningful.  Pass requires the deviation at
    the deepest scale below _LIMIT_TOL on both sides, without net growth.
    """
    name = "phi_derivative_at_1"
    with _Residuals(name, [], _LIMIT_TOL) as acc:
        phi_1 = phi(1.0)
    if acc.error is not None:
        return acc.record()
    if abs(phi_1) > 1e-12:
        return _not_applicable(name, [], _LIMIT_TOL, f"phi(1) = {phi_1!r}, expected 0")

    def quotient(q: float) -> float:
        h = q - 1.0  # exact for q near 1 (Sterbenz)
        return (phi(q) - phi_1) / h

    return _limit_at_1(name, quotient, 1.0 / k, "quotient", "quotients")


def check_sign_condition(
    f: EntropyFamily,
    q_grid: Sequence[float],
) -> CheckRecord:
    """phi has the sign of q - 1 and does not vanish away from q = 1.

    The residual is the number of violating grid points, so the record
    stays meaningful when the only violation is an exact zero.
    """
    with _Residuals("sign_condition", q_grid, 0.0) as acc:
        for q in q_grid:
            if abs(q - 1.0) <= 1e-12:
                continue
            phi_q = f.phi(q)
            if phi_q == 0.0 or math.copysign(1.0, phi_q) != math.copysign(1.0, q - 1.0):
                acc.witnesses.append((abs(phi_q) + 1.0, {"q": q, "phi": phi_q}))
        acc.max_residual = float(len(acc.witnesses))
    return acc.record(sample_count=len(q_grid))


def check_constraint_region(
    f: EntropyFamily,
    q_grid: Sequence[float],
) -> CheckRecord:
    """alpha lies in (-inf, 0] where phi > 0 and in [0, 1] where phi < 0.

    The residual is the largest distance from the admissible interval;
    per-q compliance is recorded for cross-validation against convexity.
    """
    tol = 1e-12
    per_q = []
    with _Residuals("constraint_region", q_grid, tol) as acc:
        for q in q_grid:
            if abs(q - 1.0) <= 1e-12:
                continue
            phi_q = f.phi(q)
            alpha_q = f.alpha(q)
            if phi_q > 0.0:
                excess = max(0.0, alpha_q)
            elif phi_q < 0.0:
                excess = max(0.0, -alpha_q, alpha_q - 1.0)
            else:
                # phi = 0 off 1 belongs to the sign condition, not here.
                per_q.append({"q": q, "phi": phi_q, "alpha": alpha_q,
                              "comply": None})
                continue
            per_q.append({"q": q, "phi": phi_q, "alpha": alpha_q,
                          "excess": excess, "comply": excess <= tol})
            acc.add(excess, lambda: {"q": q, "phi": phi_q,
                                     "alpha": alpha_q, "excess": excess})
    return acc.record(details={"per_q": per_q})


def check_convexity_of_I(
    f: EntropyFamily,
    q_grid: Sequence[float],
) -> CheckRecord:
    """Information content is convex in p for every fixed q.

    Second divided differences of I_q over a 32-point geometric grid in
    [1e-3, 1] must not fall below -1e-9 (divided differences generalize the
    second central difference to the unequal spacing of a geometric grid).
    """
    tol = 1e-9
    ps = [math.exp(t) for t in np.linspace(math.log(1e-3), 0.0, 32)]
    ps[-1] = 1.0
    per_q = []
    with _Residuals("convexity_of_I", q_grid, tol, start=-math.inf) as acc:
        for q in q_grid:
            values = [information_content(f, q, p) for p in ps]
            witnesses_before = len(acc.witnesses)
            for (x1, v1), (x2, v2), (x3, v3) in zip(
                zip(ps, values), zip(ps[1:], values[1:]), zip(ps[2:], values[2:])
            ):
                dd = ((v3 - v2) / (x3 - x2) - (v2 - v1) / (x2 - x1)) / (x3 - x1)
                acc.add(-dd, lambda: {
                    "q": q, "p": x2, "second_divided_difference": dd,
                })
            # q complies when none of its differences went over tol.
            per_q.append({"q": q, "comply": len(acc.witnesses) == witnesses_before})
    return acc.record(details={"per_q": per_q})


def check_continuity(f: EntropyFamily) -> CheckRecord:
    """Heuristic continuity probe, not a proof.

    Three sweeps of 200 points each: S_q over a dense q grid for a fixed
    distribution, then S along a simplex segment at q = 0.5 and at q = 2.
    The largest of their 597 discrete slopes is compared against ``100 k``
    (entropy, and hence its slope, carries units of k).  A jump
    discontinuity would blow the slope up as the grid refines; smooth and
    Hoelder-continuous families stay far below.
    """
    d_fixed = np.array([[0.5, 0.25, 0.25]])
    qs = np.linspace(0.1, 4.0, 200).tolist()
    # The points at t on the segment from the uniform toward (1, 0, 0),
    # built once for both segment sweeps.
    ts = np.linspace(0.0, 0.98, 200).tolist()
    corners = [[(1.0 - t) / 3.0 + (t if i == 0 else 0.0) for i in range(3)] for t in ts]
    segment = np.array([[x / math.fsum(p) for x in p] for p in corners])
    slopes = []
    with _Residuals("continuity_probe", (), 100.0 * f.k) as acc:
        # Each sweep: its grid, S over the grid, and the witness naming a point.
        sweeps = [(qs, [entropies(d_fixed, f, q)[0] for q in qs],
                   lambda x: {"direction": "q", "q": x})]
        for q in (0.5, 2.0):
            sweeps.append((ts, entropies(segment, f, q),
                           lambda t, q=q: {"direction": "p", "q": q, "t": t}))
        for xs, values, where in sweeps:
            slopes += [(abs(v1 - v0) / (x1 - x0), where, x1)
                       for x0, x1, v0, v1 in zip(xs, xs[1:], values, values[1:])]
        slope, where, x1 = max(slopes, key=lambda s: s[0])
        acc.add(slope, lambda: dict(where(x1), slope=slope))
    return acc.record(sample_count=len(slopes),
                      details={"note": "heuristic slope bound, not conclusive"})


def derivative_limit_probe(
    g: Callable[[float], float],
    x0: float,
) -> CheckRecord:
    """Numerical illustration of the mean-value argument behind taking
    derivative limits: estimate g'(x0) directly (symmetric quotients) and
    via derivative estimates at nearby points x0 +/- delta.

    For a function with a continuous derivative near x0 both routes converge
    and agree.  When the nearby-point estimates fail to settle the verdict
    is not_applicable: the hypothesis is not met, which is exactly what
    happens for a nowhere differentiable deformation away from q = 1.
    """
    name = "derivative_limit_probe"
    scales = 10
    tol = 1e-3
    hs = [0.05 * 2.0 ** (-m) for m in range(scales)]
    tail = max(2, scales // 3)

    def settled(seq: list[float]) -> tuple[bool, float]:
        spread = max(seq[-tail:]) - min(seq[-tail:])
        return spread <= tol * (1.0 + abs(seq[-1])), spread

    details = {"x0": x0}
    with _Residuals(name, (x0,), tol) as acc:
        direct = [(g(x0 + h) - g(x0 - h)) / (2.0 * h) for h in hs]
        nearby_plus = []
        nearby_minus = []
        for h in hs:
            s = h / 64.0
            nearby_plus.append((g(x0 + h + s) - g(x0 + h - s)) / (2.0 * s))
            nearby_minus.append((g(x0 - h + s) - g(x0 - h - s)) / (2.0 * s))
        ok_direct, spread_direct = settled(direct)
        ok_plus, spread_plus = settled(nearby_plus)
        ok_minus, spread_minus = settled(nearby_minus)
        details.update({
            "direct_estimate": direct[-1],
            "nearby_estimates": [nearby_plus[-1], nearby_minus[-1]],
            "spreads": {
                "direct": spread_direct,
                "nearby_above": spread_plus,
                "nearby_below": spread_minus,
            },
        })
        if not (ok_direct and ok_plus and ok_minus):
            return _not_applicable(
                name, (x0,), tol,
                "difference quotients do not converge near x0; "
                "derivative-limit reasoning does not apply",
                details,
            )
        mismatch = max(abs(nearby_plus[-1] - direct[-1]),
                       abs(nearby_minus[-1] - direct[-1]))
        acc.add(mismatch / (1.0 + abs(direct[-1])), lambda: dict(details))
    return acc.record(sample_count=3 * scales, details=details)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    """Family spec echo, config echo, and the ordered check records."""

    family: dict
    config: dict
    checks: list[CheckRecord]

    def check(self, name: str) -> CheckRecord:
        for rec in self.checks:
            if rec.name == name:
                return rec
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(rec.verdict != "fail" for rec in self.checks)

    @property
    def failed_names(self) -> list[str]:
        return [rec.name for rec in self.checks if rec.verdict == "fail"]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "config": self.config,
            "checks": [asdict(rec) for rec in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"


def run_full_report(f: EntropyFamily, config: CheckConfig | None = None) -> AxiomReport:
    """Run every check against the family; deterministic for a fixed seed.

    The checks share one evaluation of phi and alpha per q, memoized for
    this call only.  (replace() re-runs the family's validation, which
    merely fills the memo at q = 1.)
    """
    cfg = config or CheckConfig()
    echo = f.to_spec()
    f = replace(f, phi=_Memo(f.phi), alpha=_Memo(f.alpha))
    dists = [Distribution(p) for p in
             ((1.0,), (0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25))]
    refinements = sample_refinement(4, 4, 60, _check_seed(cfg.seed, "additivity"))
    checks = [
        check_continuity(f),
        check_maximality(f, cfg.q_grid, cfg.dims, cfg.maximality_samples, cfg.seed),
        check_expandability(f, dists, cfg.q_grid),
        check_generalized_additivity(f, cfg.q_grid, refinements, mode="suyari"),
        check_generalized_additivity(f, cfg.q_grid, refinements, mode="generalized"),
        check_pseudoadditivity(f, cfg.q_grid, cfg.pseudo_samples, cfg.seed),
        check_shannon_limit(f, [d for d in dists if len(d) > 1]),
        check_sign_condition(f, REGION_Q_GRID),
        (
            check_phi_derivative_at_1(f.phi, f.k)
            if _is_tsallis_alpha(f, REGION_Q_GRID)
            else _not_applicable(
                "phi_derivative_at_1", (), _LIMIT_TOL,
                "phi'(1) = 1/k characterizes the exponent-q reduction "
                "alpha(q) = 1 - q; this family has a different alpha",
            )
        ),
        check_alpha_phi_limit(f),
        check_constraint_region(f, REGION_Q_GRID),
        check_convexity_of_I(f, REGION_Q_GRID),
        derivative_limit_probe(f.phi, 1.3),
    ]
    # The region and convexity checks test equivalent conditions; their
    # per-q verdicts must agree, and the comparison travels with the report.
    region = next(c for c in checks if c.name == "constraint_region")
    convexity = next(c for c in checks if c.name == "convexity_of_I")
    agreement = _region_convexity_agreement(region, convexity)
    convexity.details["agrees_with_constraint_region"] = agreement
    return AxiomReport(
        family=echo,
        config=asdict(cfg),
        checks=checks,
    )


def _region_convexity_agreement(region: CheckRecord, convexity: CheckRecord) -> bool | None:
    if region.verdict == "not_applicable" or convexity.verdict == "not_applicable":
        return None
    region_by_q = {
        rec["q"]: rec["comply"] for rec in region.details.get("per_q", [])
        if rec.get("comply") is not None
    }
    convexity_by_q = {
        rec["q"]: rec["comply"] for rec in convexity.details.get("per_q", [])
    }
    shared = set(region_by_q) & set(convexity_by_q)
    if not shared:
        return None
    return all(region_by_q[q] == convexity_by_q[q] for q in shared)
