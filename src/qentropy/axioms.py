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

from .deformation import DeformationFunction, EntropyFamily
from .entropy import (
    _stack,
    _vanishing_phi,
    entropies,
    information_content,
    pseudoadditive_compose,
)
from .errors import EvaluationError, InputError, QentropyError, _check_q
from .simplex import (
    Distribution,
    Refinement,
    _simplex_rows,
    sample_refinement,
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
_LIMIT_HS = tuple(10.0 ** (-j) for j in range(3, 16))
_LIMIT_QS = tuple(q for h in _LIMIT_HS for q in (1.0 + h, 1.0 - h))
_LIMIT_TOL = 1e-4
# The Shannon-limit offsets, the continuity probe's q sweep and the q of its
# two simplex sweeps, and the derivative-limit probe's scales.
_SHANNON_HS = tuple(10.0 ** (-j) for j in (2, 3, 4, 5, 6))
_SHANNON_QS = tuple(q for h in _SHANNON_HS for q in (1.0 + h, 1.0 - h))
_SWEEP_QS, _SEGMENT_QS = tuple(np.linspace(0.1, 4.0, 200).tolist()), (0.5, 2.0)
_PROBE_HS = tuple(0.05 * 2.0 ** (-m) for m in range(10))


@dataclass(frozen=True)
class CheckConfig:
    """The report's sample sizes and seed; defaults run in seconds on one core."""

    q_grid: tuple[float, ...] = (0.5, 0.9, 1.0, 1.1, 2.0, 3.0)
    dims: tuple[int, ...] = (2, 3, 5)
    seed: int = 0
    maximality_samples: int = 200
    pseudo_samples: int = 400

    def __post_init__(self) -> None:
        for name in ("q_grid", "dims"):
            if not len(getattr(self, name)):
                raise InputError(f"{name} must not be empty")
        for q in self.q_grid:
            _check_q(q, "q_grid", InputError)
        for name, counts in (("dims", self.dims),
                             ("maximality_samples", (self.maximality_samples,)),
                             ("pseudo_samples", (self.pseudo_samples,))):
            for n in counts:
                if not (isinstance(n, (int, np.integer)) and n >= 1):
                    raise InputError(f"{name}: {n!r} is not an integer >= 1")


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

    def add(self, residuals: Sequence[float], witness_at: Callable[[int], dict]) -> None:
        """Count the samples of a 1-D array.  The first maximum in index order
        replaces max_residual only when strictly greater, so a NaN never does
        and a 0.0/-0.0 tie keeps the earlier one.  witness_at(i) is built, in
        index order, only where residuals[i] is over the threshold."""
        r = np.asarray(residuals, dtype=np.float64)
        self.count += len(r)
        top = np.fmax.reduce(r, initial=-math.inf)
        if top > self.max_residual:
            self.max_residual = float(r[np.argmax(r == top)])
        self.witnesses += [(float(r[i]), witness_at(i))
                           for i in np.flatnonzero(r > self.threshold).tolist()]

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
    stored, as Python floats: a q that raised raises again, from the
    function itself.  fill stores a q set from one array call."""

    def __init__(self, func: DeformationFunction) -> None:
        self.func = func
        self.values: dict = {}

    def __call__(self, q: float) -> float:
        value = self.values.get(q)
        if value is None:
            value = self.values[q] = self.func(q)
        return value

    def fill(self, qs: Sequence[float]) -> None:
        """Store the function at the float q of qs not yet stored, from one
        array call.  Never raises: if that call raises, nothing is stored,
        so the float calls evaluate the set q by q and raise where they
        raise unfilled."""
        new = [q for q in dict.fromkeys(qs) if type(q) is float and q not in self.values]
        if not new:
            return
        try:
            values = self.func.values(new)
        except QentropyError:
            return
        self.values.update(zip(new, values.tolist()))


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
            # The uniform is row 0, so it is evaluated first at every q.
            P = np.vstack([np.full(n, 1.0 / n),
                           _simplex_rows(n, samples, _check_seed(seed, name) + n)])
            for q in q_grid:
                values = entropies(P, f, q)
                residuals = np.subtract(values[1:], values[0])
                acc.add(residuals, lambda i: {
                    "q": q,
                    "n": n,
                    "probs": P[i + 1].tolist(),
                    "entropy": values[i + 1],
                    "uniform_entropy": values[0],
                    "residual": float(residuals[i]),
                })
    return acc.record()


def check_expandability(
    f: EntropyFamily,
    dists: Sequence[Distribution],
    q_grid: Sequence[float] = (),
) -> CheckRecord:
    """Appending a zero-probability outcome leaves S_1 unchanged.

    The same comparison at q != 1 is reported informationally in details,
    since the axiom is only stated at q = 1.  Each q is one entropies() call
    over the distributions stacked above their zero-padded copies, so an
    evaluation error at a q leaves all of that q's gaps None.
    """
    P = _stack([d.probs for d in dists] + [d.probs + (0.0,) for d in dists])

    def gaps_at(q: float) -> list[float]:
        values = entropies(P, f, q)
        return [abs(padded - s) for s, padded in zip(values, values[len(dists):])]

    acc = _Residuals("expandability", (1.0,), 1e-12)
    gaps = gaps_at(1.0)
    acc.add(gaps, lambda i: {"probs": list(dists[i].probs), "gap": gaps[i]})
    off_shannon = {}
    for q in q_grid:
        if q != 1.0:
            try:
                off_shannon[repr(q)] = gaps_at(q)
            except EvaluationError:
                off_shannon[repr(q)] = [None] * len(dists)
    return acc.record(details={"off_shannon_gaps_informational": off_shannon})


def _chain_parts(refinements: Sequence[Refinement]) -> tuple:
    """The q-independent pieces of the chain rule for a set of refinements,
    stacked for entropies(): the flattened joints, the marginals, and the
    conditionals of the nonzero rows with their p_i and the index of their
    refinement.  The entries are those of Refinement.flatten(), marginals()
    and conditional(i), taken from the validated rows directly."""
    flats, margs, conds, weights, owners = [], [], [], [], []
    for j, r in enumerate(refinements):
        marg = [math.fsum(row) for row in r.rows]
        flats.append([c for row in r.rows for c in row])
        margs.append(marg)
        for row, p_i in zip(r.rows, marg):
            if p_i != 0.0:
                conds.append([c / p_i for c in row])
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
            residuals = _additivity_residuals(f, parts, q, mode)
            acc.add(residuals, lambda i: {
                "q": q,
                "rows": [list(row) for row in refinements[i].rows],
                "residual": residuals[i],
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
    p1s, p2s = 1.0 - rng.random((samples, 2)).T  # values in (0, 1]
    with _Residuals(name, q_grid, 1e-10) as acc:
        for q in q_grid:
            joint = information_content(f, q, p1s * p2s)
            composed = pseudoadditive_compose(
                f, q, information_content(f, q, p1s), information_content(f, q, p2s))
            residuals = np.abs(joint - composed) / (1.0 + np.abs(joint))
            acc.add(residuals, lambda i: {"q": q, "p1": float(p1s[i]), "p2": float(p2s[i]),
                                          "residual": float(residuals[i])})
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
    hs = _SHANNON_HS
    tol = 1e-2
    gap_detail = {}
    with _Residuals("shannon_limit", [1.0 + h for h in hs], tol) as acc:
        P = _stack([d.probs for d in dists])
        s1 = entropies(P, f, 1.0)
        sides = [(entropies(P, f, 1.0 + h), entropies(P, f, 1.0 - h)) for h in hs]
        gaps = [[max(abs(above[i] - s), abs(below[i] - s)) for above, below in sides]
                for i, s in enumerate(s1)]
        final_rel = [g[-1] / (1.0 + s) for g, s in zip(gaps, s1)]
        # A gap sequence that grows fails with 1e300, not inf, which would
        # not be valid JSON.
        acc.add([r if g[-1] <= g[0] or g[-1] == 0.0 else 1e300
                 for g, r in zip(gaps, final_rel)],
                lambda i: {"probs": list(dists[i].probs), "gaps": gaps[i],
                           "final_relative_gap": final_rel[i]})
        for d, g in zip(dists, gaps):
            gap_detail[repr(list(d.probs))] = {
                "gaps": g, "strictly_decreasing": all(b <= a for a, b in zip(g, g[1:]))}
    return acc.record(sample_count=len(dists) * len(hs),
                      details={"gaps": gap_detail})


def _limit_at_1(
    name: str,
    func: Callable[[float], float],
    target: float,
    value_name: str,
    detail_name: str,
) -> CheckRecord:
    """func at q = 1 +/- h, h in _LIMIT_HS, approaches target from
    both sides.

    Pass requires the deviation at the deepest scale below _LIMIT_TOL on both
    sides, without net growth from the first scale.  The witness names the
    deepest values value_name + "_above"/"_below"; details hold, per scale
    and side, the deviations when detail_name is "deviations", else the
    values.
    """
    hs = _LIMIT_HS
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
        acc.add([residual], lambda _: {
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
        scored = [rec for rec in per_q if rec["comply"] is not None]
        acc.add([rec["excess"] for rec in scored], lambda i: {
            key: value for key, value in scored[i].items() if key != "comply"})
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
    ps = np.array([math.exp(t) for t in np.linspace(math.log(1e-3), 0.0, 32)])
    ps[-1] = 1.0
    steps, spans = np.diff(ps), ps[2:] - ps[:-2]
    per_q = []
    with _Residuals("convexity_of_I", q_grid, tol, start=-math.inf) as acc:
        for q in q_grid:
            slopes = np.diff(information_content(f, q, ps)) / steps
            dd = np.diff(slopes) / spans
            acc.add(-dd, lambda i: {
                "q": q, "p": float(ps[i + 1]), "second_divided_difference": float(dd[i]),
            })
            # q complies when none of its differences went over tol.
            per_q.append({"q": q, "comply": not (-dd > tol).any()})
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
    # The points at t on the segment from the uniform toward (1, 0, 0),
    # built once for both segment sweeps.
    ts = np.linspace(0.0, 0.98, 200).tolist()
    corners = [[(1.0 - t) / 3.0 + (t if i == 0 else 0.0) for i in range(3)] for t in ts]
    segment = np.array([[x / math.fsum(p) for x in p] for p in corners])
    slopes = []
    with _Residuals("continuity_probe", (), 100.0 * f.k) as acc:
        # Each sweep: its grid, S over the grid, and the witness naming a point.
        sweeps = [(_SWEEP_QS, [entropies(d_fixed, f, q)[0] for q in _SWEEP_QS],
                   lambda x: {"direction": "q", "q": x})]
        for q in _SEGMENT_QS:
            sweeps.append((ts, entropies(segment, f, q),
                           lambda t, q=q: {"direction": "p", "q": q, "t": t}))
        for xs, values, where in sweeps:
            slopes += [(abs(v1 - v0) / (x1 - x0), where, x1)
                       for x0, x1, v0, v1 in zip(xs, xs[1:], values, values[1:])]
        slope, where, x1 = max(slopes, key=lambda s: s[0])
        acc.add([slope], lambda _: dict(where(x1), slope=slope))
    return acc.record(sample_count=len(slopes),
                      details={"note": "heuristic slope bound, not conclusive"})


def _probe_points(x0: float) -> list[tuple[float, float, float]]:
    """(upper, lower, step) of each quotient of derivative_limit_probe, in
    its order: x0 +/- h for each h, then x0 + h +/- s and x0 - h +/- s."""
    return [(x0 + h, x0 - h, 2.0 * h) for h in _PROBE_HS] + [
        pair for h in _PROBE_HS for s in [h / 64.0]
        for pair in ((x0 + h + s, x0 + h - s, 2.0 * s), (x0 - h + s, x0 - h - s, 2.0 * s))]


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
    scales = len(_PROBE_HS)
    tol = 1e-3
    tail = max(2, scales // 3)

    def settled(seq: list[float]) -> tuple[bool, float]:
        spread = max(seq[-tail:]) - min(seq[-tail:])
        return spread <= tol * (1.0 + abs(seq[-1])), spread

    details = {"x0": x0}
    with _Residuals(name, (x0,), tol) as acc:
        quotients = [(g(upper) - g(lower)) / step
                     for upper, lower, step in _probe_points(x0)]
        direct, nearby_plus, nearby_minus = (
            quotients[:scales], quotients[scales::2], quotients[scales + 1::2])
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
        acc.add([mismatch / (1.0 + abs(direct[-1]))], lambda _: dict(details))
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
        """The report as plain data, its records deep-copied (asdict)."""
        return {"family": self.family, "config": self.config,
                "checks": [asdict(rec) for rec in self.checks]}

    def to_json(self) -> str:
        """to_dict() as JSON, dumped from each record's own dict (vars), not a copy."""
        return json.dumps({"family": self.family, "config": self.config,
                           "checks": [vars(rec) for rec in self.checks]}, sort_keys=True) + "\n"


def run_full_report(f: EntropyFamily, config: CheckConfig | None = None) -> AxiomReport:
    """Run every check against the family; deterministic for a fixed seed.

    The checks share one evaluation of phi and alpha per q, memoized for
    this call only.  (replace() re-runs the family's validation, which
    merely stores q = 1.)  Each of the checks' q sets is then filled by one
    array call per function.
    """
    cfg = config or CheckConfig()
    echo = f.to_spec()
    f = replace(f, phi=_Memo(f.phi), alpha=_Memo(f.alpha))
    for qs in (_SWEEP_QS + _SEGMENT_QS, cfg.q_grid, _SHANNON_QS, REGION_Q_GRID, _LIMIT_QS):
        f.phi.fill(qs)
        f.alpha.fill(qs)
    f.phi.fill([x for upper, lower, _ in _probe_points(1.3) for x in (upper, lower)])
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
