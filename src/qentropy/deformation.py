"""Deformation pairs (phi, alpha) and entropy family specifications.

A deformation function is one of a closed set of parametric kinds rather
than arbitrary user code, so families stay pure, serializable, and easy to
round-trip through JSON:

    tsallis_phi        phi(q) = (q - 1) / k
    negated_phi        phi(q) = 1 - q            (wrong sign, for failure tests)
    one_minus_q_alpha  alpha(q) = 1 - q
    power_alpha        alpha(q) = (1 - q) |q - 1|^(gamma - 1),  gamma > 0
    power_phi          phi(q) = (q - 1) |q - 1|^(gamma - 1) / k
    weierstrass_phi    (q - 1)/k * (W(q-1) + 2 W(0)) / (3 W(0))
    tabulated          linear interpolation on a sorted (q, value) grid

power_phi is the sign-correct partner of power_alpha: the pair satisfies
alpha(q)/phi(q) = -k identically, giving a non-Tsallis family that meets
the same validity conditions.  Tabulated functions refuse extrapolation so
a sloppy grid cannot silently corrupt limit checks near q = 1.

Each kind has one evaluator, on an array of q: ``values`` evaluates a
sequence of q in one call, and a float call is its one-element case, so
both give the same bits.  The arithmetic is IEEE's, element by element, as
Python floats would do it: the power kinds raise by libm pow per element,
because numpy's SIMD power can differ from it in the last bit.  A value
beyond the float range is an EvaluationError naming q, and a table whose
interpolation could overflow is refused when it is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    EvaluationError,
    InputError,
    InvalidFamilySpec,
    NonPositiveK,
    OutOfTableRange,
    _check_k,
    _check_q,
    _floats,
)
from .weierstrass import WeierstrassParams, eval_phi_counterexample

FAMILY_POINT_TOL = 1e-12


@dataclass(frozen=True)
class DeformationFunction:
    """One deformation function; evaluable for all q > 0 via ``__call__``,
    and on a sequence of q via ``values``."""

    kind: str
    k: float = 1.0
    gamma: float = 1.0
    wparams: WeierstrassParams | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidFamilySpec(f"unknown kind {self.kind!r}")
        _check_q(self.gamma, "gamma", InvalidFamilySpec)
        _check_k(self.k, "k", NonPositiveK)
        if self.kind == "weierstrass_phi" and not isinstance(self.wparams, WeierstrassParams):
            raise InvalidFamilySpec(f"weierstrass_phi needs params, got {self.wparams!r}")
        if self.kind == "tabulated":
            if len(self.table or ()) < 2:
                raise InvalidFamilySpec("tabulated function needs at least 2 points")
            for point in self.table:
                if not all(map(math.isfinite, point)):
                    raise InvalidFamilySpec(f"tabulated points must be finite, got {point!r}")
            for (q0, v0), (q1, v1) in zip(self.table, self.table[1:]):
                if not q1 > q0:
                    raise InvalidFamilySpec("tabulated q grid must be strictly increasing")
                # bounds every intermediate of _interpolate on the segment
                if not math.isfinite((v1 - v0) * (q1 - q0)):
                    raise InvalidFamilySpec(
                        f"tabulated segment from {(q0, v0)!r} to {(q1, v1)!r} "
                        "overflows the float range")

    def __call__(self, q: float) -> float:
        _check_q(q)
        return self._evaluate(np.array([q], dtype=np.float64)).item()

    def values(self, qs: Sequence[float] | np.ndarray) -> np.ndarray:
        """The function at each q of a 1-D sequence, bit for bit the float
        calls; raises as the float call at the first q it cannot evaluate."""
        qs = _floats(qs, "q").reshape(-1)
        positive = (qs > 0.0) & (qs < math.inf)
        if not positive.all():
            _check_q(qs[positive.argmin()].item())
        return self._evaluate(qs)

    def _evaluate(self, qs: np.ndarray) -> np.ndarray:
        # Python float arithmetic raises no warning on inf or nan.
        with np.errstate(all="ignore"):
            values = _KINDS[self.kind].evaluate(self, qs)
        finite = np.isfinite(values)
        if not finite.all():
            i = finite.argmin()
            raise EvaluationError(f"{self.kind}({qs[i].item()!r}) = "
                                  f"{values[i].item()!r} is not finite")
        return values

    def to_spec(self) -> dict:
        """JSON-able description; the k of scaled kinds lives at family level."""
        spec = {"kind": self.kind}
        for name in _KINDS[self.kind].fields:
            spec[name] = _FIELDS[name].read(self)
        return spec


def _interpolate(f: DeformationFunction, qs: np.ndarray) -> np.ndarray:
    """Linear interpolation between the knots around each q; the last knot's
    value at q equal to it.  OutOfTableRange names the first q outside."""
    table = f.table
    inside = (qs >= table[0][0]) & (qs <= table[-1][0])
    if not inside.all():
        raise OutOfTableRange(f"q={qs[inside.argmin()].item()!r} outside tabulated "
                              f"range [{table[0][0]!r}, {table[-1][0]!r}]")
    knots, vals = np.array(table).T
    i = np.searchsorted(knots, qs, side="right")
    last = i == len(knots)
    i[last] = len(knots) - 1
    q0, v0, q1, v1 = knots[i - 1], vals[i - 1], knots[i], vals[i]
    out = v0 + (v1 - v0) * (qs - q0) / (q1 - q0)
    out[last] = vals[-1]
    return out


def _pow(x: float, y: float) -> float:
    """x ** y by libm pow (Python's float **); inf where that overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _signed_power(f: DeformationFunction, qs: np.ndarray) -> np.ndarray:
    """sign(d) |d|^gamma with d = q - 1, by libm pow per element."""
    d = qs - 1.0
    return np.copysign([_pow(abs(x), f.gamma) for x in d.tolist()], d)


def tsallis_phi(k: float = 1.0) -> DeformationFunction:
    return DeformationFunction("tsallis_phi", k=k)


def negated_phi() -> DeformationFunction:
    return DeformationFunction("negated_phi")


def one_minus_q_alpha() -> DeformationFunction:
    return DeformationFunction("one_minus_q_alpha")


def power_alpha(gamma: float) -> DeformationFunction:
    return DeformationFunction("power_alpha", gamma=gamma)


def power_phi(gamma: float, k: float = 1.0) -> DeformationFunction:
    return DeformationFunction("power_phi", gamma=gamma, k=k)


def weierstrass_phi(params: WeierstrassParams, k: float = 1.0) -> DeformationFunction:
    return DeformationFunction("weierstrass_phi", k=k, wparams=params)


def tabulated(points: Sequence[Sequence[float]]) -> DeformationFunction:
    return DeformationFunction("tabulated", table=tuple((float(q), float(v)) for q, v in points))


@dataclass(frozen=True)
class _Kind:
    """evaluate(f, qs) on a float64 array of positive finite q; the spec
    fields besides "kind", in the order the factory takes them; scaled
    kinds also take the family k."""

    evaluate: Callable[[DeformationFunction, np.ndarray], np.ndarray]
    fields: tuple[str, ...]
    scaled: bool
    make: Callable[..., DeformationFunction]


@dataclass(frozen=True)
class _Field:
    """A spec field: its value in a DeformationFunction and what a spec
    may hold there ("positive", "number", "integer" or "points")."""

    read: Callable[[DeformationFunction], object]
    expect: str
    default: object = None


_KINDS = {
    "tsallis_phi": _Kind(lambda f, qs: (qs - 1.0) / f.k, (), True, tsallis_phi),
    "negated_phi": _Kind(lambda f, qs: -(qs - 1.0), (), False, negated_phi),
    "one_minus_q_alpha": _Kind(
        lambda f, qs: -(qs - 1.0), (), False, one_minus_q_alpha),
    # (1-q)|q-1|^(gamma-1) written as -sign(d)|d|^gamma, which is also well
    # defined at q = 1 for gamma < 1.
    "power_alpha": _Kind(
        lambda f, qs: -_signed_power(f, qs), ("gamma",), False, power_alpha),
    "power_phi": _Kind(
        lambda f, qs: _signed_power(f, qs) / f.k, ("gamma",), True, power_phi),
    "weierstrass_phi": _Kind(
        lambda f, qs: eval_phi_counterexample(f.wparams, f.k, qs),
        ("a", "b", "eps"), True,
        lambda a, b, eps, k: weierstrass_phi(WeierstrassParams(a, b, eps), k)),
    "tabulated": _Kind(_interpolate, ("points",), False, tabulated),
}

_FIELDS = {
    "gamma": _Field(lambda f: f.gamma, "positive"),
    "a": _Field(lambda f: f.wparams.a, "number"),
    "b": _Field(lambda f: f.wparams.b, "integer"),
    "eps": _Field(lambda f: f.wparams.eps, "number", 1e-12),
    "points": _Field(lambda f: [list(p) for p in f.table], "points"),
}


@dataclass(frozen=True)
class EntropyFamily:
    """A deformation pair (phi, alpha) plus the unit constant k.

    Constructing with validate=True (the default) checks phi(1) = 0 and
    alpha(1) = 0 by direct evaluation.  validate=False skips those checks
    and marks the family as unvalidated: entropy values are then allowed to
    go negative, which is what the axiom checks need to demonstrate failures
    of deliberately broken families.
    """

    phi: DeformationFunction
    alpha: DeformationFunction
    k: float
    validated: bool = True

    def __post_init__(self) -> None:
        _check_k(self.k, "k", NonPositiveK)
        for label, func in (("phi", self.phi), ("alpha", self.alpha)):
            # The spec holds one k for every scaled kind, the family's.  The
            # memoized stand-ins of run_full_report have no kind to check.
            if (isinstance(func, DeformationFunction) and _KINDS[func.kind].scaled
                    and func.k != self.k):
                raise InvalidFamilySpec(f"{label} has k = {func.k!r}, the family {self.k!r}")
            if not self.validated:
                continue
            try:
                at_1 = func(1.0)
            except EvaluationError as exc:
                raise InvalidFamilySpec(
                    f"{label} cannot be evaluated at q = 1: {exc}"
                ) from exc
            if abs(at_1) > FAMILY_POINT_TOL:
                raise InvalidFamilySpec(
                    f"{label}(1) = {at_1!r}, must vanish within {FAMILY_POINT_TOL}"
                )

    @property
    def family_id(self) -> str:
        spec = self.to_spec()
        return json.dumps(spec, sort_keys=True, separators=(",", ":"))

    def to_spec(self) -> dict:
        spec = {
            "phi": self.phi.to_spec(),
            "alpha": self.alpha.to_spec(),
            "k": self.k,
        }
        if not self.validated:
            spec["validate"] = False
        return spec


def tsallis_family(k: float = 1.0) -> EntropyFamily:
    """phi(q) = (q-1)/k with alpha(q) = 1-q: the Tsallis entropy family."""
    return EntropyFamily(tsallis_phi(k), one_minus_q_alpha(), k)


def power_family(gamma: float, k: float = 1.0) -> EntropyFamily:
    """Non-Tsallis pair with alpha/phi = -k identically (gamma = 1 is Tsallis)."""
    return EntropyFamily(power_phi(gamma, k), power_alpha(gamma), k)


def weierstrass_family(
    a: float = 0.5, b: int = 13, eps: float = 1e-12, k: float = 1.0
) -> EntropyFamily:
    """The counterexample family: phi differentiable only at q = 1."""
    params = WeierstrassParams(a, b, eps)
    return EntropyFamily(weierstrass_phi(params, k), one_minus_q_alpha(), k)


_EXPECTED = {
    "positive": "a positive number",
    "number": "a number",
    "integer": "an integer",
    "points": "a list of (q, value) pairs",
}


def _is_list(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spec_value(value, expect: str, label: str):
    """A spec value checked against its _Field.expect; bool is no number."""
    if expect == "points":
        valid = _is_list(value) and all(
            _is_list(p) and len(p) == 2 and all(map(_is_number, p)) for p in value)
    elif expect == "integer":
        valid = _is_number(value) and isinstance(value, int)
    else:
        valid = _is_number(value) and (expect == "number" or 0 < value < math.inf)
    if not valid:
        raise InvalidFamilySpec(f"{label} must be {_EXPECTED[expect]}, got {value!r}")
    return float(value) if expect in ("positive", "number") else value


def _function_from_spec(spec: Mapping, field: str, k: float) -> DeformationFunction:
    if not isinstance(spec, Mapping):
        raise InvalidFamilySpec(f"field {field!r} must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidFamilySpec(
            f"field {field!r}: unknown kind {kind!r}, expected one of {tuple(_KINDS)}"
        )
    _refuse_unknown(spec, ("kind",) + _KINDS[kind].fields, f"field {field!r}: ")
    args = {}
    for name in _KINDS[kind].fields:
        spec_field = _FIELDS[name]
        if name in spec:
            args[name] = _spec_value(spec[name], spec_field.expect,
                                     f"field {field!r}: {name!r}")
        elif spec_field.default is not None:
            args[name] = spec_field.default
        else:
            raise InvalidFamilySpec(f"field {field!r}: missing {name!r}")
    if _KINDS[kind].scaled:
        args["k"] = k
    try:
        return _KINDS[kind].make(**args)
    except InputError as exc:
        raise type(exc)(f"field {field!r}: {exc}") from None


def _refuse_unknown(spec: Mapping, known: tuple[str, ...], where: str) -> None:
    unknown = [name for name in spec if name not in known]
    if unknown:
        raise InvalidFamilySpec(
            f"{where}unknown field {unknown[0]!r}, expected one of {known}")


def family_from_spec(spec: Mapping) -> EntropyFamily:
    """Parse a family spec document, naming the offending field on error.

    Schema: {"phi": {"kind": ..., ...}, "alpha": {"kind": ..., ...},
    "k": positive number, "validate": optional bool}, and no other field,
    at either level.  Kinds whose formula contains k (tsallis_phi,
    power_phi, weierstrass_phi) take it from the family-level "k" so there
    is a single source of truth for units.
    """
    if not isinstance(spec, Mapping):
        raise InvalidFamilySpec("family spec must be a JSON object")
    _refuse_unknown(spec, ("phi", "alpha", "k", "validate"), "")
    if "k" not in spec:
        raise InvalidFamilySpec("field 'k': missing")
    k = _spec_value(spec["k"], "positive", "field 'k':")
    _check_k(k, "field 'k':", InvalidFamilySpec)
    if "phi" not in spec:
        raise InvalidFamilySpec("field 'phi': missing")
    if "alpha" not in spec:
        raise InvalidFamilySpec("field 'alpha': missing")
    validate = spec.get("validate", True)
    if not isinstance(validate, bool):
        raise InvalidFamilySpec(f"field 'validate': must be a boolean, got {validate!r}")
    phi = _function_from_spec(spec["phi"], "phi", k)
    alpha = _function_from_spec(spec["alpha"], "alpha", k)
    return EntropyFamily(phi, alpha, k, validated=validate)
