"""Weierstrass cosine series and a difference-quotient probe.

The series

    W(x) = sum_{k>=0} a^k cos(b^k pi x),   0 < a < 1,  b odd,  ab > 1 + 3pi/2

is continuous everywhere and differentiable nowhere.  We evaluate the
truncation W_K with K chosen so the geometric tail a^(K+1)/(1-a) is below
the requested tolerance, which bounds |W_K(x) - W(x)| by that tolerance.

Argument reduction (load-bearing).  b^k overflows any fixed-precision
representation long before the tail becomes negligible (b = 13 and K = 40
means 13^40 ~ 3.6e44), so cos(b^k pi x) must NOT be formed from the product
b^k * x in floating point: for k above ~13 every digit of the reduced angle
would be wrong.  Instead we reduce b^k x modulo 2 exactly.  A float x equals
num / den with den a power of two (float.as_integer_ratio), hence

    b^k x mod 2 = (num * b^k mod 2 den) / den

which is exact integer arithmetic.  The running residue is updated as
r <- (r * b) mod 2 den, one multiply per term, and only the final division
by den rounds (one ulp).  cos then sees an argument in [0, 2) times pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import InputError, InvalidWeierstrassParams

# Weierstrass's sufficient condition on the product ab.
AB_LOWER_BOUND = 1.0 + 1.5 * math.pi


@dataclass(frozen=True)
class WeierstrassParams:
    """Series parameters (a, b) plus the absolute truncation tolerance.

    term_count (series terms K+1 with tail a^(K+1)/(1-a) <= eps) and w0
    (the truncated W(0)) are derived once, after validation; they take no
    part in equality, hashing or repr.
    """

    a: float
    b: int
    eps: float = 1e-12
    term_count: int = field(init=False, compare=False, repr=False)
    w0: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.a < 1.0:
            raise InvalidWeierstrassParams(f"a must be in (0,1), got {self.a!r}")
        if not (isinstance(self.b, int) and self.b >= 3 and self.b % 2 == 1):
            raise InvalidWeierstrassParams(
                f"b must be an odd integer >= 3, got {self.b!r}"
            )
        if not self.a * self.b > AB_LOWER_BOUND:
            raise InvalidWeierstrassParams(
                f"requires a*b > 1 + 3*pi/2 ~ {AB_LOWER_BOUND:.4f}, "
                f"got a*b = {self.a * self.b!r}"
            )
        if not self.eps > 0.0:
            raise InvalidWeierstrassParams(f"eps must be > 0, got {self.eps!r}")
        # Only validated parameters get here: 0 < a < 1 ends the loop.
        count = 1
        tail = self.a / (1.0 - self.a)
        while tail > self.eps:
            tail *= self.a
            count += 1
        object.__setattr__(self, "term_count", count)
        object.__setattr__(self, "w0", eval_W(self, 0.0))


def _reduced_angles(x: float, b: int, terms: int) -> list[float]:
    """b^k x mod 2 for k = 0..terms-1, computed exactly (see module docstring)."""
    num, den = float(x).as_integer_ratio()
    mod = 2 * den
    r = num % mod
    out = []
    for _ in range(terms):
        out.append(r / den)
        r = (r * b) % mod
    return out


def eval_W(params: WeierstrassParams, x: float) -> float:
    """Truncated Weierstrass series at x, within params.eps of the true W(x)."""
    if not math.isfinite(x):
        raise InputError(f"x must be finite, got {x!r}")
    angles = _reduced_angles(x, params.b, params.term_count)
    terms = []
    ak = 1.0
    for t in angles:
        terms.append(ak * math.cos(math.pi * t))
        ak *= params.a
    return math.fsum(terms)


def eval_phi_counterexample(params: WeierstrassParams, k: float, q: float) -> float:
    """Deformation function built on W:

        phi(q) = (q-1)/k * (W(q-1) + 2 W(0)) / (3 W(0)).

    The bracketed factor lies in [1/3, 1] because |W| <= W(0), so phi keeps
    the sign of q-1; phi(1) = 0 exactly since the (q-1) factor is applied
    last.  phi is differentiable only at q = 1, where phi'(1) = 1/k.
    """
    if k <= 0.0:
        raise InputError(f"k must be positive, got {k!r}")
    h = q - 1.0
    w0 = params.w0
    return (h / k) * ((eval_W(params, h) + 2.0 * w0) / (3.0 * w0))


def difference_quotients(
    f: Callable[[float], float],
    x: float,
    base: float,
    depth: int,
) -> list[tuple[float, float]]:
    """Forward difference quotients of f at x for steps base^-m, m = 1..depth.

    Each quotient divides by the actually-representable step (x + h) - x,
    not the nominal h, so no cancellation error enters the denominator.
    A depth whose step vanishes next to x is an InputError.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    points = [x + float(base) ** (-m) for m in range(1, depth + 1)]
    if points[-1] == x:
        # The points approach x monotonically: the first one equal to x
        # sits right after the deepest usable depth.
        usable = points.index(x)
        raise InputError(
            f"depth {depth} is too deep: the step {base!r}^-{usable + 1} vanishes "
            f"next to x = {x!r}; the deepest usable depth is {usable}"
        )
    f_x = f(x)
    return [(x1 - x, (f(x1) - f_x) / (x1 - x)) for x1 in points]


@dataclass(frozen=True)
class ProbeResult:
    """Difference quotients (scale, quotient) and their late-scale spread."""

    quotients: tuple[tuple[float, float], ...]
    spread: float


def quotient_spread(pairs: Sequence[tuple[float, float]]) -> float:
    """max - min of the quotients over the last half of the scales."""
    tail = [d for _, d in pairs[len(pairs) - len(pairs) // 2:]]
    return max(tail) - min(tail)


def nondifferentiability_probe(
    params: WeierstrassParams, x: float, depth: int
) -> ProbeResult:
    """Difference quotients of W at x over scales b^-m, m = 1..depth.

    For a differentiable function the quotients settle and the spread over
    the last depth/2 scales shrinks like the step; for W they oscillate with
    growing amplitude.  This is evidence, not a proof.
    """
    if depth < 2:
        raise InputError("depth must be >= 2")
    pairs = difference_quotients(lambda t: eval_W(params, t), x, params.b, depth)
    return ProbeResult(tuple(pairs), quotient_spread(pairs))
