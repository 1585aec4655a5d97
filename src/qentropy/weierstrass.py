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
num / 2^s with num an integer, in lowest terms, hence

    b^k x mod 2 = (num * b^k mod 2^(s+1)) / 2^s

which is exact integer arithmetic, and only the final division rounds (one
ulp).  cos then sees an argument in [0, 2) times pi.

W is evaluated on arrays of x, one block of points at a time, and a float
call is the one-element case.  Three routes give the same residues:

- s <= 62, the usual case: the residue is computed in int64.  Because
  2^(s+1) divides 2^64, the wraparound of int64 multiplication (mod 2^64,
  in two's complement) leaves the residue mod 2^(s+1) intact, so
  num * (b^k mod 2^64), masked to its low s + 1 bits, is the exact residue,
  for a negative num too, and below 2^63 it is a nonnegative int64.  The
  residue converts to a float with one rounding, and the scaling by 2^-s
  is exact.  Every x with |x| >= 2^-10 has s <= 62, and so does every
  q - 1 with q >= 2^-10: all 4,001 points of the CLI's -2:2:0.001 grid and
  every q of an axiom report.
- s < 0: x is an even integer, so every residue is 0; so is x = 0.
- s > 62 (a tiny |x| with a long mantissa, such as a subnormal): Python
  integers, r <- (r * b) mod 2^(s+1) one term at a time.

The terms a^k cos(pi t) of a point are summed exactly rounded (math.fsum's
result), so its value depends neither on the block nor on the route that
reduced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, InvalidWeierstrassParams, _check_k, _floats
from .simplex import _exact_sums

# Weierstrass's sufficient condition on the product ab.
AB_LOWER_BOUND = 1.0 + 1.5 * math.pi
# Points per block of an array evaluation, which bounds its (points x terms)
# temporaries: a long CLI --range is never reduced all at once.
_BLOCK = 128
# The most series terms a WeierstrassParams takes, so that each (points x
# terms) temporary of a block is at most 4 MiB: a near 1 with a tiny eps
# would otherwise need millions of terms.  The defaults take 41.
MAX_TERMS = 4096


@dataclass(frozen=True)
class WeierstrassParams:
    """Series parameters (a, b) plus the absolute truncation tolerance.

    term_count (series terms K+1 with tail a^(K+1)/(1-a) <= eps), the
    per-term weights a^k and multipliers b^k mod 2^64, and w0 (the truncated
    W(0)) are derived once, after validation; they take no part in
    equality, hashing or repr.  A series that needs more than MAX_TERMS
    terms is refused.
    """

    a: float
    b: int
    eps: float = 1e-12
    term_count: int = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    powers: np.ndarray = field(init=False, compare=False, repr=False)
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
        # The count in closed form, the least count >= 1 with a^count/(1-a)
        # <= eps, is refused past MAX_TERMS before any term is built; the
        # loop's running product rounds, so its count may differ by one.
        # Only validated parameters get here: 0 < a < 1 ends the loop.
        estimate = math.ceil(max(1.0, (math.log(self.eps) + math.log1p(-self.a))
                                 / math.log(self.a)))
        if estimate > MAX_TERMS:
            raise InvalidWeierstrassParams(
                f"a={self.a!r} with eps={self.eps!r} needs {estimate} series terms, "
                f"more than {MAX_TERMS}"
            )
        count = 1
        tail = self.a / (1.0 - self.a)
        while tail > self.eps:
            tail *= self.a
            count += 1
        # a^k as the running product a * a * ... rounds it, term by term.
        weights = [1.0]
        for _ in range(count - 1):
            weights.append(weights[-1] * self.a)
        for name, values in (("weights", np.array(weights)),
                             ("powers", np.array([pow(self.b, k, 2**64) for k in range(count)],
                                                 dtype=np.uint64).view(np.int64))):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "term_count", count)
        object.__setattr__(self, "w0", eval_W(self, 0.0))


def _reduced_angles(x: float, b: int, terms: int) -> list[float]:
    """b^k x mod 2 for k = 0..terms-1 in Python integers (see module docstring)."""
    num, den = float(x).as_integer_ratio()
    mod = 2 * den
    r = num % mod
    out = []
    for _ in range(terms):
        out.append(r / den)
        r = (r * b) % mod
    return out


def _angles(params: WeierstrassParams, xs: np.ndarray) -> np.ndarray:
    """b^k x mod 2 for each finite x of a 1-D block (rows) and each term k
    (columns), exactly as _reduced_angles gives them (see module docstring)."""
    # x = 0 reduces as the even integer 2 does.
    xs = np.where(xs == 0.0, 2.0, xs)
    mantissa = np.frexp(xs)[0] * 2.0**53  # an integer, x over a power of two
    num = mantissa.astype(np.int64)
    # Lowest terms x = odd * 2^-s: divide out the lowest set bit num & -num;
    # then x / odd = 2^-s exactly.
    odd = mantissa / (num & -num)
    scale = xs / odd
    odd[scale > 1.0] = 0.0  # s < 0, an even integer: every residue is 0
    wide = scale < 2.0**-62  # s > 62: Python integers below
    scale[wide] = 1.0
    mask = 2 * (1.0 / scale).astype(np.int64) - 1  # 2^(s+1) - 1, all bits for s < 0
    residues = odd.astype(np.int64)[:, None] * params.powers
    residues &= mask[:, None]
    angles = residues.astype(np.float64)
    angles *= scale[:, None]
    for i in np.flatnonzero(wide).tolist():
        angles[i] = _reduced_angles(xs[i].item(), params.b, params.term_count)
    return angles


def _finite(xs) -> np.ndarray:
    """xs as a 1-D float64 array; InputError names its first non-finite x,
    or xs if it is not a number or an array of numbers."""
    xs = _floats(xs, "x").reshape(-1)
    finite = np.isfinite(xs)
    if not finite.all():
        raise InputError(f"x must be finite, got {xs[finite.argmin()].item()!r}")
    return xs


def _W_sums(params: WeierstrassParams, xs: np.ndarray) -> list[float]:
    """Truncated W at each point of a 1-D array of finite x, as Python floats."""
    sums = []
    for start in range(0, len(xs), _BLOCK):
        terms = _angles(params, xs[start:start + _BLOCK])
        terms *= np.pi
        np.cos(terms, out=terms)
        terms *= params.weights
        sums += _exact_sums(terms)
    return sums


def eval_W(params: WeierstrassParams,
           x: float | Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Truncated Weierstrass series at x, within params.eps of the true W(x).
    A float x gives a float, a sequence or array an array of its shape."""
    sums = _W_sums(params, _finite(x))
    return np.array(sums).reshape(np.shape(x)) if np.ndim(x) else sums[0]


def eval_phi_counterexample(params: WeierstrassParams, k: float,
                            q: float | Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Deformation function built on W, at q (a float, or each q of an array):

        phi(q) = (q-1)/k * (W(q-1) + 2 W(0)) / (3 W(0)).

    The bracketed factor lies in [1/3, 1] because |W| <= W(0), so phi keeps
    the sign of q-1; phi(1) = 0 exactly since the (q-1) factor is applied
    last.  phi is differentiable only at q = 1, where phi'(1) = 1/k.
    """
    _check_k(k, "k", InputError)
    h = _floats(q, "q") - 1.0
    w0 = params.w0
    bracket = (eval_W(params, h) + 2.0 * w0) / (3.0 * w0)
    with np.errstate(over="ignore"):  # h / k past the float range is inf, as for floats
        phi = (h / k) * bracket
    return phi if np.ndim(q) else phi.item()


def difference_quotients(
    f: Callable[[float], float],
    x: float,
    base: float,
    depth: int,
) -> list[tuple[float, float]]:
    """Forward difference quotients of f at x for steps base^-m, m = 1..depth.

    Each quotient divides by the actually-representable step (x + h) - x,
    not the nominal h, so no cancellation error enters the denominator.
    A base that is not a finite number above 1, whose steps do not shrink,
    or a depth whose step vanishes next to x is an InputError.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if not 1.0 < base < math.inf:
        raise InputError(f"base must be finite and > 1, got {base!r}")
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
    """max - min of the quotients over the last half of the scales; at
    least 2 pairs, so that the half holds one."""
    if len(pairs) < 2:
        raise InputError(f"quotient_spread needs at least 2 pairs, got {len(pairs)}")
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
