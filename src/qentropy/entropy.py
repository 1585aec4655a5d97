"""Deformed entropies, information content, and trace-form expectations.

The central quantity is

    S_q(p) = (1 - sum_i p_i^(1 - alpha(q))) / phi(q)

which reduces to the exponent-q form for alpha(q) = 1 - q and to Shannon
entropy -k sum p ln p in the limit q -> 1 whenever alpha(q)/phi(q) -> -k.

Numerical stability near q = 1: the numerator 1 - sum p^e loses digits to
cancellation as the exponent e approaches 1, so it is computed as

    -sum_i p_i * expm1((e - 1) * ln p_i)

which is exact in the e -> 1 limit.  Every q != 1 goes through this one
quotient, however close to 1; only q == 1.0 itself returns the Shannon value
-k sum p ln p.  A phi(q) that is zero or subnormal raises PhiVanishes: a
subnormal divisor has lost relative precision.

Conventions: 0^e = 0 for e > 0 (zero-probability outcomes drop out); a zero
probability with e <= 0 is an error rather than a silently skipped term,
because the true limit diverges there.  Entropy values in [-1e-12, 0) are
clamped to 0; values below -1e-12 raise for validated families, since the
codomain of a valid family is the nonnegative reals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .deformation import EntropyFamily
from .errors import (
    DomainError,
    EvaluationError,
    NegativeEntropy,
    NonPositiveK,
    PhiVanishes,
    ZeroWithNonpositiveExponent,
)
from .simplex import Distribution

_CLAMP = 1e-12


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in units of k, tagged with its q."""

    value: float
    q: float


def _finish(value: float, q: float, validated: bool) -> EntropyValue:
    if -_CLAMP <= value < 0.0:
        value = 0.0
    elif value < -_CLAMP and validated:
        raise NegativeEntropy(
            f"entropy {value!r} at q={q!r}; a valid family cannot go negative"
        )
    return EntropyValue(value, q)


def _plogp_sum(probs: tuple[float, ...]) -> float:
    """sum p ln p with the 0 ln 0 = 0 convention."""
    return math.fsum(p * math.log(p) for p in probs if p > 0.0)


def _require_zeros_allowed(probs: tuple[float, ...], e: float) -> None:
    if e <= 0.0 and any(p == 0.0 for p in probs):
        raise ZeroWithNonpositiveExponent(
            f"zero probability with exponent {e!r} <= 0 diverges"
        )


def _term_overflow(q: float, e: float) -> EvaluationError:
    """A term p^e beyond the float range (alpha(q) > 1 with a tiny p)."""
    return EvaluationError(f"a term p^{e!r} of S_q at q={q!r} overflows the float range")


def _phi_at(f: EntropyFamily, q: float) -> float:
    phi_q = f.phi(q)
    if phi_q == 0.0:
        raise PhiVanishes(f"phi({q!r}) = 0 away from q = 1")
    if abs(phi_q) < sys.float_info.min:
        raise PhiVanishes(f"phi({q!r}) = {phi_q!r} is subnormal, an imprecise divisor")
    return phi_q


def shannon_entropy(d: Distribution, k: float = 1.0) -> EntropyValue:
    """Shannon entropy -k sum p ln p."""
    if k <= 0.0:
        raise NonPositiveK(f"k must be positive, got {k!r}")
    value = -k * _plogp_sum(d.probs)
    return _finish(value, 1.0, validated=True)


def _q_offset(d: Distribution, f: EntropyFamily, q: float) -> float:
    # The exponent q is positive, so zero probabilities always drop out.
    return q - 1.0


def _alpha_offset(d: Distribution, f: EntropyFamily, q: float) -> float:
    offset = -f.alpha(q)
    _require_zeros_allowed(d.probs, 1.0 + offset)
    return offset


def _entropy(
    d: Distribution,
    f: EntropyFamily,
    q: float,
    offset: Callable[[Distribution, EntropyFamily, float], float],
) -> EntropyValue:
    """(1 - sum p^(1 + offset)) / phi(q), with the cancellation-free numerator.

    The exponent enters only through its offset from 1 (offset = q - 1 for
    the exponent-q form, offset = -alpha(q) in general); forming 1 + offset
    and subtracting 1 again would round tiny offsets away.  Only q == 1.0
    returns the Shannon value -k sum p ln p, the limit for any family with
    alpha(q)/phi(q) -> -k (phi'(1) = 1/k for the exponent-q form); for any
    other q a zero or subnormal phi(q) raises PhiVanishes.
    """
    if q == 1.0:
        value = -f.k * _plogp_sum(d.probs)
    else:
        off = offset(d, f, q)
        phi_q = _phi_at(f, q)
        try:
            total = math.fsum(
                p * math.expm1(off * math.log(p)) for p in d.probs if p > 0.0)
        except OverflowError:
            # expm1 overflows for a tiny p when off ln p > 709 although the
            # term p * expm1 is finite.  Then off < -0.95, so the equal form
            # p^(1 + off) - p loses nothing to the rounding of 1 + off.
            try:
                total = math.fsum(p ** (1.0 + off) - p for p in d.probs if p > 0.0)
            except OverflowError:
                raise _term_overflow(q, 1.0 + off) from None
        value = -total / phi_q
    return _finish(value, q, f.validated)


def suyari_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Exponent-q entropy (1 - sum p^q) / phi(q) for every q != 1; the
    Shannon value at q == 1.0 only; PhiVanishes for a subnormal phi(q)."""
    return _entropy(d, f, q, _q_offset)


def generalized_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """(1 - sum p^(1 - alpha(q))) / phi(q); equals suyari_entropy when
    alpha(q) = 1 - q, on the identical code path."""
    return _entropy(d, f, q, _alpha_offset)


def information_content(f: EntropyFamily, q: float, p: float) -> float:
    """Surprise of an outcome of probability p:

        I_q(p) = (p^alpha(q) - 1) / phi(q),    I_1(p) = -k ln p.

    A value that is not finite (p^alpha(q) beyond the float range) is an
    EvaluationError naming q and p.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must be in (0, 1], got {p!r}")
    if q == 1.0:
        return -f.k * math.log(p)
    z = f.alpha(q) * math.log(p)
    phi_q = _phi_at(f, q)
    try:
        value = math.expm1(z) / phi_q
    except OverflowError:
        # p^alpha > 1.8e308, so the -1 is far below an ulp: divide in logs.
        try:
            value = math.copysign(math.exp(z - math.log(abs(phi_q))), phi_q)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise EvaluationError(f"I_q(p) at q={q!r}, p={p!r} is not finite ({value!r})")
    return value


def pseudoadditive_compose(f: EntropyFamily, q: float, i1: float, i2: float) -> float:
    """Composition law for independent surprises:

        i1 (+) i2 = i1 + i2 + phi(q) * i1 * i2.

    phi(1) = 0 makes q = 1 ordinary additivity.  A composition beyond the
    float range is an EvaluationError naming q.
    """
    value = i1 + i2 + f.phi(q) * i1 * i2
    if not math.isfinite(value):
        raise EvaluationError(f"i1 (+) i2 at q={q!r} is not finite ({value!r})")
    return value


def trace_expectation(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Entropy as the weighted average sum_i e_q(p_i) I_q(p_i) with weight
    e_q(p) = p^(1 - alpha(q)).

    Evaluated term by term as weight times information content, so it is an
    independent route to the same value as generalized_entropy; the two must
    agree to ~1e-12 wherever both are defined.
    """
    if q == 1.0:
        # e_1(p) = p and I_1(p) = -k ln p, so the trace form IS the Shannon sum.
        return _finish(-f.k * _plogp_sum(d.probs), q, f.validated)
    alpha_q = f.alpha(q)
    e = 1.0 - alpha_q
    _require_zeros_allowed(d.probs, e)
    phi_q = _phi_at(f, q)
    terms = []
    try:
        for p in d.probs:
            if p == 0.0:
                continue
            z = alpha_q * math.log(p)
            if z > 1.0:
                # p^e = p exp(-z) < p / 2.7 here, so this equal form has no
                # cancellation; the product form would overflow expm1 or
                # underflow p^e to 0 next to a huge I_q(p).
                terms.append((p - p**e) / phi_q)
            else:
                terms.append(p**e * math.expm1(z) / phi_q)
        total = math.fsum(terms)
    except OverflowError:
        raise _term_overflow(q, e) from None
    return _finish(total, q, f.validated)
