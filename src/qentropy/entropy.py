"""Deformed entropies, information content, and trace-form expectations.

The central quantity is

    S_q(p) = (1 - sum_i p_i^(1 - alpha(q))) / phi(q)

which reduces to the exponent-q form for alpha(q) = 1 - q and to Shannon
entropy -k sum p ln p in the limit q -> 1 whenever alpha(q)/phi(q) -> -k.

Every entropy route runs through one array kernel, entropies(P, f, q, form),
over the rows of a 2-D array: phi(q) and alpha(q) are evaluated once, the
terms element-wise in numpy, and each row is summed with math.fsum.  The
exactly rounded sum makes a row's value independent of the batch it was
computed in.  The single-distribution functions are 1-row calls.

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
from typing import Sequence

import numpy as np

from .deformation import EntropyFamily, tsallis_family
from .errors import (
    DomainError,
    EvaluationError,
    InputError,
    NegativeEntropy,
    PhiVanishes,
    ZeroWithNonpositiveExponent,
)
from .simplex import Distribution

_CLAMP = 1e-12
_FORMS = ("generalized", "suyari", "trace")


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in units of k, tagged with its q."""

    value: float
    q: float


def _finish(value: float, q: float, validated: bool) -> float:
    if -_CLAMP <= value < 0.0:
        value = 0.0
    elif value < -_CLAMP and validated:
        raise NegativeEntropy(
            f"entropy {value!r} at q={q!r}; a valid family cannot go negative"
        )
    return value


def _row_sums(terms: np.ndarray, positive: np.ndarray) -> list[float]:
    """math.fsum of each row over the entries with p > 0; an intermediate
    overflow reads inf.  The other entries count as 0, which an exactly
    rounded sum ignores, so a row sums the same whatever padding or rows
    surround it."""
    sums = []
    for row in np.where(positive, terms, 0.0):
        try:
            sums.append(math.fsum(row))
        except OverflowError:
            sums.append(math.inf)
    return sums


def _require_zeros_allowed(P: np.ndarray, e: float) -> None:
    if e <= 0.0 and (P == 0.0).any():
        raise ZeroWithNonpositiveExponent(
            f"zero probability with exponent {e!r} <= 0 diverges"
        )


def _term_overflow(q: float, e: float) -> EvaluationError:
    """A term p^e beyond the float range (alpha(q) > 1 with a tiny p)."""
    return EvaluationError(f"a term p^{e!r} of S_q at q={q!r} overflows the float range")


def _vanishing_phi(q: float) -> PhiVanishes:
    return PhiVanishes(f"phi({q!r}) = 0 away from q = 1")


def _phi_at(f: EntropyFamily, q: float) -> float:
    phi_q = f.phi(q)
    if phi_q == 0.0:
        raise _vanishing_phi(q)
    if abs(phi_q) < sys.float_info.min:
        raise PhiVanishes(f"phi({q!r}) = {phi_q!r} is subnormal, an imprecise divisor")
    return phi_q


def _quotient_sums(P: np.ndarray, positive: np.ndarray, f: EntropyFamily, q: float,
                   form: str) -> list[float]:
    """(1 - sum p^(1 + offset)) / phi(q) per row, with the cancellation-free
    numerator.

    The exponent enters only through its offset from 1 (offset = q - 1 for
    the exponent-q form, offset = -alpha(q) in general); forming 1 + offset
    and subtracting 1 again would round tiny offsets away.
    """
    if form == "suyari":
        # The exponent q is positive, so zero probabilities always drop out.
        off = q - 1.0
    else:
        off = -f.alpha(q)
        _require_zeros_allowed(P, 1.0 + off)
    phi_q = _phi_at(f, q)
    terms = np.log(P)
    terms *= off
    np.expm1(terms, out=terms)
    terms *= P
    sums = _row_sums(terms, positive)
    for i, total in enumerate(sums):
        if total == math.inf:
            # expm1 overflows for a tiny p when off ln p > 709 although the
            # term p * expm1 is finite.  Then off < -0.95, so the equal form
            # p^(1 + off) - p loses nothing to the rounding of 1 + off.
            row = P[i:i + 1]
            total = _row_sums(row ** (1.0 + off) - row, positive[i:i + 1])[0]
            if total == math.inf:
                raise _term_overflow(q, 1.0 + off)
            sums[i] = total
    return [-total / phi_q for total in sums]


def _trace_sums(P: np.ndarray, positive: np.ndarray, f: EntropyFamily,
                q: float) -> list[float]:
    """sum_i e_q(p_i) I_q(p_i) per row, term by term as weight times
    information content: e_q(p) = p^(1 - alpha(q)), I_q(p) = expm1(z)/phi(q)
    with z = alpha(q) ln p."""
    alpha_q = f.alpha(q)
    e = 1.0 - alpha_q
    _require_zeros_allowed(P, e)
    phi_q = _phi_at(f, q)
    terms = np.log(P)
    terms *= alpha_q
    weight = P ** e
    # Where z > 1, p^e = p exp(-z) < p / 2.7, so the equal form p - p^e has
    # no cancellation; the product form would overflow expm1 or underflow
    # p^e to 0 next to a huge I_q(p).
    large = terms > 1.0
    np.expm1(terms, out=terms)
    terms *= weight
    np.subtract(P, weight, out=weight)
    np.copyto(terms, weight, where=large)
    terms /= phi_q
    sums = _row_sums(terms, positive)
    if not all(map(math.isfinite, sums)):
        raise _term_overflow(q, e)
    return sums


def _stack(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Ragged rows as one array for entropies(), NaN past each row's end."""
    P = np.full((len(rows), max(map(len, rows))), np.nan)
    for i, row in enumerate(rows):
        P[i, :len(row)] = row
    return P


def entropies(P: np.ndarray, f: EntropyFamily, q: float,
              form: str = "generalized") -> list[float]:
    """S_q of each row of the 2-D array P, in units of k.

    form selects the route: "generalized" is (1 - sum p^(1 - alpha(q))) /
    phi(q), "suyari" the exponent-q form (1 - sum p^q) / phi(q), and
    "trace" the weighted average sum e_q(p) I_q(p) with weight
    e_q(p) = p^(1 - alpha(q)), an independent route to the generalized
    value.  At q == 1.0 every form is the Shannon value -k sum p ln p.
    Only entries p > 0 contribute, so NaN can pad ragged rows without
    counting as a zero probability.
    """
    if form not in _FORMS:
        raise InputError(f"unknown form {form!r}, expected one of {_FORMS}")
    positive = P > 0.0
    with np.errstate(all="ignore"):
        if q == 1.0:
            # e_1(p) = p and I_1(p) = -k ln p: every form is the Shannon sum.
            terms = np.log(P)
            terms *= P
            sums = [-f.k * s for s in _row_sums(terms, positive)]
        elif form == "trace":
            sums = _trace_sums(P, positive, f, q)
        else:
            sums = _quotient_sums(P, positive, f, q, form)
    return [_finish(value, q, f.validated) for value in sums]


def shannon_entropy(d: Distribution, k: float = 1.0) -> EntropyValue:
    """Shannon entropy -k sum p ln p: S_1 of the Tsallis family with unit k."""
    return generalized_entropy(d, tsallis_family(k), 1.0)


def suyari_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Exponent-q entropy (1 - sum p^q) / phi(q) for every q != 1; the
    Shannon value at q == 1.0 only; PhiVanishes for a subnormal phi(q)."""
    return EntropyValue(entropies(d.array[None], f, q, "suyari")[0], q)


def generalized_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """(1 - sum p^(1 - alpha(q))) / phi(q); equals suyari_entropy when
    alpha(q) = 1 - q, on the identical code path."""
    return EntropyValue(entropies(d.array[None], f, q)[0], q)


def trace_expectation(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Entropy as the weighted average sum_i e_q(p_i) I_q(p_i) with weight
    e_q(p) = p^(1 - alpha(q)).

    Evaluated term by term as weight times information content, so it is an
    independent route to the same value as generalized_entropy; the two must
    agree to ~1e-12 wherever both are defined.
    """
    return EntropyValue(entropies(d.array[None], f, q, "trace")[0], q)


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
