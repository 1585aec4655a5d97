"""Deformed entropies, information content, and trace-form expectations.

The central quantity is

    S_q(p) = (1 - sum_i p_i^(1 - alpha(q))) / phi(q)

which reduces to the exponent-q form for alpha(q) = 1 - q and to Shannon
entropy -k sum p ln p in the limit q -> 1 whenever alpha(q)/phi(q) -> -k.

Every entropy route runs through one array kernel, entropies(P, f, q, form),
over the rows of a 2-D array: phi(q) and alpha(q) are evaluated once, the
terms element-wise in numpy, and each row summed exactly rounded (math.fsum's
result).  The exact sum makes a row's value independent of the batch it was
computed in.  The single-distribution functions are 1-row calls over the
Distribution's support, its positive entries and one zero for all of its
zeros, with their ln p, which it computes once: each call repeats only
the work that depends on q, and none on the entries that drop out.  One
element-wise kernel likewise gives information content I_q(p) =
expm1(alpha(q) ln p) / phi(q), to information_content (a float or an
array p) and to the trace route, which weights it by p^(1 - alpha(q)).
For alpha(q) < 0 the trace route splits at p = exp(1/alpha(q)): below it
the product would underflow, and each term is the equal form
(p - p^(1 - alpha(q))) / phi(q) instead.

Numerical stability near q = 1: the numerator 1 - sum p^e loses digits to
cancellation as the exponent e approaches 1, so it is computed as

    -sum_i p_i * expm1((e - 1) * ln p_i)

which is exact in the e -> 1 limit.  Every q != 1 goes through this one
quotient, however close to 1; only q == 1.0 itself returns the Shannon value
-k sum p ln p.  A phi(q) that is zero or subnormal raises PhiVanishes: a
subnormal divisor has lost relative precision.

Conventions: 0^e = 0 for e > 0 (zero-probability outcomes drop out); a zero
probability with e <= 0 is an error rather than a silently skipped term,
because the true limit diverges there.  Entropy values in [-1e-12, 0], -0
included, are clamped to +0; values below -1e-12 raise for validated
families, since the codomain of a valid family is the nonnegative reals.
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
    _floats,
)
from .simplex import Distribution, _exact_sums, _scratch

_CLAMP = 1e-12
_FORMS = ("generalized", "suyari", "trace")


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in units of k, tagged with its q."""

    value: float
    q: float


def _finish(value: float, q: float, validated: bool) -> float:
    if -_CLAMP <= value <= 0.0:
        value = 0.0
    elif value < -_CLAMP and validated:
        raise NegativeEntropy(
            f"entropy {value!r} at q={q!r}; a valid family cannot go negative"
        )
    return value


def _row_sums(terms: np.ndarray, outside) -> list[float]:
    """The correctly rounded sum of each row over the entries with p > 0,
    as math.fsum gives it; where fsum overflows it reads inf.  The entries
    at the index outside (zeros and NaN padding) are set to 0 in place
    first, which an exactly rounded sum ignores, so a row sums the same
    whatever padding or rows surround it."""
    terms[outside] = 0.0
    return _exact_sums(terms)


def _require_zeros_allowed(P: np.ndarray, outside, e: float) -> None:
    if e <= 0.0 and (P[outside] == 0.0).any():
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


def _quotient_sums(P: np.ndarray, log: np.ndarray, outside,
                   f: EntropyFamily, q: float, form: str) -> list[float]:
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
        _require_zeros_allowed(P, outside, 1.0 + off)
    phi_q = _phi_at(f, q)
    terms = np.multiply(log, off, out=_scratch(0, P.shape))
    terms[outside] = 0.0  # an infinite argument sends expm1 to a slow loop
    np.expm1(terms, out=terms)
    terms *= P
    sums = _row_sums(terms, outside)
    if math.inf in sums:
        # expm1 overflows for a tiny p when off ln p > 709 although the
        # term p * expm1 is finite.  Then off < -0.95, so the equal form
        # p^(1 + off) - p loses nothing to the rounding of 1 + off.
        equal = _row_sums(P ** (1.0 + off) - P, outside)
        for i, total in enumerate(sums):
            if total == math.inf:
                if equal[i] == math.inf:
                    raise _term_overflow(q, 1.0 + off)
                sums[i] = equal[i]
    return [-total / phi_q for total in sums]


def _information(log: np.ndarray, alpha_q: float, phi_q: float,
                 outside=None, out=None) -> np.ndarray:
    """I_q(p) = expm1(z) / phi(q) with z = alpha(q) ln p, element-wise, q != 1,
    from log = ln p, into the array out if given.  The entries at the index
    outside, which the caller discards, are computed at z = 0: an infinite z
    sends expm1 to a slow loop."""
    values = np.multiply(log, alpha_q, out=out)
    if outside is not None:
        values[outside] = 0.0
    np.expm1(values, out=values)
    over = values == np.inf
    values /= phi_q
    if over.any():
        # p^alpha > 1.8e308, so the -1 is far below an ulp: divide in logs.
        z = alpha_q * log[over]
        values[over] = np.copysign(np.exp(z - math.log(abs(phi_q))), phi_q)
    return values


def _trace_sums(P: np.ndarray, log: np.ndarray, outside,
                f: EntropyFamily, q: float) -> list[float]:
    """sum_i e_q(p_i) I_q(p_i) per row: weight e_q(p) = p^(1 - alpha(q)) times
    _information.

    For alpha(q) < 0, where z = alpha(q) ln p > 1 (p < exp(1/alpha(q))),
    p^e = p exp(-z) < p / 2.7: the equal form (p - p^e) / phi(q) has no
    cancellation, and the product would underflow.  The form that most
    entries take is computed over the whole array, the other only at its
    own entries: a long row of small entries at q >= 1.25 (Tsallis) takes
    the product nowhere, and next to q = 1, where exp(1/alpha(q)) is 0,
    no entry takes the equal form.
    """
    alpha_q = f.alpha(q)
    e = 1.0 - alpha_q
    _require_zeros_allowed(P, outside, e)
    phi_q = _phi_at(f, q)
    # A zero sends numpy's AVX-512 power to a loop twice as slow, so the
    # entries outside are raised at 1.0: _row_sums sets their terms to 0, and
    # far and near are read from P.
    weight = _scratch(1, P.shape)
    np.copyto(weight, P)
    weight[outside] = 1.0
    np.power(weight, e, out=weight)
    # Where exp(1/alpha(q)) is 0 (alpha(q) >= 0, or next to q = 1) no entry is far.
    cut = math.exp(1.0 / alpha_q) if alpha_q < 0.0 else 0.0
    far = P < cut if cut else None  # NaN padding is neither far nor near
    n_far = 0 if far is None else np.count_nonzero(far)
    if 2 * n_far <= P.size:
        terms = _information(log, alpha_q, phi_q, outside, out=_scratch(0, P.shape))
        terms *= weight
        if n_far:
            terms[far] = (P[far] - weight[far]) / phi_q
    else:
        near = P >= cut  # no zero: cut > 0
        product = _information(log[near], alpha_q, phi_q) * weight[near]
        terms = np.subtract(P, weight, out=weight)
        terms /= phi_q
        terms[near] = product
    sums = _row_sums(terms, outside)
    if not all(map(math.isfinite, sums)):
        raise _term_overflow(q, e)
    return sums


def _stack(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Ragged rows as one array for entropies(), NaN past each row's end."""
    P = np.full((len(rows), max(map(len, rows), default=0)), np.nan)
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
    counting as a zero probability.  P must be a 2-D array; its rows are
    not validated.
    """
    if form not in _FORMS:
        raise InputError(f"unknown form {form!r}, expected one of {_FORMS}")
    if not isinstance(P, np.ndarray) or P.ndim != 2:
        got = f"shape {P.shape}" if isinstance(P, np.ndarray) else type(P).__name__
        raise InputError(f"P must be a 2-D array, got {got}")
    with np.errstate(all="ignore"):
        return _entropies(P, np.log(P), ~(P > 0.0), f, q, form)


def _entropies(P: np.ndarray, log: np.ndarray, outside, f: EntropyFamily, q: float,
               form: str) -> list[float]:
    """entropies() given its q-independent inputs, under
    np.errstate(all="ignore"): log = ln P, and outside, an index of the
    entries of P that are not > 0 (a mask, or a slice of trailing columns)."""
    if q == 1.0:
        # e_1(p) = p and I_1(p) = -k ln p: every form is the Shannon sum.
        terms = np.multiply(log, P, out=_scratch(0, P.shape))
        sums = [-f.k * s for s in _row_sums(terms, outside)]
    elif form == "trace":
        sums = _trace_sums(P, log, outside, f, q)
    else:
        sums = _quotient_sums(P, log, outside, f, q, form)
    return [_finish(value, q, f.validated) for value in sums]


def _entropy_of(d: Distribution, f: EntropyFamily, q: float, form: str) -> EntropyValue:
    """S_q of one distribution, from the support it caches: its m positive
    entries and, if it has a zero, one 0.0 after them, which stands for every
    zero.  Every value keeps the bits of the full row: an entry's terms do
    not depend on where it sits, a zero's term is exactly 0, which the exact
    row sum ignores, and the one zero still meets an exponent <= 0."""
    P, log, m = d.support
    with np.errstate(all="ignore"):
        value = _entropies(P, log, (slice(None), slice(m, None)), f, q, form)[0]
    return EntropyValue(value, q)


def shannon_entropy(d: Distribution, k: float = 1.0) -> EntropyValue:
    """Shannon entropy -k sum p ln p: S_1 of the Tsallis family with unit k."""
    return generalized_entropy(d, tsallis_family(k), 1.0)


def suyari_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Exponent-q entropy (1 - sum p^q) / phi(q) for every q != 1; the
    Shannon value at q == 1.0 only; PhiVanishes for a subnormal phi(q)."""
    return _entropy_of(d, f, q, "suyari")


def generalized_entropy(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """(1 - sum p^(1 - alpha(q))) / phi(q); equals suyari_entropy when
    alpha(q) = 1 - q, on the identical code path."""
    return _entropy_of(d, f, q, "generalized")


def trace_expectation(d: Distribution, f: EntropyFamily, q: float) -> EntropyValue:
    """Entropy as the weighted average sum_i e_q(p_i) I_q(p_i) with weight
    e_q(p) = p^(1 - alpha(q)).

    Evaluated term by term as weight times information content, so it is an
    independent route to the same value as generalized_entropy; the two must
    agree to ~1e-12 wherever both are defined.  For alpha(q) < 0, a p below
    exp(1/alpha(q)) takes the equal term (p - p^(1 - alpha(q))) / phi(q).
    """
    return _entropy_of(d, f, q, "trace")


def information_content(f: EntropyFamily, q: float,
                        p: float | np.ndarray) -> float | np.ndarray:
    """Surprise of an outcome of probability p, element-wise over an array:

        I_q(p) = (p^alpha(q) - 1) / phi(q),    I_1(p) = -k ln p.

    A float p gives a float.  A p outside (0, 1] is a DomainError, and a
    value that is not finite an EvaluationError naming q and the first such p.
    """
    flat = _floats(p, "p").reshape(-1)
    inside = (flat > 0.0) & (flat <= 1.0)
    if not inside.all():
        raise DomainError(f"p must be in (0, 1], got {flat[inside.argmin()].item()!r}")
    with np.errstate(all="ignore"):
        log = np.log(flat)
        values = -f.k * log if q == 1.0 else _information(log, f.alpha(q), _phi_at(f, q))
    finite = np.isfinite(values)
    if not finite.all():
        i = finite.argmin()
        raise EvaluationError(f"I_q(p) at q={q!r}, p={flat[i].item()!r} "
                              f"is not finite ({values[i].item()!r})")
    values += 0.0  # a zero surprise is +0, never -0
    return values.reshape(np.shape(p)) if np.ndim(p) else values.item()


def pseudoadditive_compose(f: EntropyFamily, q: float, i1: float | np.ndarray,
                           i2: float | np.ndarray) -> float | np.ndarray:
    """Composition law for independent surprises, element-wise over arrays:

        i1 (+) i2 = i1 + i2 + phi(q) * i1 * i2.

    phi(1) = 0 makes q = 1 ordinary additivity.  A composition beyond the
    float range is an EvaluationError naming q.  Floats give a float.
    """
    i1, i2 = _floats(i1, "i1"), _floats(i2, "i2")
    with np.errstate(all="ignore"):
        value = i1 + i2 + f.phi(q) * i1 * i2
    finite = np.isfinite(value)
    if not finite.all():
        first = np.ravel(value)[finite.argmin()].item()
        raise EvaluationError(f"i1 (+) i2 at q={q!r} is not finite ({first!r})")
    return value if np.ndim(value) else value.item()
