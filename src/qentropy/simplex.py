"""Probability simplex and refinement structures with seeded sampling.

A Distribution is a point of the simplex

    Delta_n = {(p_1, ..., p_n) | p_i >= 0, sum_i p_i = 1}

and a Refinement splits each outcome i into m_i cells p_ij >= 0 with
sum_ij p_ij = 1.  Construction accepts sums within 1e-12 of one and stores
the entries as given.  make_distribution divides by the actual sum, so its
entries are exactly proportional to the input.

A Distribution keeps its entries in one read-only float64 array, validated
in numpy; the tuple `probs` is built only when asked for.  So is `support`,
the input that every S_q evaluation of it shares: its positive entries in
order, one zero standing for all of its zeros, and their ln p.  Every sum
here, and every row sum of the entropy kernel, is exactly rounded:
math.fsum's result, from _exact_sums.

Sampling is uniform on the simplex (flat Dirichlet) via the exponential
spacings construction and is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    InputError,
    NegativeEntry,
    NotNormalized,
    ZeroMarginal,
    ZeroSum,
    _is_real,
)

SUM_TOL = 1e-12

# Probability tuples are built from lists, not generators.  tuple(genexpr)
# allocates a guessed size and resizes it, so the tuple is freed at another
# size than it was taken at, and CPython's per-size tuple free lists fill
# up: about 2.5 MB of resident memory over the first 40 axiom reports.


def _fsum(values: Iterable[float]) -> float:
    """Correctly rounded sum; inf where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


# Each thread keeps one float64 array per slot for the kernel's long
# temporaries: 0 the term array, 1 the trace route's weight, 2 the extraction
# segment.  A new array of 10^5 entries is 800 KB, which glibc maps and then
# hands back to the operating system when it is freed, so every call faulted
# its pages in again, ~200 minor faults per 10^5-entry call.  A slot grows to
# the power of two at or above a larger request, up to _SCRATCH entries
# (1 MiB), and is kept, so rows of slightly different lengths share it; a
# request past _SCRATCH gets a new array.  A slot's contents last only until
# the next request for it in the same thread, so no result is ever a view of
# one.
_SCRATCH = 1 << 17
_slots = threading.local()


def _scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of the shape: a view into this thread's
    slot while it fits in _SCRATCH entries, a new array otherwise."""
    size = math.prod(shape)
    if size > _SCRATCH:
        return np.empty(shape)
    try:
        arrays = _slots.arrays
    except AttributeError:
        arrays = _slots.arrays = [np.empty(0)] * 3
    if arrays[slot].size < size:
        arrays[slot] = np.empty(1 << (size - 1).bit_length())
    return arrays[slot][:size].reshape(shape)


# Rows this long are summed by error-free extraction (Rump, Ogita and Oishi,
# "Accurate floating-point summation, part I", SIAM J. Sci. Comput. 31(1),
# 2008), not by math.fsum, which makes a Python float per entry.  Each row
# is summed on its own, cut into equal segments of at most _BLOCK entries.
# Let 2^shift >= the segment length w.  A level on a segment r with a power
# of two sigma >= 2^shift max|r| takes q = (sigma + r) - sigma: q and r - q
# are exact for entries of either sign, and the q's are multiples of
# 2^-53 sigma no larger than 2^-shift sigma, so every partial sum of them is
# exact and tau = q.sum() is the same in any order, on every SIMD target.
# The remainder is at most 2^-53 sigma.
#
# One level is taken, and its remainder is summed in floats: in any order
# that sum is within w^2 2^-53 max|r| of the exact one.  The row's sum is
# math.fsum of its taus and remainder sums if no error within that bound can
# move the rounding (_settled); a zero remainder has bound 0.  The rows this
# leaves open, a near tie or a sum that cancels far below its entries, go to
# math.fsum, as does a row whose sigma would overflow (or with an entry that
# is not finite).
_LONG_ROW = 1024
_BLOCK = 1 << 15


def _extracted_sum(row: np.ndarray) -> float | None:
    """math.fsum of the 1-D row by one extraction level, bit for bit; None
    where the level does not settle the sum, or sigma or the sum would
    overflow."""
    n = len(row)
    width = -(-n // -(-n // _BLOCK))
    shift = (width - 1).bit_length()
    scale = width * width * 2.0 ** -53
    parts, bound = [], 0.0
    for start in range(0, n, width):
        r = row[start:start + width]
        top = max(r.max(), -r.min())
        if not top < 2.0 ** (1022 - shift):
            return None
        # sigma = 2^(shift + e) with top < 2^e, never subnormal, which is slow
        sigma = math.ldexp(1.0, max(math.frexp(top or 5e-324)[1], -1022) + shift)
        q = np.add(r, sigma, out=_scratch(2, r.shape))
        q -= sigma
        parts.append(q.sum())
        r = np.subtract(r, q, out=q)
        parts.append(r.sum())
        bound += max(r.max(), -r.min()) * scale
    try:
        t = math.fsum(parts)
    except OverflowError:
        return None
    # bounds add up in floats, which may round low; twice the sum cannot
    return None if bound and not _settled(t, parts, 2.0 * bound) else t


def _settled(t: float, parts: list[float], bound: float) -> bool:
    """Whether every T + R with |R| <= bound rounds to t, where T is the
    exact sum of parts and t = fsum(parts): T - bound and T + bound both lie
    strictly between the midpoints from t to its neighbours, where a tie
    could round either way; past the largest float the upper midpoint is
    the overflow threshold.  fsum gives each difference's sign exactly."""
    up = min(math.nextafter(t, math.inf) - t, math.ulp(t)) / 2
    down = min(t - math.nextafter(t, -math.inf), math.ulp(t)) / 2
    return math.fsum(parts + [-t, bound, -up]) < 0.0 < math.fsum(parts + [-t, -bound, down])


def _exact_sums(X: np.ndarray) -> list[float]:
    """math.fsum of each row of the 2-D array X, bit for bit; where fsum
    overflows it reads inf.  fsum overflows where a partial sum does; on a
    single-signed row that is where the sum itself does.

    Short rows go to math.fsum, row by row only if one overflows; each long
    row to _extracted_sum, and to math.fsum if that leaves it open."""
    if X.shape[1] < _LONG_ROW:
        rows = X.tolist()
        try:
            return list(map(math.fsum, rows))
        except OverflowError:
            return list(map(_fsum, rows))
    return [_fsum(memoryview(row)) if s is None else s
            for s, row in zip(map(_extracted_sum, X), X)]


def _checked_floats(values: Iterable, what: str) -> list[float]:
    """values entry by entry as floats.  The first entry that is not a real
    number, not finite or negative is refused, naming its index."""
    floats = []
    for i, v in enumerate(values):
        try:
            if not _is_real(v):
                raise TypeError
            x = float(v)
        except OverflowError:
            raise InputError(f"{what} entry {i} is beyond the float range") from None
        except (TypeError, ValueError):
            raise InputError(f"{what} entry {i} is not a real number: {v!r}") from None
        if not math.isfinite(x):
            raise InputError(f"{what} entry {i} is not finite: {x!r}")
        if x < 0.0:
            raise NegativeEntry(f"{what} entry {i} is negative: {x!r}")
        floats.append(x)
    return floats


def _prob_array(values: Iterable[float], what: str) -> tuple[np.ndarray, float]:
    """values as a new 1-D float64 array of finite nonnegative entries, and
    their exactly rounded sum, which must be finite.

    A list of numbers, or a numeric array, is converted and checked in
    numpy: min() >= 0 rules out a negative entry and NaN, and a finite sum
    rules out inf.  Anything else numpy would reinterpret (None as NaN, a
    nested list as a 2-D array, a string as a 0-d array of its value), and
    any input that fails, is scanned entry by entry to name the first
    offending entry.  The array is a copy, never the caller's.
    """
    values = _sequence(values, what)
    try:
        entries = np.array(values)
    except (TypeError, ValueError, OverflowError):
        entries = None
    if entries is None or entries.ndim != 1 or entries.dtype.kind not in "biuf":
        entries = np.array(_checked_floats(values, what), dtype=np.float64)
    else:
        entries = entries.astype(np.float64, copy=False)
    if not entries.size:
        raise InputError(f"{what} must have at least one entry")
    if entries.min() >= 0.0:
        total = _exact_sums(entries[None])[0]
        if total < math.inf:
            return entries, total
    _checked_floats(entries.tolist(), what)
    raise _overflowing_sum(what)


def _sequence(values: Iterable, what: str, items: str = "numbers") -> list | tuple | np.ndarray:
    """values as a list, tuple or 1-D array; a string, a non-iterable or an
    array of another shape is refused."""
    if isinstance(values, (str, bytes)):
        raise InputError(f"{what} must be a sequence of {items}, not {values!r}")
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise InputError(f"{what} must be one-dimensional, got shape {values.shape}")
    elif not isinstance(values, (list, tuple)):
        try:
            values = list(values)
        except TypeError:
            raise InputError(
                f"{what} must be a sequence of {items}, got {type(values).__name__}") from None
    return values


def _row_entries(values: Iterable[float], what: str) -> tuple[float, ...]:
    """values as a tuple of finite nonnegative floats, for the short rows of
    a Refinement: the same refusals as _prob_array, scanned in Python."""
    entries = tuple(_checked_floats(_sequence(values, what), what))
    if not entries:
        raise InputError(f"{what} must have at least one entry")
    return entries


def _overflowing_sum(what: str) -> InputError:
    """A sum beyond the float range is an input error, not an arithmetic one."""
    return InputError(f"{what} entries sum beyond the float range")


def _require_normalized(total: float) -> None:
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalized(f"entries sum to {total!r}, not 1 within {SUM_TOL}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Distribution:
    """Immutable probability vector; validates the simplex invariants.

    The entries are one read-only float64 array, `array`, copied from the
    input.  `probs` is the same entries as a tuple of floats, and equality
    and hashing are those of `probs` (so -0.0 equals 0.0).
    """

    def __init__(self, probs: Iterable[float]) -> None:
        entries, total = _prob_array(probs, "distribution")
        _require_normalized(total)
        object.__setattr__(self, "array", _read_only(entries))

    @classmethod
    def _of_valid_entries(cls, probs: np.ndarray) -> "Distribution":
        """A Distribution over the new array probs, whose entries are known
        to be finite and nonnegative, such as quotients v / total of checked
        entries: only the sum is checked."""
        _require_normalized(_exact_sums(probs[None])[0])
        d = object.__new__(cls)
        object.__setattr__(d, "array", _read_only(probs))
        return d

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable Distribution")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable Distribution")

    @cached_property
    def probs(self) -> tuple[float, ...]:
        """The entries as a tuple of floats, built on first use."""
        return tuple(self.array.tolist())

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(P, ln P, m), the entropy kernel's input, computed on first use and
        shared by every S_q evaluation: P is a read-only 1-row array of the m
        positive entries in their order, followed by a single 0.0 if any
        entry is zero; with no zero it is `array` itself, not a copy."""
        positive = self.array > 0.0
        m = int(np.count_nonzero(positive))
        entries = self.array
        if m < len(entries):
            entries = np.empty(m + 1)
            entries[:m] = self.array[positive]
            entries[m] = 0.0
            _read_only(entries)
        with np.errstate(divide="ignore"):
            return entries[None], _read_only(np.log(entries))[None], m

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.probs == other.probs

    def __hash__(self) -> int:
        return hash(self.probs)

    def __repr__(self) -> str:
        return f"Distribution(probs={self.probs!r})"


def make_distribution(values: Iterable[float], mode: str = "strict") -> Distribution:
    """Build a Distribution from raw nonnegative values.

    In ``strict`` mode the values must already sum to one within 1e-12; in
    ``normalize`` mode any positive-sum vector is accepted.  Both modes
    divide by the actual sum so the stored entries are exactly proportional
    to the input.
    """
    if mode not in ("strict", "normalize"):
        raise InputError(f"unknown mode {mode!r}, expected 'strict' or 'normalize'")
    entries, total = _prob_array(values, "distribution")
    if mode == "strict":
        _require_normalized(total)
    if total <= 0.0:
        raise ZeroSum("cannot normalize an all-zero vector")
    entries /= total
    return Distribution._of_valid_entries(entries)


def uniform_distribution(n: int) -> Distribution:
    if n < 1:
        raise InputError("n must be >= 1")
    return make_distribution([1.0] * n, mode="normalize")


@dataclass(frozen=True)
class Refinement:
    """Ragged joint array p_ij; rows are outcomes, cells are sub-outcomes."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if isinstance(rows, np.ndarray) and rows.ndim > 1:
            rows = list(rows)  # an array is the sequence of its rows
        rows = _sequence(rows, "refinement", "rows")
        if not len(rows):
            raise InputError("refinement must have at least one row")
        rows = tuple(_row_entries(row, f"refinement row {i}") for i, row in enumerate(rows))
        total = _fsum(c for row in rows for c in row)
        if total == math.inf:
            raise _overflowing_sum("refinement")
        if abs(total - 1.0) > SUM_TOL:
            raise NotNormalized(
                f"cells sum to {total!r}, not 1 within {SUM_TOL}"
            )
        object.__setattr__(self, "rows", rows)

    def flatten(self) -> Distribution:
        """All cells in row-major order, as a Distribution."""
        return Distribution._of_valid_entries(np.array([c for row in self.rows for c in row]))

    def marginals(self) -> Distribution:
        """Row sums p_i = sum_j p_ij."""
        return Distribution._of_valid_entries(np.array([math.fsum(row) for row in self.rows]))

    def conditional(self, i: int) -> Distribution:
        """Conditional distribution p(j|i) = p_ij / p_i for row i.

        Undefined on a zero-marginal row; callers that sum over rows are
        expected to skip those terms instead.
        """
        if not 0 <= i < len(self.rows):
            raise InputError(f"row index {i} out of range for {len(self.rows)} rows")
        row = self.rows[i]
        p_i = math.fsum(row)
        if p_i <= 0.0:
            raise ZeroMarginal(f"row {i} has zero marginal probability")
        return Distribution._of_valid_entries(np.array([c / p_i for c in row]))


def sample_simplex(n: int, count: int, seed: int) -> list[Distribution]:
    """Draw ``count`` points uniformly from Delta_n (flat Dirichlet).

    Uses exponential spacings: g_i ~ Exp(1), p_i = g_i / sum g.
    Bit-reproducible for a fixed seed.
    """
    return [Distribution(row) for row in _simplex_rows(n, count, seed)]


def _simplex_rows(n: int, count: int, seed: int) -> np.ndarray:
    """The points of sample_simplex as the rows of a (count, n) array."""
    if n < 1:
        raise InputError("n must be >= 1")
    if count < 1:
        raise InputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_exponential((count, n))
    return g / g.sum(axis=1, keepdims=True)


def sample_refinement(n: int, max_m: int, count: int, seed: int) -> list[Refinement]:
    """Draw random Refinements with n rows and row lengths uniform in 1..max_m.

    Cells are flat-Dirichlet on the flattened simplex, so every draw is a
    valid Refinement.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if max_m < 1:
        raise InputError("max_m must be >= 1")
    if count < 1:
        raise InputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lengths = rng.integers(1, max_m + 1, size=n)
        cells = rng.standard_exponential(int(lengths.sum()))
        cells /= cells.sum()
        cells, rows, pos = cells.tolist(), [], 0
        for m in lengths.tolist():
            rows.append(tuple(cells[pos:pos + m]))
            pos += m
        out.append(Refinement(tuple(rows)))
    return out
