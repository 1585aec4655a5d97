"""Probability simplex and refinement structures with seeded sampling.

A Distribution is a point of the simplex

    Delta_n = {(p_1, ..., p_n) | p_i >= 0, sum_i p_i = 1}

and a Refinement splits each outcome i into m_i cells p_ij >= 0 with
sum_ij p_ij = 1.  Construction accepts sums within 1e-12 of one and stores
the entries as given.  make_distribution divides by the actual sum, so its
entries are exactly proportional to the input.

Sampling is uniform on the simplex (flat Dirichlet) via the exponential
spacings construction and is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
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


def _prob_entries(values: Iterable[float], what: str) -> tuple[tuple[float, ...], float]:
    """values as a tuple of finite nonnegative floats, and their correctly
    rounded sum, inf where it overflows.

    A valid input is checked at C speed: min() >= 0 rules out a negative
    entry (a NaN first entry makes the min NaN), and a finite fsum rules out
    NaN and inf.  Only an input that fails is scanned entry by entry, to
    name its first offending entry.
    """
    entries = tuple([*map(float, values)])
    if not entries:
        raise InputError(f"{what} must have at least one entry")
    if min(entries) >= 0.0:
        total = _fsum(entries)
        if total < math.inf:
            return entries, total
    for i, v in enumerate(entries):
        if not math.isfinite(v):
            raise InputError(f"{what} entry {i} is not finite: {v!r}")
        if v < 0.0:
            raise NegativeEntry(f"{what} entry {i} is negative: {v!r}")
    return entries, math.inf


def _finite_total(total: float, what: str) -> float:
    """A sum beyond the float range is an input error, not an arithmetic one."""
    if total == math.inf:
        raise InputError(f"{what} entries sum beyond the float range")
    return total


def _require_normalized(total: float) -> None:
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalized(f"entries sum to {total!r}, not 1 within {SUM_TOL}")


@dataclass(frozen=True)
class Distribution:
    """Immutable probability vector; validates the simplex invariants."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs, total = _prob_entries(self.probs, "distribution")
        _require_normalized(_finite_total(total, "distribution"))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _of_valid_entries(cls, probs: tuple[float, ...]) -> "Distribution":
        """A Distribution over floats known to be finite and nonnegative,
        such as quotients v / total of checked entries: only the sum is
        checked."""
        _require_normalized(math.fsum(probs))
        d = object.__new__(cls)
        object.__setattr__(d, "probs", probs)
        return d

    def __len__(self) -> int:
        return len(self.probs)

    @cached_property
    def array(self) -> np.ndarray:
        """The entries as a read-only float64 array, converted once."""
        values = np.array(self.probs, dtype=np.float64)
        values.flags.writeable = False
        return values


def make_distribution(values: Iterable[float], mode: str = "strict") -> Distribution:
    """Build a Distribution from raw nonnegative values.

    In ``strict`` mode the values must already sum to one within 1e-12; in
    ``normalize`` mode any positive-sum vector is accepted.  Both modes
    divide by the actual sum so the stored entries are exactly proportional
    to the input.
    """
    if mode not in ("strict", "normalize"):
        raise InputError(f"unknown mode {mode!r}, expected 'strict' or 'normalize'")
    entries, total = _prob_entries(values, "distribution")
    total = _finite_total(total, "distribution")
    if mode == "strict":
        _require_normalized(total)
    if total <= 0.0:
        raise ZeroSum("cannot normalize an all-zero vector")
    return Distribution._of_valid_entries(tuple([v / total for v in entries]))


def uniform_distribution(n: int) -> Distribution:
    if n < 1:
        raise InputError("n must be >= 1")
    return make_distribution([1.0] * n, mode="normalize")


@dataclass(frozen=True)
class Refinement:
    """Ragged joint array p_ij; rows are outcomes, cells are sub-outcomes."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise InputError("refinement must have at least one row")
        rows = tuple(_prob_entries(row, f"refinement row {i}")[0]
                     for i, row in enumerate(self.rows))
        total = _finite_total(_fsum(c for row in rows for c in row), "refinement")
        if abs(total - 1.0) > SUM_TOL:
            raise NotNormalized(
                f"cells sum to {total!r}, not 1 within {SUM_TOL}"
            )
        object.__setattr__(self, "rows", rows)

    def flatten(self) -> Distribution:
        """All cells in row-major order, as a Distribution."""
        return Distribution._of_valid_entries(tuple([c for row in self.rows for c in row]))

    def marginals(self) -> Distribution:
        """Row sums p_i = sum_j p_ij."""
        return Distribution._of_valid_entries(tuple([math.fsum(row) for row in self.rows]))

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
        return Distribution._of_valid_entries(tuple([c / p_i for c in row]))


def sample_simplex(n: int, count: int, seed: int) -> list[Distribution]:
    """Draw ``count`` points uniformly from Delta_n (flat Dirichlet).

    Uses exponential spacings: g_i ~ Exp(1), p_i = g_i / sum g.
    Bit-reproducible for a fixed seed.
    """
    return [Distribution(tuple(row)) for row in _simplex_rows(n, count, seed).tolist()]


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
        rows, pos = [], 0
        for m in lengths:
            rows.append(tuple([float(c) for c in cells[pos:pos + m]]))
            pos += int(m)
        out.append(Refinement(tuple(rows)))
    return out
