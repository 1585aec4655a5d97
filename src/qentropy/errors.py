"""Exception hierarchy for the package.

Two branches matter for the CLI: InputError maps to exit code 2 (bad or
inconsistent input) and EvaluationError maps to exit code 3 (valid objects
queried at a point where the result is undefined).  _check_q is the one
positive-and-finite check of q and k, shared by every module that takes them;
_check_k adds a finite 1/k to it.  A q, k or x that is not a number at all is
an InputError, from _check_q or, for an array argument, _floats.  A number
is an int, a float, a numpy real, a Fraction or a Decimal (_is_real); a str
or bytes is not, even where it reads as one.
"""

import math
import numbers

import numpy as np


class QentropyError(Exception):
    """Base class for all package errors."""


class InputError(QentropyError):
    """Invalid construction parameters or malformed input data."""


class EvaluationError(QentropyError):
    """Evaluation failed at the requested point."""


class NegativeEntry(InputError):
    """A probability entry is negative."""


class NotNormalized(InputError):
    """Entries do not sum to one within tolerance (strict mode)."""


class ZeroSum(InputError):
    """All entries are zero, nothing to normalize."""


class NonPositiveK(InputError):
    """The entropy unit constant k must be positive."""


class InvalidFamilySpec(InputError):
    """A deformation family spec is inconsistent or incomplete."""


class InvalidWeierstrassParams(InputError):
    """Weierstrass series parameters violate their constraints."""


class ZeroMarginal(EvaluationError):
    """Conditional distribution requested on a zero-probability row."""


class OutOfTableRange(EvaluationError):
    """Tabulated deformation function queried outside its grid."""


class PhiVanishes(EvaluationError):
    """phi(q) is zero away from q = 1, the entropy quotient is undefined."""


class ZeroWithNonpositiveExponent(EvaluationError):
    """A zero probability was raised to a nonpositive exponent."""


class DomainError(EvaluationError):
    """Argument outside the mathematical domain of the operation."""


class NegativeEntropy(EvaluationError):
    """A family claimed valid produced an entropy below -1e-12."""


def _check_q(q: float, label: str = "q", error: type[Exception] = DomainError) -> None:
    """The one positive-and-finite check: q of every kind, every entropy route and the
    CLI's q flags; gamma of every deformation; and through _check_k, k of
    every deformation and family, of the Weierstrass phi and the CLI's --k."""
    try:
        positive = q > 0.0
    except TypeError:
        raise InputError(f"{label} must be a number, got {q!r}") from None
    if not positive:
        raise error(f"{label} must be positive, got {q!r}")
    if q == math.inf:
        raise error(f"{label} must be finite, got {q!r}")


def _check_k(k: float, label: str, error: type[Exception]) -> None:
    """_check_q for k, and a finite 1/k: the slope phi'(1) of a scaled phi."""
    _check_q(k, label, error)
    if 1.0 / k == math.inf:
        raise error(f"{label} must have a finite reciprocal, got {k!r}")


def _is_real(value) -> bool:
    """A real number: numbers.Real, or a Number that is not Complex
    (Decimal)."""
    return isinstance(value, numbers.Real) or (
        isinstance(value, numbers.Number) and not isinstance(value, numbers.Complex))


def _floats(values, label: str) -> np.ndarray:
    """values as a float64 array of their shape; InputError names label if
    they are not a number or an array of numbers.  Only an array of
    Python objects (Fraction, Decimal, ints past int64) is read entry by
    entry."""
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind in "biuf" or (kind == "O" and all(map(_is_real, array.flat))):
            return array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{label} must be a number or an array of numbers, got {values!r}")
