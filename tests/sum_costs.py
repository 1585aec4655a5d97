"""Print the cost of the exactly rounded row sum, _exact_sums, per call.

One line per input class and shape: the median of 15 timings of a call, in
microseconds, the interquartile range of those timings, and the median per
entry in nanoseconds.  The input classes:

    short     typical rows shorter than 1,024 entries, which go to
              math.fsum, in batches of the shapes an axiom report sums:
              240 x 4, 201 x 3 and 60 x 15
    typical   seeded exponential entries with 10% exact zeros, normalized
              to sum to one, as a Distribution's entries or its terms are
    wide      entries m 2^e with e uniform over -1074..1000, far more bits
              than one extraction level takes off; their remainder's sum
              is too close to exact to move the rounding
    cancel    the wide entries and their negatives, shuffled: the sum is
              zero, so the remainder can move the rounding, and the row
              goes on to math.fsum after the extraction level, the slowest
              way through
    narrow    entries m 2^e with e uniform over -10..10 and their
              negatives, shuffled: a sum that cancels to zero with entries
              whose remainders the level leaves nonzero, so the row also
              goes on to math.fsum
    ... x40   40 such rows summed in one call, as the kernel sums a batch:
              each row on its own, so 40 times one row's cost

The last four take row lengths n in {1024, 10^4, 10^5}.

Compare the listing with another tree's to see what a change to the sum
costs, input class by input class; nothing is checked.  Run the two trees
alternately, a few times each, and read a difference only where it is
larger than both interquartile ranges:

    python tests/sum_costs.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).parents[1] / "src")]

from qentropy.simplex import _exact_sums  # noqa: E402


def _typical(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    rows = rng.standard_exponential(shape)
    rows[rng.random(shape) < 0.1] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


def _wide(rng: np.random.Generator, shape: tuple[int, int],
          low: int = -1074, high: int = 1000) -> np.ndarray:
    return np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(low, high, shape))


def _cancel(rng: np.random.Generator, shape: tuple[int, int],
            low: int = -1074, high: int = 1000) -> np.ndarray:
    half = _wide(rng, (shape[0], shape[1] // 2), low, high)
    return rng.permuted(np.concatenate([half, -half], axis=1), axis=1)


def _narrow(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return _cancel(rng, shape, -10, 11)


def _time(label: str, X: np.ndarray) -> None:
    number = max(1, 2_000_000 // X.size)
    times = [t / number for t in timeit.repeat(lambda: _exact_sums(X), number=number, repeat=15)]
    low, median, high = statistics.quantiles(times, n=4)
    print(f"{label:<22} {median * 1e6:10.1f} us  IQR {(high - low) * 1e6:8.1f} us "
          f"{median * 1e9 / X.size:6.1f} ns/entry")


for shape in ((240, 4), (201, 3), (60, 15)):
    _time(f"short {shape[0]}x{shape[1]}", _typical(np.random.default_rng(shape[0]), shape))
for n in (1024, 10_000, 100_000):
    for rows in (1, 40):
        for name, make in (("typical", _typical), ("wide", _wide), ("cancel", _cancel),
                           ("narrow", _narrow)):
            label = name if rows == 1 else f"{name} x{rows}"
            _time(f"{label:<12} n={n:<7}", make(np.random.default_rng(n), (rows, n)))
