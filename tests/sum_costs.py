"""Print the cost of the exactly rounded row sum, _exact_sums, per call.

One line per input class and shape: the median of 15 timings of a call, in
microseconds, the interquartile range of those timings, and the median per
entry in nanoseconds.  Each timing repeats the call over at least 2*10^6
entries, or 2*10^5 for the two classes that end in math.fsum, whose entries
cost up to ~250 ns each.  The input classes:

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

A last line gives the minor page faults (ru_minflt) per steady-state call of
generalized_entropy and of trace_expectation on a 10^5-entry distribution,
called in turn over a q grid.  Their count depends on the C library's allocator, so it is
printed, not checked; with the kernel's per-thread scratch it reads 0 on
glibc.  A line after it gives the median and the interquartile range, in
milliseconds, of one call of each on the same distribution: 15 timings of
a pass over the q grid, each divided by the grid's length.

Compare the listing with another tree's to see what a change to the sum
costs, input class by input class; nothing is checked.  Run the two trees
alternately, a few times each, and read a difference only where it is
larger than both interquartile ranges:

    python tests/sum_costs.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import resource
import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).parents[1] / "src")]

from qentropy import (  # noqa: E402
    generalized_entropy, make_distribution, trace_expectation, tsallis_family)
from qentropy.simplex import _exact_sums  # noqa: E402

Q_GRID = (0.25, 0.5, 0.9, 1 - 5e-10, 1.0, 1 + 5e-10, 1 + 1e-6, 1.25, 2.0, 3.0, 4.75)


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


def _time(label: str, X: np.ndarray, budget: int = 2_000_000) -> None:
    number = max(1, budget // X.size)
    times = [t / number for t in timeit.repeat(lambda: _exact_sums(X), number=number, repeat=15)]
    low, median, high = statistics.quantiles(times, n=4)
    print(f"{label:<22} {median * 1e6:10.1f} us  IQR {(high - low) * 1e6:8.1f} us "
          f"{median * 1e9 / X.size:6.1f} ns/entry")


def _faults_per_call(d, f) -> list[float]:
    """Minor faults per call of each route, called in turn at each q as the
    benchmark's entropy sweep calls them."""
    routes, faults = (generalized_entropy, trace_expectation), [0, 0]
    for q in Q_GRID:  # the first pass takes the steady state's memory
        for entropy in routes:
            entropy(d, f, q)
    for _ in range(3):
        for q in Q_GRID:
            for i, entropy in enumerate(routes):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                entropy(d, f, q)
                faults[i] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return [n / (3 * len(Q_GRID)) for n in faults]


def _call_costs(d, f) -> list[tuple[float, float]]:
    """Median and interquartile range, in seconds, of one call of each route
    at the q of the grid in turn."""
    costs = []
    for entropy in (generalized_entropy, trace_expectation):
        times = [t / len(Q_GRID) for t in timeit.repeat(
            lambda: [entropy(d, f, q) for q in Q_GRID], number=1, repeat=15)]
        low, median, high = statistics.quantiles(times, n=4)
        costs.append((median, high - low))
    return costs


for shape in ((240, 4), (201, 3), (60, 15)):
    _time(f"short {shape[0]}x{shape[1]}", _typical(np.random.default_rng(shape[0]), shape))
for n in (1024, 10_000, 100_000):
    for rows in (1, 40):
        for name, make, budget in (("typical", _typical, 2_000_000),
                                   ("wide", _wide, 2_000_000),
                                   ("cancel", _cancel, 200_000),
                                   ("narrow", _narrow, 200_000)):
            label = name if rows == 1 else f"{name} x{rows}"
            _time(f"{label:<12} n={n:<7}", make(np.random.default_rng(n), (rows, n)), budget)
typical = make_distribution(_typical(np.random.default_rng(0), (1, 100_000))[0], "normalize")
generalized, trace = _faults_per_call(typical, tsallis_family())
print(f"minor faults per call, n=100000: generalized {generalized:.1f}, trace {trace:.1f}")
(generalized, g_iqr), (trace, t_iqr) = _call_costs(typical, tsallis_family())
print(f"ms per call, n=100000: generalized {generalized * 1e3:.3f} IQR {g_iqr * 1e3:.3f}, "
      f"trace {trace * 1e3:.3f} IQR {t_iqr * 1e3:.3f}")
