import numpy as np
import pytest

from brwlab import gaussian
from brwlab.intervals import Component, IntervalSet


def random_interval_set(rng: np.random.Generator, max_components: int = 3,
                        allow_half_lines: bool = True, span: float = 3.0) -> IntervalSet:
    """Random normalized set: a few disjoint intervals, optionally with half-lines."""
    k = int(rng.integers(1, max_components + 1))
    cuts = np.sort(rng.normal(0.0, span, size=2 * k))
    parts = []
    for i in range(k):
        lo, hi = float(cuts[2 * i]), float(cuts[2 * i + 1])
        if hi - lo < 1e-9:
            hi = lo + 1e-3
        parts.append(Component(lo, hi, bool(rng.integers(2)), bool(rng.integers(2))))
    s = IntervalSet(tuple(parts))
    if allow_half_lines and rng.random() < 0.25:
        side = rng.random()
        if side < 0.5:
            s = s.union(IntervalSet.below(float(cuts[0]) - 1.0, bool(rng.integers(2))))
        else:
            s = s.union(IntervalSet.above(float(cuts[-1]) + 1.0, bool(rng.integers(2))))
    return s


def mirror(s: IntervalSet) -> IntervalSet:
    """Reflection through 0 (scale by -1 analogue, kept here as a test helper)."""
    return IntervalSet(tuple(
        Component(-c.upper, -c.lower, c.upper_closed, c.lower_closed)
        for c in s))


def paths_ending_in(n: int, first, last) -> np.ndarray:
    """The number of n-step walk paths ending in each integer site range
    [first, last], as exact integers: differences of the big-integer prefix
    row `gaussian._prefix_row`, the reference for the float walk rows."""
    i_first, i_end = gaussian._row_indices(n, first, last)
    prefix = gaussian._prefix_row(n)
    return prefix[i_end] - prefix[i_first]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
